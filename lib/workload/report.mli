(** Rendering benchmark results as the paper's figures (text form). *)

val bar : float -> max:float -> width:int -> string
(** ASCII bar for inline charts. *)

val fig12 : Creation_trace.summary list -> string
val fig3 : Smallfile.result list -> string
val fig4 : Largefile.result list -> string
val fig5 : Cleaning.point list -> string
val policy_ablation : Hotcold.result list -> string
