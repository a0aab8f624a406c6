(** A/B comparator for [lfs-bench/1] result files.

    Every figure entry's shallow numeric fields in the baseline are
    matched (by figure name and entry index) against the current file
    and classified by a per-metric direction heuristic: throughputs,
    ratios and hit counts should not fall; times, costs, I/O volumes
    and host words allocated ([_words]) should not rise; metrics with
    no known direction gate on any out-of-tolerance change, since the
    simulation is deterministic.
    Nested objects (per-phase breakdowns) are not compared.  Figures,
    entries or metrics present in the baseline but missing from the
    current file also gate, and so do ones present in the current file
    but absent from the baseline (nested names included): the gate
    cannot check a number the baseline never recorded. *)

type status = Same | Improved | Regressed | Changed

type delta = {
  figure : string;
  entry : string;  (** entry label, or ["#i"] when unlabeled *)
  metric : string;
  base : float;
  cur : float;
  pct : float;  (** percent change, current vs base *)
  status : status;
}

type report = {
  tolerance_pct : float;
  deltas : delta list;
  missing : string list;
      (** figures/entries/metrics in base but not in current *)
  unbaselined : string list;
      (** figures/entries/metric paths in current but not in base;
          nested names are ["/"]-joined *)
}

val words_tolerance_pct : float
(** The band for host words allocated (metrics named [_words]), 0.1%:
    they are exact counts, so they are held to it whenever it is
    narrower than the tolerance given. *)

val compare :
  ?tolerance_pct:float -> base:Json.t -> cur:Json.t -> unit -> report
(** Default tolerance 5%.
    @raise Invalid_argument if either document is not an [lfs-bench/1]
    file. *)

val regressions : report -> delta list
(** The deltas that should fail a gate: [Regressed] plus [Changed]. *)

val gates : report -> bool
(** True iff there are {!regressions}, [missing] or [unbaselined]
    items. *)

val render : report -> string
(** Out-of-tolerance rows as a table plus a one-line summary. *)

val to_json : report -> Json.t
