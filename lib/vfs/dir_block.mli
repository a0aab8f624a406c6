(** Directory block format shared by both file systems (decoded for
    the namespace by {!Dir}).

    A directory file is a sequence of self-contained blocks (an entry
    never spans blocks, as in BSD): each block holds a u16 entry count
    followed by packed [(u32 inum, u16 len, name)] entries. *)

val parse : bytes -> (string * int) list
(** Entries of one block.  @raise Lfs_util.Codec.Error on corruption. *)

val encode : block_size:int -> (string * int) list -> bytes
(** One full block.  @raise Lfs_util.Codec.Error if the entries overflow
    the block. *)

val entry_bytes : string -> int
(** On-disk size of one entry with the given name. *)

val used_bytes : (string * int) list -> int
(** Bytes a block with these entries occupies (including the header). *)
