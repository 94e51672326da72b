(** Per-CPU decode cache for the interpreter loop ({!Interp.run}).

    Keyed by the instruction word itself, so code patched at runtime
    re-decodes without any invalidation: a new word is a new key. *)

type t
(** One per simulated CPU (see {!Cpu.t}), so no other machine can evict
    its entries mid-run. *)

val create : unit -> t

val reset : t -> unit
(** Empty the cache in place: a write per slot filled since the last
    reset, nothing allocated. *)

val decode : t -> int -> Encode.decoded
(** {!Encode.decode} through the per-CPU direct-mapped cache keyed by
    the instruction word (sound because decode is pure). *)

val decode_cache_size : int
(** Number of direct-mapped decode slots — words congruent modulo this
    collide on a slot (exported so tests can construct collisions). *)
