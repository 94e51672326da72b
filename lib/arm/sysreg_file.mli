(** Hardware system-register storage: a flat [Bytes.t] of unboxed 8-byte
    slots keyed by the dense {!Sysreg.index} plus a dirty bitmap, with
    architectural reset values where they matter (MPIDR/MIDR
    identification, ICH_VTR's list-register count).  All operations are
    O(1) accesses with no boxing or write barrier on the store path. *)

type t = { values : Bytes.t; dirty : Bytes.t }

val ich_vtr_reset : int64
(** ICH_VTR advertising {!Sysreg.lr_count} list registers. *)

val reset_value : Sysreg.t -> int64

val create : unit -> t

val read : t -> Sysreg.t -> int64
(** Unwritten registers read their reset value. *)

val get_index : t -> int -> int64
(** Raw read by dense {!Sysreg.index} (serialization, compiled loops). *)

val index_equals : t -> int -> int64 -> bool
(** [get_index t i = v], without boxing the register value. *)

val set_index : t -> int -> int64 -> unit
(** Raw write by dense index; does not touch the dirty bitmap. *)

val write : t -> Sysreg.t -> int64 -> unit
(** Software write: ignored for {!Sysreg.read_only} registers. *)

val hw_write : t -> Sysreg.t -> int64 -> unit
(** Unchecked write for hardware-internal updates (exception entry setting
    ESR, the GIC updating status registers). *)

val write_index : t -> int -> int64 -> unit
(** {!write} by dense index (compiled loops): skips read-only registers,
    marks the register dirty. *)

val hw_write_index : t -> int -> int64 -> unit
(** {!hw_write} by dense index. *)

val to_page : t -> regs:int array -> offs:int array -> Bytes.t -> unit
(** [to_page t ~regs ~offs page] stores register [regs.(k)] (a dense
    index) into the 8-byte word at byte [offs.(k)] of [page] (a
    {!Memory.page_of}/{!Memory.page_for_store} page), for every [k].  A
    raw page store: the caller has checked {!Memory.plain_page}. *)

val of_page :
  t -> checked:bool -> regs:int array -> offs:int array -> Bytes.t -> unit
(** The reverse: writes register [regs.(k)] from the word at [offs.(k)],
    in order, as {!write_index} when [checked] (read-only registers keep
    their value) or {!hw_write_index} otherwise.  A zero-length page (an
    unbacked one) reads as zero. *)

val reset : t -> unit

val copy : src:t -> dst:t -> Sysreg.t list -> unit
(** Copy a register set between files (host-side world switches). *)

val copy_indices : src:t -> dst:t -> int array -> unit
(** {!copy} over a precomputed dense-index array — no per-register
    dispatch, just an indexed loop. *)

val dump : t -> (Sysreg.t * int64) list
(** Written, non-zero registers in {!Sysreg.all} order, for debugging. *)
