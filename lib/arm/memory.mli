(** Sparse physical memory: 64-bit words addressed by byte address.

    The simulator only performs aligned 64-bit accesses (the deferred
    access page is defined in 8-byte slots); unaligned addresses raise.

    Backed by 4 KB pages of flat [Bytes.t] (unboxed words, opaque to the
    GC — no write barrier or box allocation per store) behind a small
    direct-mapped page cache, so the interpreter's fetch/load/store path
    avoids a hash lookup per access. *)

type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  cache_idx : int array;
  cache_pg : Bytes.t array;
  mutable mmio : (int64 * int64 * string) list;
  mutable on_write : (int64 -> unit) option;
      (** write observer (dirty-page tracking): called with the byte
          address after every stored word *)
}

val create : unit -> t

val read64 : t -> int64 -> int64
(** Unbacked addresses read as zero.
    @raise Invalid_argument on unaligned access. *)

val write64 : t -> int64 -> int64 -> unit
(** @raise Invalid_argument on unaligned access. *)

(** {1 Page-level word access}

    For loops that move many words within one 4 KB page: look the page
    up once, then access its bytes (8-byte words in native byte order,
    at {!page_offset}-relative offsets — see
    {!Sysreg_file.to_page}/{!Sysreg_file.of_page}). *)

val page_of : t -> int64 -> Bytes.t
(** The backed page holding [addr], or a zero-length [Bytes.t] when the
    page is unbacked (it reads as zero).  Creates nothing. *)

val page_for_store : t -> int64 -> Bytes.t
(** The page holding [addr], created (zeroed) if unbacked. *)

val page_offset : int64 -> int
(** Byte offset of [addr] within its page. *)

val unobserved : t -> bool
(** No write observer is attached: a raw store into a page's bytes is
    then exactly {!write64}.  When false, stores must go through
    {!write64} so the observer sees every word, in order. *)

val add_mmio_region : t -> start:int64 -> len:int64 -> name:string -> unit
(** Register a device region (left unmapped at stage 2 so accesses fault
    for emulation). *)

val mmio_region_of : t -> int64 -> string option
(** Name of the device region containing an address, if any. *)

val sorted_words : t -> (int64 * int64) list
(** Every backed, nonzero word in ascending address order — a canonical
    view of the contents (absent and stored-zero words read identically
    and are both omitted). *)

val iter_nonzero : t -> (int64 -> int64 -> unit) -> unit
(** Apply [f addr v] to every backed nonzero word, in no particular
    order (use {!sorted_words} for a canonical view). *)

val reset : t -> unit
(** Read exactly as a fresh {!create}: every backed page is zeroed in
    place (kept, so reuse allocates nothing), device regions and the
    write observer are dropped. *)

val clear : t -> unit
(** Drop all backed words (snapshot restore). *)

val zero_range : t -> start:int64 -> len:int64 -> unit
(** Zero an aligned range (page initialization).  Does not fire the
    write observer. *)
