(* Sparse physical memory: 64-bit words addressed by byte address.

   Addresses must be 8-byte aligned; the simulator only performs aligned
   64-bit accesses (the deferred access page is defined in 8-byte slots).

   Representation: 4 KB pages of flat [Bytes.t] keyed by page index
   (byte address lsr 12) in an int-keyed hash table, with a small
   direct-mapped front cache of recently touched pages.  Loads and
   stores that hit the front cache never enter the hash table, so the
   interpreter's fetch/load/store path costs a bytes read plus a couple
   of integer compares instead of an int64-keyed hash lookup per access.
   Bytes pages hold their words unboxed and are opaque to the GC: a
   store is a plain 8-byte write with no int64 box allocation and no
   write barrier, and the collector never scans page contents. *)

let page_bytes = 4096
let page_words = page_bytes / 8
let cache_slots = 64

(* Distinguished empty page: physical equality marks an absent page in
   the front cache without an option allocation.
   domain-safety: allowlisted global — an immutable zero-length sentinel
   that is compared by identity and never written. *)
let no_page : Bytes.t = Bytes.create 0

type t = {
  pages : (int, Bytes.t) Hashtbl.t; (* page index -> 4096 bytes *)
  cache_idx : int array; (* direct-mapped front cache: page indices *)
  cache_pg : Bytes.t array; (* matching pages ([no_page] = empty) *)
  mutable mmio : (int64 * int64 * string) list;
      (* [start, start+len) regions with no backing store; accesses to them
         are what stage-2 leaves unmapped so they fault for emulation *)
  mutable on_write : (int64 -> unit) option;
      (* write observer (dirty-page tracking): called with the byte
         address after every stored word.  One option check on the store
         path when unused. *)
}

let create () =
  {
    pages = Hashtbl.create 64;
    cache_idx = Array.make cache_slots min_int;
    cache_pg = Array.make cache_slots no_page;
    mmio = [];
    on_write = None;
  }

(* Unsafe unboxed word accessors: every caller derives the offset from a
   masked page-relative index, so bounds hold by construction. *)
external get_word : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_word : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Cold path split out so [check_aligned] stays small enough to inline
   into every load/store. *)
let[@inline never] misaligned addr =
  invalid_arg (Printf.sprintf "Memory: unaligned access at 0x%Lx" addr)

let[@inline] check_aligned addr =
  if Int64.logand addr 7L <> 0L then misaligned addr

let[@inline] page_index addr = Int64.to_int (Int64.shift_right_logical addr 12)
let[@inline] byte_index addr = Int64.to_int addr land (page_bytes - 1)

(* Page lookup through the front cache; [no_page] on a miss.  Misses are
   not cached (a later store creating the page would have to invalidate). *)
let[@inline] find_page t pi =
  let slot = pi land (cache_slots - 1) in
  if Array.unsafe_get t.cache_idx slot = pi then Array.unsafe_get t.cache_pg slot
  else
    match Hashtbl.find_opt t.pages pi with
    | Some p ->
        Array.unsafe_set t.cache_idx slot pi;
        Array.unsafe_set t.cache_pg slot p;
        p
    | None -> no_page

let get_or_create_page t pi =
  let p = find_page t pi in
  if p != no_page then p
  else begin
    let p = Bytes.make page_bytes '\000' in
    Hashtbl.replace t.pages pi p;
    let slot = pi land (cache_slots - 1) in
    Array.unsafe_set t.cache_idx slot pi;
    Array.unsafe_set t.cache_pg slot p;
    p
  end

let read64 t addr =
  check_aligned addr;
  let p = find_page t (page_index addr) in
  if p == no_page then 0L else get_word p (byte_index addr)

let write64 t addr v =
  check_aligned addr;
  let p = get_or_create_page t (page_index addr) in
  set_word p (byte_index addr) v;
  match t.on_write with None -> () | Some f -> f addr

(* --- page-level word access ---

   For loops that move many words within one page (the host's
   world-switch context areas, the deferred access page): look the page
   up once, then read or write its bytes directly.  A direct store skips
   [write64]'s per-word observer call, so a loop may only store directly
   while [unobserved] holds; it must otherwise fall back to [write64]
   per word. *)

let page_of t addr = find_page t (page_index addr)

let page_for_store t addr = get_or_create_page t (page_index addr)

let page_offset addr = byte_index addr

let unobserved t = Option.is_none t.on_write

let add_mmio_region t ~start ~len ~name =
  t.mmio <- (start, Int64.add start len, name) :: t.mmio

let mmio_region_of t addr =
  List.find_map
    (fun (lo, hi, name) -> if addr >= lo && addr < hi then Some name else None)
    t.mmio

(* Back to a fresh memory's contents without giving up its pages: every
   backed page is zeroed in place (an absent word and a stored zero read
   identically, and [sorted_words] omits both), so a reused machine
   allocates no pages.  The device regions and the write observer go
   back to [create]'s none. *)
let reset t =
  Hashtbl.iter (fun _ p -> Bytes.fill p 0 page_bytes '\000') t.pages;
  t.mmio <- [];
  t.on_write <- None

let clear t =
  Hashtbl.reset t.pages;
  Array.fill t.cache_idx 0 cache_slots min_int;
  Array.fill t.cache_pg 0 cache_slots no_page

(* Every backed nonzero word, in no particular order. *)
let iter_nonzero t f =
  Hashtbl.iter
    (fun pi p ->
      let base = Int64.shift_left (Int64.of_int pi) 12 in
      for i = 0 to page_words - 1 do
        let v = get_word p (i * 8) in
        if v <> 0L then f (Int64.add base (Int64.of_int (i * 8))) v
      done)
    t.pages

(* Every backed, nonzero word in ascending address order.  A canonical
   view: an absent word and a stored zero read identically, so zeros are
   dropped — two memories with the same contents produce the same list
   regardless of allocation history. *)
let sorted_words t =
  let acc = ref [] in
  iter_nonzero t (fun addr v -> acc := (addr, v) :: !acc);
  List.sort (fun (a, _) (b, _) -> Int64.compare a b) !acc

(* Zero an aligned range (used to initialize deferred access pages).
   Unlike the word store, does not fire the write observer. *)
let zero_range t ~start ~len =
  check_aligned start;
  let words = Int64.to_int len / 8 in
  for i = 0 to words - 1 do
    let addr = Int64.add start (Int64.of_int (i * 8)) in
    let p = find_page t (page_index addr) in
    if p != no_page then set_word p (byte_index addr) 0L
  done
