(* Per-CPU decode cache for the interpreter loop.

   A direct-mapped table keyed by the 32-bit instruction word itself, so
   a word patched at runtime (the paper's Section-4 binary-patching path,
   snapshot restore) is simply a different key: no invalidation is ever
   needed, because decode is a pure function of the word. *)

let decode_bits = 10
let decode_size = 1 lsl decode_bits
let decode_mask = decode_size - 1

type t = {
  (* the empty-slot sentinel is -1, which no fetched word can equal
     (fetches mask to 32 bits) *)
  dec_keys : int array;
  dec_vals : Encode.decoded array;
  (* slots filled since the last [reset], so emptying costs a write per
     filled slot rather than a sweep of the table *)
  filled : int array;
  mutable nfilled : int;
}

let empty = Encode.D_unknown 0

let create () =
  {
    dec_keys = Array.make decode_size (-1);
    dec_vals = Array.make decode_size empty;
    filled = Array.make decode_size 0;
    nfilled = 0;
  }

(* Empty the cache in place.  A reused machine's CPU calls this on
   reset: entries kept warm across runs live in an old table, so each
   new decoded word is promoted into the major heap and becomes garbage
   when evicted — with fuzz programs, whose words rarely repeat, that
   was most of what the major heap grew by. *)
let reset t =
  for k = 0 to t.nfilled - 1 do
    let slot = t.filled.(k) in
    t.dec_keys.(slot) <- -1;
    t.dec_vals.(slot) <- empty
  done;
  t.nfilled <- 0

let decode_cache_size = decode_size

let decode t w =
  let slot = w land decode_mask in
  if Array.unsafe_get t.dec_keys slot = w then Array.unsafe_get t.dec_vals slot
  else begin
    let d = Encode.decode w in
    if t.dec_keys.(slot) = -1 then begin
      t.filled.(t.nfilled) <- slot;
      t.nfilled <- t.nfilled + 1
    end;
    t.dec_keys.(slot) <- w;
    t.dec_vals.(slot) <- d;
    d
  end
