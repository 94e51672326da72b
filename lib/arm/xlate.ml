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
}

let create () =
  {
    dec_keys = Array.make decode_size (-1);
    dec_vals = Array.make decode_size (Encode.D_unknown 0);
  }

let decode_cache_size = decode_size

let decode t w =
  let slot = w land decode_mask in
  if Array.unsafe_get t.dec_keys slot = w then Array.unsafe_get t.dec_vals slot
  else begin
    let d = Encode.decode w in
    t.dec_keys.(slot) <- w;
    t.dec_vals.(slot) <- d;
    d
  end
