(* Hardware system-register storage.

   A flat [Bytes.t] of unboxed 8-byte slots keyed by the dense
   {!Sysreg.index}, plus a dirty bitmap recording which registers have
   been written since reset.  Reads, writes and register-set copies are
   O(1) accesses — the hashed lookup this replaces was the dominant cost
   of every MSR/MRS on the simulator's hot path, and the bytes
   representation keeps stores free of int64 boxing and write barriers
   (an [int64 array] slot assignment pays both).

   Reset values are architectural where it matters (MPIDR/MIDR
   identification, CurrentEL is synthesized from PSTATE by the CPU,
   ICH_VTR advertises the number of list registers). *)

type t = { values : Bytes.t; dirty : Bytes.t }

let ich_vtr_reset =
  (* ListRegs field [4:0] = number of LRs - 1. *)
  Int64.of_int (Sysreg.lr_count - 1)

let reset_value (r : Sysreg.t) =
  match r with
  | MPIDR_EL1 -> 0x8000_0000L (* uniprocessor-format affinity, cpu 0 *)
  | MIDR_EL1 -> 0x410f_d070L  (* an ARM Ltd part number *)
  | CNTFRQ_EL0 -> 24_000_000L
  | ICH_VTR_EL2 -> ich_vtr_reset
  | _ -> 0L

(* Reset image shared by [create]/[reset]; never mutated. *)
let reset_values : Bytes.t =
  let b = Bytes.make (Sysreg.count * 8) '\000' in
  for i = 0 to Sysreg.count - 1 do
    Bytes.set_int64_ne b (i * 8) (reset_value (Sysreg.of_index i))
  done;
  b

let create () =
  { values = Bytes.copy reset_values; dirty = Bytes.make Sysreg.count '\000' }

(* Raw dense-index accessors (serialization, compiled copy loops).
   Unsafe unboxed accesses: every index comes from the dense
   {!Sysreg.index}, bounded by {!Sysreg.count} by construction. *)
external get_word : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_word : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] get_index t i = get_word t.values (i * 8)
let[@inline] set_index t i v = set_word t.values (i * 8) v

let[@inline] read t r = get_index t (Sysreg.index r)

let index_equals t i v = Int64.equal (get_index t i) v

(* Writability by dense index, so the software-write check reuses the
   index computed for the store instead of a second variant dispatch. *)
let writable : Bytes.t =
  Bytes.init Sysreg.count (fun i ->
      if Sysreg.read_only (Sysreg.of_index i) then '\000' else '\001')

let[@inline] write_index t i v =
  if Bytes.unsafe_get writable i = '\001' then begin
    set_index t i v;
    Bytes.unsafe_set t.dirty i '\001'
  end

let write t r v = write_index t (Sysreg.index r) v

(* Unchecked write, for hardware-internal updates (e.g. the CPU setting
   ESR_EL2 on exception entry, the GIC updating ICH_MISR). *)
let[@inline] hw_write_index t i v =
  set_index t i v;
  Bytes.unsafe_set t.dirty i '\001'

let hw_write t r v = hw_write_index t (Sysreg.index r) v

(* Page-resolved copy loops: word [k] moves between register [regs.(k)]
   and byte offset [offs.(k)] of a memory page's bytes (an
   {!Memory.page_of} page; zero-length when unbacked, reading as zero).
   Unboxed end to end. *)
let to_page t ~regs ~offs page =
  for k = 0 to Array.length regs - 1 do
    set_word page (Array.unsafe_get offs k) (get_index t (Array.unsafe_get regs k))
  done

let of_page t ~checked ~regs ~offs page =
  let n = Array.length regs in
  if Bytes.length page = 0 then
    for k = 0 to n - 1 do
      if checked then write_index t (Array.unsafe_get regs k) 0L
      else hw_write_index t (Array.unsafe_get regs k) 0L
    done
  else
    for k = 0 to n - 1 do
      let v = get_word page (Array.unsafe_get offs k) in
      if checked then write_index t (Array.unsafe_get regs k) v
      else hw_write_index t (Array.unsafe_get regs k) v
    done

let reset t =
  Bytes.blit reset_values 0 t.values 0 (Sysreg.count * 8);
  Bytes.fill t.dirty 0 Sysreg.count '\000'

(* Copy a register set between two files (used by world switches performed
   by the host hypervisor outside the measured guest). *)
let copy ~src ~dst regs =
  List.iter (fun r -> hw_write dst r (read src r)) regs

(* Same, over a precomputed dense-index array: the form the world-switch
   register lists compile to. *)
let copy_indices ~src ~dst (indices : int array) =
  for k = 0 to Array.length indices - 1 do
    let i = Array.unsafe_get indices k in
    set_index dst i (get_index src i);
    Bytes.unsafe_set dst.dirty i '\001'
  done

let dump t =
  Sysreg.all
  |> List.filter_map (fun r ->
      let i = Sysreg.index r in
      if Bytes.get t.dirty i = '\001' && get_index t i <> 0L then
        Some (r, get_index t i)
      else None)
