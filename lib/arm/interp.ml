(* Fetch-decode-execute over A64-encoded memory.

   Programs are stored as 32-bit words in simulated physical memory
   (packed two per 64-bit word); the interpreter fetches at PC, decodes
   (Encode.decode) and executes (Cpu.exec), with all the trap machinery
   applying.  This is what makes the binary-patching flavour of the
   paper's paravirtualization (Section 4) a real execution path: a guest
   hypervisor image can be patched word-for-word in memory and then run
   from memory.  Every instruction is fetched and decoded afresh, so
   patched code takes effect on the next fetch. *)

type outcome =
  | Halted of int64   (* fetched an unencodable word at this address,
                         or the PC itself was misaligned *)
  | Breakpoint        (* executed the halt marker *)
  | Limit             (* instruction budget exhausted *)
  | Stopped           (* the [stop] predicate fired *)

let outcome_to_string = function
  | Halted a -> Printf.sprintf "halted at 0x%Lx" a
  | Breakpoint -> "breakpoint"
  | Limit -> "limit"
  | Stopped -> "stopped"

let pp_outcome ppf o = Fmt.string ppf (outcome_to_string o)

(* --- program memory (two A64 words per 64-bit memory word) --- *)

let fetch32 mem addr =
  let word = Memory.read64 mem (Int64.logand addr (Int64.lognot 7L)) in
  let hi = Int64.logand addr 4L <> 0L in
  Int64.to_int
    (Int64.logand
       (if hi then Int64.shift_right_logical word 32 else word)
       0xffff_ffffL)

let store32 mem addr v =
  let base = Int64.logand addr (Int64.lognot 7L) in
  let word = Memory.read64 mem base in
  let v64 = Int64.logand (Int64.of_int v) 0xffff_ffffL in
  let word' =
    if Int64.logand addr 4L <> 0L then
      Int64.logor
        (Int64.logand word 0x0000_0000_ffff_ffffL)
        (Int64.shift_left v64 32)
    else Int64.logor (Int64.logand word 0xffff_ffff_0000_0000L) v64
  in
  Memory.write64 mem base word'

(* The halt marker: an architecturally-valid instruction a test program
   ends with ([hvc #0x3f] would be a real hypercall, so use a branch-to-
   self, the canonical "parking" instruction). *)
let halt_marker = Encode.encode (Insn.B 0)

(* Load an encoded program at [base] and append the halt marker.  Pairs
   of words that fill an aligned 64-bit memory word are stored with one
   write; a word sharing its memory word with untouched memory merges
   through [store32]. *)
let load mem ~base (words : int array) =
  let n = Array.length words + 1 in
  let word i = if i < n - 1 then words.(i) else halt_marker in
  let addr i = Int64.add base (Int64.of_int (i * 4)) in
  let i = ref 0 in
  while !i < n do
    let a = addr !i in
    if Int64.logand a 7L = 0L && !i + 1 < n then begin
      Memory.write64 mem a
        (Int64.logor
           (Int64.logand (Int64.of_int (word !i)) 0xffff_ffffL)
           (Int64.shift_left (Int64.of_int (word (!i + 1))) 32));
      i := !i + 2
    end
    else begin
      store32 mem a (word !i);
      incr i
    end
  done

(* Assemble a program (encode each instruction) and load it. *)
let load_program mem ~base insns =
  load mem ~base (Array.of_list (List.map Encode.encode insns))

(* A PC an instruction cannot be fetched from: A64 instructions are
   4-byte aligned.  [fetch32] would silently read the containing aligned
   word and run a skewed stream; the run loop turns this into a
   deterministic alignment halt instead. *)
let misaligned pc = Int64.logand pc 3L <> 0L

(* Run from [entry] until the halt marker, an unencodable word, a
   misaligned PC, or the instruction budget runs out.  [on_step] fires
   before each executed instruction — the fault injector's hook into
   straight-line guest code.  Any non-positive budget is already
   exhausted (a negative one must not run unbounded). *)
let run ?on_step ?(stop = fun _ -> false) (cpu : Cpu.t) ~entry ~max_insns =
  cpu.Cpu.pc <- entry;
  if !Trace.on then
    Trace.emit ~cycles:cpu.Cpu.meter.Cost.cycles ~tid:cpu.Cpu.meter.Cost.tid ~a0:entry
      ~a1:(Int64.of_int max_insns) Trace.Run_begin;
  let mem = cpu.Cpu.mem in
  let rec step budget =
    if stop cpu then Stopped
    else if budget <= 0 then Limit
    else
      let pc = cpu.Cpu.pc in
      if misaligned pc then Halted pc
      else
        let w = fetch32 mem pc in
        if w = halt_marker then Breakpoint
        else
          match Encode.decode w with
          | Encode.D_unknown _ -> Halted pc
          | Encode.D_insn insn ->
            (match on_step with Some f -> f cpu | None -> ());
            Cpu.exec cpu insn;
            step (budget - 1)
  in
  let outcome = step max_insns in
  if !Trace.on then
    Trace.emit ~cycles:cpu.Cpu.meter.Cost.cycles ~tid:cpu.Cpu.meter.Cost.tid ~a0:cpu.Cpu.pc
      ~detail:(outcome_to_string outcome) Trace.Run_end;
  outcome

(* Disassemble a range of memory, for debugging and the examples. *)
let disassemble mem ~base ~count =
  List.init count (fun i ->
      let addr = Int64.add base (Int64.of_int (i * 4)) in
      let w = fetch32 mem addr in
      let text =
        match Encode.decode w with
        | Encode.D_insn insn -> Insn.to_string insn
        | Encode.D_unknown w -> Printf.sprintf ".word 0x%08x" w
      in
      (addr, text))
