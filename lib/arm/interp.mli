(** Fetch-decode-execute over A64-encoded memory.

    Programs live as 32-bit words in simulated physical memory; the
    interpreter fetches at PC, decodes and executes through {!Cpu.exec},
    so all the trap machinery applies.  This makes the binary-patching
    flavour of the paper's paravirtualization (Section 4) a real
    execution path: patch a guest-hypervisor image word-for-word in
    memory ({!Hyp.Paravirt.patch_text}) and run it from memory.

    Every instruction is fetched and decoded afresh, so a patched word
    takes effect on its next fetch. *)

type outcome =
  | Halted of int64
      (** fetched an unencodable word at this address, or the PC itself
          was misaligned (A64 instructions are 4-byte aligned) *)
  | Breakpoint       (** reached the halt marker *)
  | Limit            (** instruction budget exhausted *)
  | Stopped          (** the [stop] predicate fired *)

val outcome_to_string : outcome -> string
val pp_outcome : Format.formatter -> outcome -> unit

val halt_marker : int
(** The parking instruction ([b .+0]) terminating loaded programs. *)

val fetch32 : Memory.t -> int64 -> int
(** Fetch the 32-bit instruction word at an address (words are packed
    two per 64-bit memory word). *)

val store32 : Memory.t -> int64 -> int -> unit

val load : Memory.t -> base:int64 -> int array -> unit
(** Store an encoded program and append the halt marker. *)

val load_program : Memory.t -> base:int64 -> Insn.t list -> unit
(** Assemble (encode) and load. *)

val run :
  ?on_step:(Cpu.t -> unit) ->
  ?stop:(Cpu.t -> bool) ->
  Cpu.t ->
  entry:int64 ->
  max_insns:int ->
  outcome
(** [on_step] fires before each executed instruction — the hook used by
    the fault injector to perturb straight-line guest code.  [stop] is
    checked before each instruction; when it returns [true] the run ends
    with {!Stopped} — the differential fuzzer's way of ending a program
    at a semantic boundary (leaving virtual EL2) rather than an
    address. *)

val disassemble : Memory.t -> base:int64 -> count:int -> (int64 * string) list
(** The address and text of [count] consecutive words from [base];
    a word that does not decode shows as [.word]. *)
