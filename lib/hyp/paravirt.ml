(* Paravirtualization of the guest hypervisor (Sections 4 and 6.4).

   ARMv8.0 hardware has no nested-virtualization support: hypervisor
   instructions executed at EL1 are UNDEFINED rather than trapping to EL2.
   The paper's methodology replaces each such instruction with one that
   behaves — and costs — the same as the *target* architecture would:

   - mimicking ARMv8.3: instructions that would trap are replaced with
     [hvc #op], whose 16-bit operand encodes the original instruction so
     the host hypervisor can emulate it (Section 4);
   - mimicking NEVE: VM-register accesses become loads/stores to a shared
     memory region, hypervisor-control accesses become accesses to the
     corresponding EL1 registers, and only the residual trapping accesses
     become [hvc] (Section 6.4).

   The rewriter does not guess: it asks the trap router what the target
   architecture would do with the instruction and translates the answer
   into ARMv8.0 instructions.  This is exactly why hardware and
   paravirtualized runs produce identical trap counts.

   Operand encoding (16 bits): bits [15:6] = form index + 1 (0 marks a real
   hypercall), bits [5:1] = Rt, bit [0] = direction (1 = read).
   Form index 0x3fe is reserved for eret. *)

module Sysreg = Arm.Sysreg
module Insn = Arm.Insn
module Trap_rules = Arm.Trap_rules

let eret_index = 0x3fe

(* All access forms a guest hypervisor can perform: every direct register
   access, the _EL12 aliases, and the _EL02 timer aliases. *)
let forms : Sysreg.access array =
  Array.of_list
    (List.map Sysreg.direct Sysreg.all
     @ List.map Sysreg.el12 Reglists.el12_capable
     @ List.map Sysreg.el02 Reglists.timer_el0_state)

(* domain-safety: allowlisted global — the closed-over table is fully
   populated at module load and read-only afterwards. *)
let form_index : Sysreg.access -> int =
  let tbl = Hashtbl.create 256 in
  Array.iteri (fun i a -> Hashtbl.replace tbl a i) forms;
  fun a ->
    match Hashtbl.find_opt tbl a with
    | Some i -> i
    | None ->
      (* Only the rewriter calls this, with forms it built itself — a
         miss is a simulator bug, not guest input. *)
      Fault.Error.sim_bug
        (Fault.Error.Unknown_access_form (Sysreg.access_name a))

let () = assert (Array.length forms < eret_index)

let encode_sysreg_op ~(access : Sysreg.access) ~rt ~is_read =
  ((form_index access + 1) lsl 6)
  lor ((rt land 0x1f) lsl 1)
  lor (if is_read then 1 else 0)

let encode_eret_op = (eret_index + 1) lsl 6

type op =
  | Op_hypercall of int           (* a real hypercall, operand < 64 *)
  | Op_sysreg of { access : Sysreg.access; rt : int; is_read : bool }
  | Op_eret
  | Op_invalid of int             (* outside the registry: guest gets UNDEF *)

(* Total: a guest can execute [hvc] with any operand it likes, so an
   out-of-registry index is guest input, not an error — the host injects
   UNDEF for [Op_invalid] exactly as ARMv8.3 hardware UNDEFs an
   instruction the paravirt registry would never have produced. *)
let decode_op operand =
  let idx = (operand lsr 6) land 0x3ff in
  if idx = 0 then Op_hypercall (operand land 0x3f)
  else if idx - 1 = eret_index then Op_eret
  else if idx - 1 < Array.length forms then
    Op_sysreg
      {
        access = forms.(idx - 1);
        rt = (operand lsr 1) land 0x1f;
        is_read = operand land 1 = 1;
      }
  else Op_invalid operand

let op_name = function
  | Op_hypercall n -> Printf.sprintf "hypercall#%d" n
  | Op_sysreg { access; rt; is_read } ->
    Printf.sprintf "%s %s x%d"
      (if is_read then "mrs" else "msr")
      (Sysreg.access_name access) rt
  | Op_eret -> "eret"
  | Op_invalid n -> Printf.sprintf "invalid#%d" n

(* [target_route] with the target's routing inputs (feature set, HCR
   view, VNCR) resolved once, for loops that route many instructions
   under one config. *)
let target_router (config : Config.t) ~page_base =
  let features = Config.target_features config in
  let hcr = Arm.Hcr.decode (Config.target_hcr config) in
  let vncr =
    if Config.is_neve config then Int64.logor page_base 1L else 0L
  in
  fun insn -> Trap_rules.route features ~hcr ~vncr ~el:Arm.Pstate.EL1 insn

(* What would the target architecture do with this instruction, executed at
   EL1 by the guest hypervisor?  [page_base] is the shared memory region
   standing in for the deferred access page. *)
let target_route config ~page_base insn = target_router config ~page_base insn

(* The value-carrying scratch register used when a write's operand is an
   immediate and must be materialized for the hvc protocol. *)
let value_reg = 10

(* The instruction is UNDEFINED on the target architecture: the rewriter
   cannot produce a mimicking sequence and the caller must deliver the
   UNDEF the target hardware would. *)
exception Would_undef of Insn.t

(* Rewrite one guest-hypervisor instruction into the ARMv8.0 instruction
   sequence that mimics the target architecture (Section 4's compile-time
   wrappers produce exactly these). *)
let rewrite (config : Config.t) ~page_base (insn : Insn.t) : Insn.t list =
  match target_route config ~page_base insn with
  (* [target_route] never grants OoH exposure (paravirt guests reach L0
     through the hvc protocol instead), but an exposed access would run
     unchanged just like [Execute]. *)
  | Trap_rules.Execute | Trap_rules.Execute_exposed _ -> [ insn ]
  | Trap_rules.Execute_redirected target -> begin
      match insn with
      | Insn.Mrs (rt, _) -> [ Insn.Mrs (rt, target) ]
      | Insn.Msr (_, v) -> [ Insn.Msr (target, v) ]
      | _ -> assert false
    end
  | Trap_rules.Defer_to_memory { addr; reg = _ } -> begin
      match insn with
      | Insn.Mrs (rt, _) -> [ Insn.Ldr (rt, Insn.Abs addr) ]
      | Insn.Msr (_, Insn.Reg rt) -> [ Insn.Str (rt, Insn.Abs addr) ]
      | Insn.Msr (_, Insn.Imm v) ->
        [ Insn.Mov (value_reg, Insn.Imm v);
          Insn.Str (value_reg, Insn.Abs addr) ]
      | _ -> assert false
    end
  | Trap_rules.Read_disguised v -> begin
      (* "reading the CurrentEL special register is paravirtualized to
         return EL2 as the current exception level" (Section 4) *)
      match insn with
      | Insn.Mrs (rt, _) -> [ Insn.Mov (rt, Insn.Imm v) ]
      | _ -> assert false
    end
  | Trap_rules.Trap_to_el2 { ec; _ } -> begin
      match (ec, insn) with
      | Arm.Exn.EC_eret, Insn.Eret -> [ Insn.Hvc encode_eret_op ]
      | Arm.Exn.EC_hvc64, Insn.Hvc imm -> [ Insn.Hvc imm ]
      | _, Insn.Mrs (rt, access) ->
        [ Insn.Hvc (encode_sysreg_op ~access ~rt ~is_read:true) ]
      | _, Insn.Msr (access, Insn.Reg rt) ->
        [ Insn.Hvc (encode_sysreg_op ~access ~rt ~is_read:false) ]
      | _, Insn.Msr (access, Insn.Imm v) ->
        [ Insn.Mov (value_reg, Insn.Imm v);
          Insn.Hvc (encode_sysreg_op ~access ~rt:value_reg ~is_read:false) ]
      | _, Insn.Wfi -> [ Insn.Hvc (encode_sysreg_op ~access:(Sysreg.direct Sysreg.CurrentEL) ~rt:0 ~is_read:true) ]
      | _ ->
        Fault.Error.sim_bug
          (Fault.Error.Unsupported_rewrite (Insn.to_string insn))
    end
  | Trap_rules.Undef ->
    (* UNDEFINED on the target architecture too: the caller injects the
       UNDEF the target hardware would deliver. *)
    raise (Would_undef insn)

(* --- binary patching (Section 4: "fully automated approach, for example
   by binary patching a guest hypervisor image") ---

   Word-for-word patching of an A64 text section.  Multi-word rewrites are
   impossible in place, so the binary patcher uses the convention that x28
   holds the shared-page base (set once at hypervisor entry), keeping every
   replacement a single word. *)

let page_base_reg = 28

let patch_word route ~page_base (w : int) : int =
  match Arm.Encode.decode w with
  | Arm.Encode.D_unknown _ -> w
  | Arm.Encode.D_insn insn -> begin
      match route insn with
      | Trap_rules.Execute | Trap_rules.Execute_exposed _ -> w
      | Trap_rules.Execute_redirected target -> begin
          match insn with
          | Insn.Mrs (rt, _) -> Arm.Encode.encode (Insn.Mrs (rt, target))
          | Insn.Msr (_, v) -> Arm.Encode.encode (Insn.Msr (target, v))
          | _ -> w
        end
      | Trap_rules.Defer_to_memory { addr; reg = _ } -> begin
          let off = Int64.sub addr page_base in
          match insn with
          | Insn.Mrs (rt, _) ->
            Arm.Encode.encode (Insn.Ldr (rt, Insn.Based (page_base_reg, off)))
          | Insn.Msr (_, Insn.Reg rt) ->
            Arm.Encode.encode (Insn.Str (rt, Insn.Based (page_base_reg, off)))
          | _ -> w
        end
      | Trap_rules.Read_disguised v -> begin
          match insn with
          | Insn.Mrs (rt, _) -> Arm.Encode.encode (Insn.Mov (rt, Insn.Imm v))
          | _ -> w
        end
      | Trap_rules.Trap_to_el2 { ec; _ } -> begin
          match (ec, insn) with
          | Arm.Exn.EC_eret, Insn.Eret ->
            Arm.Encode.encode (Insn.Hvc encode_eret_op)
          | _, Insn.Mrs (rt, access) ->
            Arm.Encode.encode
              (Insn.Hvc (encode_sysreg_op ~access ~rt ~is_read:true))
          | _, Insn.Msr (access, Insn.Reg rt) ->
            Arm.Encode.encode
              (Insn.Hvc (encode_sysreg_op ~access ~rt ~is_read:false))
          | _ -> w
        end
      | Trap_rules.Undef -> w
    end

let patch_text config ~page_base words =
  let route = target_router config ~page_base in
  let out = Array.map (patch_word route ~page_base) words in
  if !Trace.on then begin
    let changed = ref 0 in
    Array.iteri (fun i w -> if w <> out.(i) then incr changed) words;
    Trace.emit
      ~a0:(Int64.of_int !changed)
      ~a1:(Int64.of_int (Array.length words))
      ~detail:(Config.name config) Trace.Pv_patch
  end;
  out
