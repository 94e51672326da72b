(* The simulated CPU: machine state plus the instruction-execution engine.

   Execution is synchronous: when an instruction traps to EL2, the hardware
   exception entry is performed and the installed EL2 handler (the host
   hypervisor) runs immediately; it finishes by executing eret at EL2, which
   restores the interrupted context, and the original [exec] call returns.
   This mirrors the trap-and-emulate flow without needing a scheduler. *)

exception Undefined_instruction of Insn.t * Pstate.el
exception No_el2_handler of Exn.entry

type t = {
  mutable pc : int64;
  regs : int64 array; (* x0..x30 *)
  mutable pstate : Pstate.t;
  sysregs : Sysreg_file.t;
  mem : Memory.t;
  mutable features : Features.t;
  meter : Cost.meter;
  mutable el2_handler : handler option;
  mutable el1_handler : handler option;
  (* When set, an UNDEFINED instruction below EL2 takes the architectural
     EL1 exception vector even with no simulated EL1 handler installed
     (the guest kernel is assumed to have vectors).  Bare CPUs keep the
     historical raise so unit tests can observe the Undef routing. *)
  mutable el1_vectors : bool;
  (* GPR snapshots taken on each EL2 exception entry: the hypervisor's own
     code runs on the same register file (as real KVM's EL2 code does), so
     trapped-access emulation reads and writes the *saved* guest registers,
     restored by the eret that ends the handler. *)
  mutable saved_regs : int64 array list;
  (* NV2 ablation mask (simulator-only knob): which of NEVE's three
     mechanisms are implemented by this "hardware". *)
  mutable nv2_mask : Trap_rules.nv2_mask;
  (* OoH exposure policy: the per-feature grant set L0 handed this
     guest hypervisor.  Granted facilities' vEL2 accesses route as
     [Execute_exposed] instead of trapping; set once by the machine
     builder and immutable for the life of the VM. *)
  mutable expose : Expose.Policy.t;
  (* Decoded-HCR cache: [Hcr.decode] allocates a 12-field record and runs
     on every executed instruction; HCR_EL2 changes only on world
     switches, so the view is reused while the raw value is unchanged. *)
  mutable hcr_raw : int64;
  mutable hcr_cached : Hcr.view;
}

and handler = t -> Exn.entry -> unit

(* Architectural and run state back to power-on: registers, PSTATE, the
   system-register file, the GPR snapshot stack, the routing knobs and
   the meter's counts.  What the CPU is wired to — memory, handlers, the
   feature set, the meter's table and lane — and the decoded HCR, which
   revalidates against HCR_EL2 on every read, stay. *)
let reset t =
  t.pc <- 0x8000_0000L;
  Array.fill t.regs 0 (Array.length t.regs) 0L;
  t.pstate <- Pstate.reset;
  Sysreg_file.reset t.sysregs;
  t.el1_vectors <- false;
  t.saved_regs <- [];
  t.nv2_mask <- Trap_rules.nv2_full;
  t.expose <- Expose.Policy.none;
  Cost.reset t.meter

let create ?(features = Features.v Features.V8_0) ?table ?mem () =
  let mem = match mem with Some m -> m | None -> Memory.create () in
  let t =
    {
      pc = 0L;
      regs = Array.make 31 0L;
      pstate = Pstate.reset;
      sysregs = Sysreg_file.create ();
      mem;
      features;
      meter = Cost.make_meter ?table ();
      el2_handler = None;
      el1_handler = None;
      el1_vectors = false;
      saved_regs = [];
      nv2_mask = Trap_rules.nv2_full;
      expose = Expose.Policy.none;
      hcr_raw = 0L;
      hcr_cached = Hcr.decode 0L;
    }
  in
  reset t;
  t

let get_reg t n =
  if n < 0 || n > 30 then invalid_arg "Cpu.get_reg";
  t.regs.(n)

let set_reg t n v =
  if n < 0 || n > 30 then invalid_arg "Cpu.set_reg";
  t.regs.(n) <- v

let operand_value t = function
  | Insn.Imm i -> i
  | Insn.Reg n -> get_reg t n

let addr_value t = function
  | Insn.Abs a -> a
  | Insn.Based (r, off) -> Int64.add (get_reg t r) off

let hcr_view t =
  let raw = Sysreg_file.read t.sysregs Sysreg.HCR_EL2 in
  if raw <> t.hcr_raw then begin
    t.hcr_raw <- raw;
    t.hcr_cached <- Hcr.decode raw
  end;
  t.hcr_cached

let vncr_value t = Sysreg_file.read t.sysregs Sysreg.VNCR_EL2

let table t = t.meter.Cost.table

(* Raw register-file access for hardware-internal updates and for inspecting
   state from tests; does not model an instruction and costs nothing. *)
let peek_sysreg t r = Sysreg_file.read t.sysregs r
let poke_sysreg t r v = Sysreg_file.hw_write t.sysregs r v

(* --- exception entry and return --- *)

let exception_entry t (e : Exn.entry) =
  let c = table t in
  match e.target with
  | Pstate.EL2 ->
    Sysreg_file.hw_write t.sysregs Sysreg.ESR_EL2 (Exn.esr ~ec:e.ec ~iss:e.iss);
    Sysreg_file.hw_write t.sysregs Sysreg.ELR_EL2 t.pc;
    Sysreg_file.hw_write t.sysregs Sysreg.SPSR_EL2 (Pstate.to_spsr t.pstate);
    (match e.fault_addr with
     | Some a ->
       Sysreg_file.hw_write t.sysregs Sysreg.FAR_EL2 a;
       Sysreg_file.hw_write t.sysregs Sysreg.HPFAR_EL2
         (Int64.shift_right_logical a 8)
     | None -> ());
    t.pstate <- Pstate.at Pstate.EL2;
    t.saved_regs <- Array.copy t.regs :: t.saved_regs;
    Cost.charge t.meter c.Cost.trap_entry;
    if !Trace.on then
      Trace.emit ~cycles:t.meter.Cost.cycles ~tid:t.meter.Cost.tid
        ~a0:(Int64.of_int (Exn.ec_code e.ec))
        ~a1:(Int64.of_int e.iss) ~detail:(Exn.entry_label e) Trace.Exn_entry;
    (match t.el2_handler with
     | Some h -> h t e
     | None -> raise (No_el2_handler e))
  | Pstate.EL1 ->
    Sysreg_file.hw_write t.sysregs Sysreg.ESR_EL1 (Exn.esr ~ec:e.ec ~iss:e.iss);
    Sysreg_file.hw_write t.sysregs Sysreg.ELR_EL1 t.pc;
    Sysreg_file.hw_write t.sysregs Sysreg.SPSR_EL1 (Pstate.to_spsr t.pstate);
    (match e.fault_addr with
     | Some a -> Sysreg_file.hw_write t.sysregs Sysreg.FAR_EL1 a
     | None -> ());
    t.pstate <- Pstate.at Pstate.EL1;
    Cost.charge t.meter c.Cost.exc_entry_el1;
    if !Trace.on then
      Trace.emit ~cycles:t.meter.Cost.cycles ~tid:t.meter.Cost.tid
        ~a0:(Int64.of_int (Exn.ec_code e.ec))
        ~a1:(Int64.of_int e.iss) ~detail:(Exn.entry_label e) Trace.Exn_entry;
    (match t.el1_handler with
     | Some h -> h t e
     | None -> ())
  | Pstate.EL0 -> invalid_arg "Cpu.exception_entry: EL0 cannot take exceptions"

(* Architectural eret at the current EL. *)
let do_eret t =
  let c = table t in
  let spsr, elr =
    match t.pstate.Pstate.el with
    | Pstate.EL2 ->
      (match t.saved_regs with
       | saved :: rest ->
         Array.blit saved 0 t.regs 0 (Array.length saved);
         t.saved_regs <- rest
       | [] -> ());
      ( Sysreg_file.read t.sysregs Sysreg.SPSR_EL2,
        Sysreg_file.read t.sysregs Sysreg.ELR_EL2 )
    | Pstate.EL1 ->
      ( Sysreg_file.read t.sysregs Sysreg.SPSR_EL1,
        Sysreg_file.read t.sysregs Sysreg.ELR_EL1 )
    | Pstate.EL0 -> invalid_arg "Cpu.do_eret at EL0"
  in
  (match Pstate.of_spsr_opt spsr with
   | Some p -> t.pstate <- p
   | None ->
     (* Illegal exception return: hardware sets PSTATE.IL and stays at
        the current EL rather than switching into a nonsense mode.  The
        invariant checker reports the corrupt SPSR; execution continues
        at ELR so the simulation stays alive. *)
     ());
  t.pc <- elr;
  Cost.charge t.meter c.Cost.trap_return;
  if !Trace.on then
    Trace.emit ~cycles:t.meter.Cost.cycles ~tid:t.meter.Cost.tid ~a0:elr
      ~detail:(Pstate.el_name t.pstate.Pstate.el) Trace.Exn_return

(* --- system-register read/write with side effects --- *)

let read_sysreg_hw t (r : Sysreg.t) =
  match r with
  | Sysreg.CurrentEL -> Pstate.currentel_bits t.pstate.Pstate.el
  | Sysreg.CNTVCT_EL0 ->
    (* virtual count = a function of cycles consumed, offset by CNTVOFF *)
    Int64.sub
      (Int64.of_int t.meter.Cost.cycles)
      (Sysreg_file.read t.sysregs Sysreg.CNTVOFF_EL2)
  | _ -> Sysreg_file.read t.sysregs r

let write_sysreg_hw t r v = Sysreg_file.write t.sysregs r v

(* --- the execution engine --- *)

let advance_pc t = t.pc <- Int64.add t.pc 4L

(* Scratch register used for normalized immediate MSRs and the mrs/msr
   helpers below. *)
let scratch_reg = 9

let exec_local t (insn : Insn.t) =
  let c = table t in
  (match insn with
   | Insn.Mrs (rt, a) ->
     set_reg t rt (read_sysreg_hw t a.Sysreg.reg);
     Cost.charge_insn t.meter c.Cost.sysreg_read
   | Insn.Msr (a, v) ->
     write_sysreg_hw t a.Sysreg.reg (operand_value t v);
     Cost.charge_insn t.meter c.Cost.sysreg_write
   | Insn.Ldr (rt, a) ->
     set_reg t rt (Memory.read64 t.mem (addr_value t a));
     t.meter.Cost.mem_accesses <- t.meter.Cost.mem_accesses + 1;
     Cost.charge_insn t.meter c.Cost.mem_load
   | Insn.Str (rt, a) ->
     Memory.write64 t.mem (addr_value t a) (get_reg t rt);
     t.meter.Cost.mem_accesses <- t.meter.Cost.mem_accesses + 1;
     Cost.charge_insn t.meter c.Cost.mem_store
   | Insn.Mov (rd, v) ->
     set_reg t rd (operand_value t v);
     Cost.charge_insn t.meter c.Cost.insn_base
   | Insn.Add (rd, rn, v) ->
     set_reg t rd (Int64.add (get_reg t rn) (operand_value t v));
     Cost.charge_insn t.meter c.Cost.insn_base
   | Insn.Sub (rd, rn, v) ->
     set_reg t rd (Int64.sub (get_reg t rn) (operand_value t v));
     Cost.charge_insn t.meter c.Cost.insn_base
   | Insn.And (rd, rn, v) ->
     set_reg t rd (Int64.logand (get_reg t rn) (operand_value t v));
     Cost.charge_insn t.meter c.Cost.insn_base
   | Insn.Orr (rd, rn, v) ->
     set_reg t rd (Int64.logor (get_reg t rn) (operand_value t v));
     Cost.charge_insn t.meter c.Cost.insn_base
   | Insn.Eor (rd, rn, v) ->
     set_reg t rd (Int64.logxor (get_reg t rn) (operand_value t v));
     Cost.charge_insn t.meter c.Cost.insn_base
   | Insn.Lsl (rd, rn, s) ->
     set_reg t rd (Int64.shift_left (get_reg t rn) s);
     Cost.charge_insn t.meter c.Cost.insn_base
   | Insn.Lsr (rd, rn, s) ->
     set_reg t rd (Int64.shift_right_logical (get_reg t rn) s);
     Cost.charge_insn t.meter c.Cost.insn_base
   | Insn.Isb | Insn.Dsb -> Cost.charge_insn t.meter c.Cost.barrier
   | Insn.Tlbi_vmalls12e1 | Insn.Tlbi_alle2 ->
     Cost.charge_insn t.meter c.Cost.tlbi
   | Insn.Wfi -> Cost.charge_insn t.meter c.Cost.insn_base
   | Insn.Nop -> Cost.charge_insn t.meter c.Cost.insn_base
   | Insn.Eret -> do_eret t
   | Insn.Svc imm ->
     (* exception to EL1 *)
     Cost.charge_insn t.meter c.Cost.insn_base;
     exception_entry t
       { target = Pstate.EL1; ec = Exn.EC_svc64; iss = imm land 0xffff;
         fault_addr = None }
   | Insn.B off ->
     Cost.charge_insn t.meter c.Cost.insn_base;
     t.pc <- Int64.add t.pc (Int64.of_int (off * 4))
   | Insn.Cbz (rt, off) ->
     Cost.charge_insn t.meter c.Cost.insn_base;
     if get_reg t rt = 0L then t.pc <- Int64.add t.pc (Int64.of_int (off * 4))
     else advance_pc t
   | Insn.Cbnz (rt, off) ->
     Cost.charge_insn t.meter c.Cost.insn_base;
     if get_reg t rt <> 0L then
       t.pc <- Int64.add t.pc (Int64.of_int (off * 4))
     else advance_pc t
   | Insn.Hvc _ | Insn.Smc _ ->
     (* only reached when the router said Execute, i.e. SMC at EL2 *)
     Cost.charge_insn t.meter c.Cost.insn_base);
  match insn with
  | Insn.Eret | Insn.B _ | Insn.Cbz _ | Insn.Cbnz _ -> ()
  | _ -> advance_pc t

let rec exec t (insn : Insn.t) =
  match insn with
  | Insn.Ldr _ | Insn.Str _ | Insn.Mov _ | Insn.Add _ | Insn.Sub _
  | Insn.And _ | Insn.Orr _ | Insn.Eor _ | Insn.Lsl _ | Insn.Lsr _
  | Insn.Isb | Insn.Dsb | Insn.Tlbi_vmalls12e1 | Insn.Tlbi_alle2 | Insn.Nop
  | Insn.B _ | Insn.Cbz _ | Insn.Cbnz _ | Insn.Svc _ ->
    (* The router returns Execute for these unconditionally (no HCR, EL or
       feature sensitivity — see the final arm of [Trap_rules.route]), so
       skip the route and the HCR/VNCR reads it needs. *)
    exec_local t insn
  | _ -> exec_routed t insn

and exec_routed t (insn : Insn.t) =
  (* Route once per instruction; the only re-route is the immediate-MSR
     normalization below, which must re-route because the synthesized Reg
     form carries a different Rt in the trap syndrome. *)
  let action =
    Trap_rules.route ~mask:t.nv2_mask ~expose:t.expose t.features
      ~hcr:(hcr_view t) ~vncr:(vncr_value t) ~el:t.pstate.Pstate.el insn
  in
  match insn with
  | Insn.Msr (access, Insn.Imm v) when action <> Trap_rules.Execute ->
    (* Normalize: an immediate can only reach a system register through a
       general register, and a trapped access must carry its Rt in the
       syndrome.  Model "mov x9, #v; msr reg, x9". *)
    let c = table t in
    set_reg t scratch_reg v;
    Cost.charge_insn t.meter c.Cost.insn_base;
    exec t (Insn.Msr (access, Insn.Reg scratch_reg))
  | _ -> exec_action t insn action

and exec_action t (insn : Insn.t) action =
  let c = table t in
  match (action : Trap_rules.action) with
  | Trap_rules.Execute -> exec_local t insn
  | Trap_rules.Execute_exposed { feature } ->
    (* OoH: the access runs against the real register at its ordinary
       execute cost; only the saved exit is attributed. *)
    let detail =
      if t.meter.Cost.logging || !Trace.on then Insn.to_string insn else ""
    in
    Cost.record_exposed ~detail t.meter feature;
    exec_local t insn
  | Trap_rules.Execute_redirected target -> begin
      match insn with
      | Insn.Mrs (rt, _) -> exec_local t (Insn.Mrs (rt, target))
      | Insn.Msr (_, v) -> exec_local t (Insn.Msr (target, v))
      | _ -> assert false
    end
  | Trap_rules.Defer_to_memory { addr; reg = _ } -> begin
      (* NV2 transforms the register access into a 64-bit memory access to
         the deferred access page (Section 6.1). *)
      match insn with
      | Insn.Mrs (rt, _) ->
        set_reg t rt (Memory.read64 t.mem addr);
        t.meter.Cost.mem_accesses <- t.meter.Cost.mem_accesses + 1;
        Cost.charge_insn t.meter c.Cost.mem_load;
        if !Trace.on then
          Trace.emit ~cycles:t.meter.Cost.cycles ~tid:t.meter.Cost.tid ~a0:addr ~detail:"read"
            Trace.Vncr_redirect;
        advance_pc t
      | Insn.Msr (_, v) ->
        Memory.write64 t.mem addr (operand_value t v);
        t.meter.Cost.mem_accesses <- t.meter.Cost.mem_accesses + 1;
        Cost.charge_insn t.meter c.Cost.mem_store;
        if !Trace.on then
          Trace.emit ~cycles:t.meter.Cost.cycles ~tid:t.meter.Cost.tid ~a0:addr ~detail:"write"
            Trace.Vncr_redirect;
        advance_pc t
      | _ -> assert false
    end
  | Trap_rules.Read_disguised v -> begin
      match insn with
      | Insn.Mrs (rt, _) ->
        set_reg t rt v;
        Cost.charge_insn t.meter c.Cost.sysreg_read;
        advance_pc t
      | _ -> assert false
    end
  | Trap_rules.Trap_to_el2 { ec; iss; kind } ->
    (* The detail string is only observable through the trap log and the
       tracer; don't pay for rendering the instruction otherwise. *)
    let detail =
      if t.meter.Cost.logging || !Trace.on then Insn.to_string insn else ""
    in
    Cost.record_trap ~detail t.meter kind;
    advance_pc t;
    (* ELR on a trapped instruction points at the *next* instruction once
       the handler has emulated it; we advance first so the handler's eret
       resumes after the trapping instruction. *)
    exception_entry t { target = Pstate.EL2; ec; iss; fault_addr = None }
  | Trap_rules.Undef ->
    if
      t.pstate.Pstate.el <> Pstate.EL2
      && (t.el1_vectors || t.el1_handler <> None)
    then begin
      advance_pc t;
      exception_entry t
        { target = Pstate.EL1; ec = Exn.EC_unknown; iss = 0; fault_addr = None }
    end
    else raise (Undefined_instruction (insn, t.pstate.Pstate.el))

let exec_seq t insns = List.iter (exec t) insns

(* A physical interrupt arrives while the CPU runs below EL2 with IMO set:
   route to EL2 (the host hypervisor). *)
let deliver_irq t =
  let c = table t in
  let hcr = hcr_view t in
  if t.pstate.Pstate.el <> Pstate.EL2 && hcr.Hcr.h_imo then begin
    Cost.record_trap ~detail:"irq" t.meter Cost.Trap_irq;
    Cost.charge t.meter c.Cost.irq_delivery;
    exception_entry t
      { target = Pstate.EL2; ec = Exn.EC_irq; iss = 0; fault_addr = None };
    true
  end
  else false

(* --- FEAT_RAS virtual SError ---

   The pending state is purely architectural: HCR_EL2.VSE is the pending
   bit, VSESR_EL2 the syndrome it will deliver.  Both live in the
   register file, so a snapshot taken between pend and delivery carries
   the error with it bit-for-bit. *)

let pend_vserror t ~syndrome =
  Sysreg_file.hw_write t.sysregs Sysreg.VSESR_EL2 syndrome;
  Sysreg_file.hw_write t.sysregs Sysreg.HCR_EL2
    (Hcr.set (Sysreg_file.read t.sysregs Sysreg.HCR_EL2) Hcr.vse);
  if !Trace.on then
    Trace.emit ~cycles:t.meter.Cost.cycles ~tid:t.meter.Cost.tid ~a0:syndrome
      ~detail:"vse-pend" Trace.Serror_pend

let vserror_pending t = (hcr_view t).Hcr.h_vse

(* A pending virtual SError is taken as soon as the CPU runs below EL2:
   clear VSE, latch the syndrome into VDISR_EL2 (valid bit 31, as ESB
   would), and take the EC 0x2f exception at EL1. *)
let deliver_vserror t =
  let c = table t in
  let hcr = hcr_view t in
  if t.pstate.Pstate.el <> Pstate.EL2 && hcr.Hcr.h_vse then begin
    let vsesr = Sysreg_file.read t.sysregs Sysreg.VSESR_EL2 in
    let iss = Int64.to_int (Int64.logand vsesr 0x1ff_ffffL) in
    Sysreg_file.hw_write t.sysregs Sysreg.HCR_EL2
      (Hcr.clear_bit (Sysreg_file.read t.sysregs Sysreg.HCR_EL2) Hcr.vse);
    Sysreg_file.hw_write t.sysregs Sysreg.VDISR_EL2
      (Int64.logor 0x8000_0000L vsesr);
    Cost.charge t.meter c.Cost.serror_delivery;
    if !Trace.on then
      Trace.emit ~cycles:t.meter.Cost.cycles ~tid:t.meter.Cost.tid ~a0:vsesr
        ~detail:"vserror->EL1" Trace.Serror_deliver;
    exception_entry t
      { target = Pstate.EL1; ec = Exn.EC_serror; iss; fault_addr = None };
    true
  end
  else false

(* Convenience accessors used by hypervisor code: execute a real MRS/MSR on
   the simulated CPU (so it is costed and routed) and move data in/out. *)

let mrs t access =
  exec t (Insn.Mrs (scratch_reg, access));
  get_reg t scratch_reg

let msr t access v = exec t (Insn.Msr (access, Insn.Imm v))

(* Access the guest registers as they were at the current trap (and as
   they will be restored by the handler's eret).  Register numbers
   outside x0..x30 decode as xzr — trap syndromes carry a 5-bit Rt, and
   Rt=31 from a guest-built encoding must read zero, not crash. *)
let get_trapped_reg t n =
  if n < 0 || n > 30 then 0L
  else
    match t.saved_regs with
    | saved :: _ -> saved.(n)
    | [] -> get_reg t n

let set_trapped_reg t n v =
  if n < 0 || n > 30 then ()
  else
    match t.saved_regs with
    | saved :: _ -> saved.(n) <- v
    | [] -> set_reg t n v

let pp_state ppf t =
  Fmt.pf ppf "pc=0x%Lx pstate=%a %a" t.pc Pstate.pp t.pstate Hcr.pp
    (hcr_view t)
