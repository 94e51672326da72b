(* The host hypervisor (L0): a KVM/ARM-shaped hypervisor owning EL2.

   It multiplexes one virtual EL1 context and one virtual EL2 context per
   vCPU onto the hardware (Section 4): when the guest hypervisor runs, the
   hardware EL1 registers hold its virtual-EL2 execution mapping; when the
   guest hypervisor erets into its nested VM, the host loads the nested
   VM's EL1 state into hardware.  Every trap from EL1 lands in [handler],
   which performs the full non-VHE KVM exit path (save guest EL1 state,
   restore host state, dispatch, reverse) — the reason each trap costs
   thousands of cycles and the exit-multiplication problem hurts so much.

   NEVE changes only the boundaries: the host populates the deferred
   access page before running the guest hypervisor and drains it on the
   trapped eret; the trap handler itself sees six times fewer traps. *)

module Sysreg = Arm.Sysreg
module Cpu = Arm.Cpu
module Insn = Arm.Insn
module Exn = Arm.Exn
module Hcr = Arm.Hcr
module Memory = Arm.Memory
module Sysreg_file = Arm.Sysreg_file
module WS = World_switch

let src = Logs.Src.create "neve.host" ~doc:"host hypervisor (L0)"

module Log = (val Logs.src_log src : Logs.LOG)

(* [Log.debug] is handed a closure built before the level check; the
   per-trap paths check first, so they allocate nothing with logging
   off. *)
let debug_on () =
  match Logs.Src.level src with Some Logs.Debug -> true | _ -> false

type scenario = Single_vm | Nested

(* --- the compiled l0 exit path ---

   Every trap runs the full non-VHE exit path at EL2: save the
   interrupted EL1/EL0 state to the stash, restore the host's EL1 world,
   clear the trap controls; on the way out, the reverse.  Interpreted,
   each of those ~80 register moves and 9 trap-control writes is a routed
   MRS/MSR through [Cpu.exec] (an [Insn.t], a route, boxed values).  At
   EL2 a [Direct] access routes only to [Execute] or
   [Execute_redirected] — a function of the HCR value and the feature
   set — so a plan resolves every register's MRS and MSR route once per
   (raw HCR, features) pair into dense-index tables, and the copy loops
   into (register, page offset) arrays over the context page.  Replay is
   exact against the interpreted path: the same register-file and memory
   writes in the same order, the same meter charges, the same copy
   counter, the same PC and scratch-register end state.  Each single
   write (trap controls, nested-exit loads) looks the plan up under the
   HCR value it actually sees, so the first write of [activate_traps]
   (HCR itself) switches plans for the writes after it. *)

(* A compiled copy loop between the register file and one context area
   (which sits in one page): copy [k] reads (save) or writes (restore)
   register [ll_regs.(k)], route applied, at byte [ll_offs.(k)] of the
   page.  [ll_norms] counts restore copies whose MSR the interpreted path
   normalizes to "mov x9, #v; msr" (route not plain [Execute]): one extra
   instruction and insn_base charge each. *)
type l0_loop = {
  ll_ctx : int64;
  ll_regs : int array;
  ll_offs : int array;
  ll_norms : int;
}

type l0_plan = {
  lp_hcr : int64;             (* raw HCR_EL2 the routes were resolved under *)
  lp_feats : Arm.Features.t;  (* physical identity: swapped on ablation *)
  lp_view : Hcr.view;         (* [lp_hcr] decoded, for resolving routes *)
  lp_rd : int array;
      (* MRS of register i at EL2 reads register [lp_rd.(i)]; -1 when a
         plain register-file read would be wrong (CurrentEL, CNTVCT) *)
  lp_wr : int array;
      (* MSR #imm to register i at EL2 writes register
         [lp_wr.(i) lsr 1], normalized when bit 0 is set; -1 when the
         route is not replayable.  Both tables fill lazily. *)
  lp_save_el1 : l0_loop;   (* guest EL1 state -> guest_stash *)
  lp_save_el0 : l0_loop;   (* guest EL0 state -> guest_stash *)
  lp_rest_host : l0_loop;  (* l0_ctx -> host EL1 state *)
  lp_rest_el1 : l0_loop;   (* guest_stash -> guest EL1 state *)
  lp_rest_el0 : l0_loop;   (* guest_stash -> guest EL0 state *)
}

(* "No plan": physical equality marks a failed lookup without an option
   allocation; its feature record is fresh, so it never validates. *)
let no_loop = { ll_ctx = 0L; ll_regs = [||]; ll_offs = [||]; ll_norms = 0 }

let no_plan =
  { lp_hcr = 0L; lp_feats = Arm.Features.v Arm.Features.V8_0;
    lp_view = Hcr.decode 0L; lp_rd = [||];
    lp_wr = [||]; lp_save_el1 = no_loop; lp_save_el0 = no_loop;
    lp_rest_host = no_loop; lp_rest_el1 = no_loop; lp_rest_el0 = no_loop }

type t = {
  cpu : Cpu.t;
  config : Config.t;
  scenario : scenario;
  (* OoH selective exposure: the per-feature grant set L0 handed this
     guest hypervisor at machine creation (the fourth mechanism).  The
     routing grant [Cpu.t.expose] is armed only while the guest
     hypervisor is in virtual EL2 — see [expose_install]/[expose_fold]. *)
  expose : Expose.Policy.t;
  vcpu : Vcpu.t;
  page : Core.Deferred_page.t;
  l0_ctx : int64;          (* the host's own saved EL1 context *)
  guest_stash : int64;     (* where l0_enter parks the guest's EL1 state *)
  mutable shadow_vttbr : int64;
  mutable on_vel2_entry : (Vcpu.nested_exit -> unit) option;
  mutable in_l1 : bool;
  mutable exits : int;
  mutable undef_injected : int;  (* UNDEFs delivered into the guest *)
  (* FEAT_RAS containment: syndrome of a physical SError the host absorbed
     and must re-inject into the guest as a virtual SError.  The field
     (not the transient HCR_EL2.VSE bit, which world switches rewrite) is
     the source of truth between containment and delivery — the same
     vcpu-flag pattern KVM's kvm_inject_vabt uses. *)
  mutable pending_vserror : int64 option;
  mutable serror_contained : int;  (* physical SErrors absorbed by L0 *)
  mutable serror_injected : int;   (* virtual SErrors delivered to the guest *)
  mutable send_ipi : (target:int -> intid:int -> unit) option;
  mutable pending_irq : int option;  (* payload for the next EC_irq *)
  (* shadow stage-2 translation (Section 4, memory virtualization):
     guest stage-2 x host stage-2 collapsed into the hardware tables *)
  mutable shadow : (Mmu.Shadow.t * Mmu.Stage2.t * Mmu.Stage2.t) option;
  (* recursive virtualization (Section 6.2): the nested VM is itself a
     hypervisor; run it with the NV bits armed and forward its hypervisor
     instructions to the guest hypervisor *)
  mutable l2_is_hyp : bool;
  (* the machine-physical VNCR value to program while the L2 hypervisor
     runs: L1's virtual VNCR with its BADDR translated through the
     stage-2 tables (the Section 6.2 workflow) *)
  mutable l2_vncr : int64 option;
  (* compiled l0 exit-path plans, one per (HCR, features) seen; the
     list stays tiny (the guest-entry HCR values plus the all-clear host
     value).  [l0_cur] is the one used last. *)
  mutable l0_plans : l0_plan list;
  mutable l0_cur : l0_plan;
  (* per-host values fixed by the configuration and the grant *)
  nested_hcr : int64;  (* see [hcr_for] *)
  exposed : int array;  (* dense indices of the granted registers *)
  drain_slots : Core.Deferred_page.slots;
      (* deferred-page slots the NEVE drain writes back (see [neve_drain]) *)
}

let table t = Cpu.table t.cpu

(* HCR_EL2 value in hardware while guest code runs at EL1. *)
let basic_hcr = Hcr.(List.fold_left set 0L [ vm; imo; fmo; tsc; twi ])

(* HCR_EL2 value while a guest hypervisor runs at EL1. *)
let nested_hcr config =
  if Config.is_paravirt config then basic_hcr else Config.target_hcr config

(* [vel2]: the guest hypervisor runs.  Otherwise the nested VM does, and
   when it is itself a hypervisor it runs with the same nesting support
   the guest hypervisor gets ("the host hypervisor emulates the same
   virtual execution environment as the underlying machine including the
   ... nesting support", Section 6.2). *)
let hcr_for t ~vel2 = if vel2 || t.l2_is_hyp then t.nested_hcr else basic_hcr

(* World-switch operations executed by the host at EL2 (never trap): the
   interpreted path, taken when no plan validates. *)
let l0_ops t : WS.ops =
  {
    WS.rd = (fun a -> Cpu.mrs t.cpu a);
    wr = (fun a v -> Cpu.msr t.cpu a v);
    ld =
      (fun addr ->
        Cpu.exec t.cpu (Insn.Ldr (Cpu.scratch_reg, Insn.Abs addr));
        Cpu.get_reg t.cpu Cpu.scratch_reg);
    st =
      (fun addr v ->
        Cpu.set_reg t.cpu Cpu.scratch_reg v;
        Cpu.exec t.cpu (Insn.Str (Cpu.scratch_reg, Insn.Abs addr)));
  }

(* --- compiling and finding plans --- *)

(* Registers whose hardware read is not a plain register-file load; a
   replay charging costs in aggregate would read them at the wrong
   mid-loop cycle count.  None appears in the world-switch lists, but
   the compiler refuses rather than assumes. *)
let hw_special (r : Sysreg.t) =
  match r with Sysreg.CurrentEL | Sysreg.CNTVCT_EL0 -> true | _ -> false

let hcr_i = Sysreg.index Sysreg.HCR_EL2

(* Route tables start unresolved; each entry is resolved on first use,
   so a plan costs only the routes its host actually replays. *)
let unresolved = -2

let route_el2 t view insn =
  let cpu = t.cpu in
  Arm.Trap_rules.route ~mask:cpu.Cpu.nv2_mask cpu.Cpu.features ~hcr:view
    ~vncr:(Cpu.vncr_value cpu) ~el:Arm.Pstate.EL2 insn

(* Entry [i] of an MRS table: the register an MRS of register i reads. *)
let rd_route t view (tbl : int array) i =
  let code = Array.unsafe_get tbl i in
  if code <> unresolved then code
  else begin
    let r = Sysreg.of_index i in
    let readable r = if hw_special r then -1 else Sysreg.index r in
    let code =
      match route_el2 t view (Insn.Mrs (Cpu.scratch_reg, Sysreg.direct r)) with
      | Arm.Trap_rules.Execute -> readable r
      | Arm.Trap_rules.Execute_redirected a -> readable a.Sysreg.reg
      | _ -> -1
    in
    tbl.(i) <- code;
    code
  end

(* Entry [i] of an MSR table: the register written, shifted left once,
   with bit 0 set when the immediate is normalized. *)
let wr_route t view (tbl : int array) i =
  let code = Array.unsafe_get tbl i in
  if code <> unresolved then code
  else begin
    let code =
      match
        route_el2 t view (Insn.Msr (Sysreg.direct (Sysreg.of_index i), Insn.Imm 0L))
      with
      | Arm.Trap_rules.Execute -> i lsl 1
      | Arm.Trap_rules.Execute_redirected a ->
        (Sysreg.index a.Sysreg.reg lsl 1) lor 1
      | _ -> -1
    in
    tbl.(i) <- code;
    code
  end

(* A copy loop over [regs] between the register file and the context
   area at [ctx].  [Exit] when a route is not replayable or the area does
   not sit in one page. *)
let compile_loop ~ctx ~restore route (regs : Sysreg.t array) =
  let base = Memory.page_offset ctx in
  if Int64.logand ctx 7L <> 0L || base + Reglists.ctx_area_size > 4096 then
    raise Exit;
  let codes = Array.map (fun r -> route (Sysreg.index r)) regs in
  if Array.exists (fun c -> c < 0) codes then raise Exit;
  {
    ll_ctx = ctx;
    ll_regs = Array.map (fun c -> if restore then c lsr 1 else c) codes;
    ll_offs = Array.map (fun r -> base + Reglists.ctx_slot r) regs;
    ll_norms =
      (if restore then Array.fold_left (fun n c -> n + (c land 1)) 0 codes
       else 0);
  }

let compile_plan t ~hcr_raw =
  let view = Hcr.decode hcr_raw in
  let rd = Array.make Sysreg.count unresolved in
  let wr = Array.make Sysreg.count unresolved in
  let save ctx regs = compile_loop ~ctx ~restore:false (rd_route t view rd) regs in
  let rest ctx regs = compile_loop ~ctx ~restore:true (wr_route t view wr) regs in
  {
    lp_hcr = hcr_raw;
    lp_feats = t.cpu.Cpu.features;
    lp_view = view;
    lp_rd = rd;
    lp_wr = wr;
    lp_save_el1 = save t.guest_stash Reglists.el1_state_arr;
    lp_save_el0 = save t.guest_stash Reglists.el0_state_arr;
    lp_rest_host = rest t.l0_ctx Reglists.el1_state_arr;
    lp_rest_el1 = rest t.guest_stash Reglists.el1_state_arr;
    lp_rest_el0 = rest t.guest_stash Reglists.el0_state_arr;
  }

let rec find_plan raw feats = function
  | [] -> no_plan
  | p :: tl ->
    if Int64.equal p.lp_hcr raw && p.lp_feats == feats then p
    else find_plan raw feats tl

(* The plan valid for the CPU's routing state right now, compiling on
   first sight of a (HCR, features) pair.  [no_plan] (outside EL2, or a
   route the plan cannot replay) means: interpret. *)
let plan_for t =
  let cpu = t.cpu in
  if cpu.Cpu.pstate.Arm.Pstate.el <> Arm.Pstate.EL2 then no_plan
  else begin
    let feats = cpu.Cpu.features in
    let cur = t.l0_cur in
    if
      cur.lp_feats == feats
      && Sysreg_file.index_equals cpu.Cpu.sysregs hcr_i cur.lp_hcr
    then cur
    else begin
      let raw = Sysreg_file.get_index cpu.Cpu.sysregs hcr_i in
      let p = find_plan raw feats t.l0_plans in
      let p =
        if p != no_plan then p
        else
          match compile_plan t ~hcr_raw:raw with
          | p ->
            t.l0_plans <- p :: t.l0_plans;
            p
          | exception Exit -> no_plan
      in
      if p != no_plan then t.l0_cur <- p;
      p
    end
  end

(* --- replaying single accesses ---

   [put] and [pull] replay one [Cpu.msr]/[Cpu.mrs] of a [Direct] access
   at EL2 under the plan for the HCR value in force, except for the PC
   advance: they return the bytes the PC still owes (4), which callers
   sum and pay once per sequence ([advance]).  Without a plan they run
   the routed instruction itself (which advances the PC) and owe 0. *)

let advance t bytes =
  if bytes > 0 then t.cpu.Cpu.pc <- Int64.add t.cpu.Cpu.pc (Int64.of_int bytes)

(* "msr <register i>, #v" *)
let put t i v =
  let p = plan_for t in
  let code = if p == no_plan then -1 else wr_route t p.lp_view p.lp_wr i in
  if code < 0 then begin
    Cpu.msr t.cpu (Sysreg.direct (Sysreg.of_index i)) v;
    0
  end
  else begin
    let cpu = t.cpu in
    let m = cpu.Cpu.meter in
    let c = Cpu.table cpu in
    if code land 1 = 1 then begin
      Cpu.set_reg cpu Cpu.scratch_reg v;
      m.Cost.insns <- m.Cost.insns + 1;
      m.Cost.cycles <- m.Cost.cycles + c.Cost.insn_base
    end;
    Sysreg_file.write_index cpu.Cpu.sysregs (code lsr 1) v;
    m.Cost.insns <- m.Cost.insns + 1;
    m.Cost.cycles <- m.Cost.cycles + c.Cost.sysreg_write;
    4
  end

(* "mrs x9, <register i>", the value then stored into the same register
   of the virtual EL2 file *)
let pull t i =
  let p = plan_for t in
  let src = if p == no_plan then -1 else rd_route t p.lp_view p.lp_rd i in
  if src < 0 then begin
    let r = Sysreg.of_index i in
    Vcpu.write_vel2 t.vcpu r (Cpu.mrs t.cpu (Sysreg.direct r));
    0
  end
  else begin
    let cpu = t.cpu in
    let m = cpu.Cpu.meter in
    let v = Sysreg_file.get_index cpu.Cpu.sysregs src in
    Cpu.set_reg cpu Cpu.scratch_reg v;
    m.Cost.insns <- m.Cost.insns + 1;
    m.Cost.cycles <- m.Cost.cycles + (Cpu.table cpu).Cost.sysreg_read;
    Sysreg_file.hw_write_index t.vcpu.Vcpu.vel2 i v;
    4
  end

(* [put] of every register in [regs] from the same register of [src] *)
let put_from t (src : Sysreg_file.t) (regs : int array) =
  let owed = ref 0 in
  for k = 0 to Array.length regs - 1 do
    let i = Array.unsafe_get regs k in
    owed := !owed + put t i (Sysreg_file.get_index src i)
  done;
  !owed

(* --- virtual EL2 register storage ---

   Where the guest hypervisor's virtual EL2 register values live depends on
   the configuration (Section 6.1):
   - redirect-class registers are backed by the hardware EL1 twin whenever
     the guest accesses them without trapping (VHE guests always; NEVE for
     everyone);
   - page-resident registers are authoritative in the deferred access page
     while NEVE is enabled;
   - everything else lives in the software virtual-EL2 file. *)

(* The register pairs forming the virtual-EL2 execution mapping: while the
   guest hypervisor runs at EL1, hardware EL1 register [twin] holds the
   value of its virtual [el2_reg]. *)
let exec_mapping = Core.Classify.redirected_pairs

(* The same pairs by dense index of the EL2 register: the twin, as a
   preallocated option (first pair wins, as [List.assoc_opt]).
   domain-safety: allowlisted global — built at module load, read-only
   afterwards. *)
let exec_twin : Sysreg.t option array =
  Array.init Sysreg.count (fun i ->
      List.assoc_opt (Sysreg.of_index i) exec_mapping)

(* The EL1 twin backing virtual EL2 register [r] under [config] (the
   execution mapping's pairs are exactly the redirect classes). *)
let twin_of (config : Config.t) (r : Sysreg.t) =
  match Sysreg.neve_class r with
  | Sysreg.NV_redirect _ | Sysreg.NV_redirect_vhe _ ->
    if config.Config.guest_vhe || Config.is_neve config then
      Array.unsafe_get exec_twin (Sysreg.index r)
    else None
  | Sysreg.NV_redirect_or_trap _ ->
    if config.Config.guest_vhe then Array.unsafe_get exec_twin (Sysreg.index r)
    else None
  | _ -> None

let twin_backed t r = twin_of t.config r

let page_backed t r =
  Config.is_neve t.config && t.vcpu.Vcpu.in_vel2
  && Core.Deferred_page.has_slot r

(* While the guest hypervisor is at virtual EL2, the execution mapping
   loaded by [inject_vel2] is live in hardware for EVERY nested
   mechanism: hardware exception entry inside virtual EL2 (an SVC or an
   UNDEF taken by the guest hypervisor) writes the EL1 twins directly.
   Trap-time reads and writes of an execution-mapped register must
   therefore go through the stashed hardware twin even when the
   configuration does not redirect untrapped accesses — otherwise state
   hardware wrote behind the trap handler's back is lost, and the stash
   fold in [emulate_eret] clobbers trapped writes with stale values. *)
let stash_twin t r =
  match twin_backed t r with
  | Some _ as s -> s
  | None ->
    if t.vcpu.Vcpu.in_vel2 then Array.unsafe_get exec_twin (Sysreg.index r)
    else None

(* Read a virtual-EL2 register value from wherever it currently lives.
   Reads of twin-backed registers must use the *stash* when the hardware
   has already been switched away (the caller passes ~from_stash). *)
let vel2_read ?(from_stash = false) t r =
  match (if from_stash then stash_twin t r else twin_backed t r) with
  | Some twin ->
    if from_stash then
      Memory.read64 t.cpu.Cpu.mem
        (Int64.add t.guest_stash (Int64.of_int (Reglists.ctx_slot twin)))
    else Cpu.mrs t.cpu (Sysreg.direct twin)
  | None ->
    if page_backed t r then begin
      Cost.charge t.cpu.Cpu.meter (table t).Cost.mem_load;
      Core.Deferred_page.read t.page r
    end
    else Vcpu.read_vel2 t.vcpu r

let vel2_write ?(to_hw = true) t r v =
  Vcpu.write_vel2 t.vcpu r v;
  (match twin_backed t r with
   | Some twin when to_hw -> advance t (put t (Sysreg.index twin) v)
   | _ -> ());
  if page_backed t r then begin
    Cost.charge t.cpu.Cpu.meter (table t).Cost.mem_store;
    Core.Deferred_page.write t.page r v
  end

(* --- the host's own full exit path (non-VHE KVM): runs on EVERY trap --- *)

let stash_slot t r = Int64.add t.guest_stash (Int64.of_int (Reglists.ctx_slot r))

(* Replay a compiled save loop.  Per copy the interpreted path executes
   "mrs x9, <src>; str x9, [slot]": two instructions, a sysreg_read and
   a mem_store cycle charge, one memory access, PC advanced twice, x9
   left holding the copied value.  Nothing mid-loop can observe the
   meter or PC (no tracing, no special registers), so the charges are
   applied in aggregate; the PC advance is returned, for the caller to
   pay with the rest of the exit path's.  The words go straight into the
   page's bytes unless a write observer is attached or the page overlaps
   the code envelope; then each goes through [Memory.write64], in order. *)
let run_save t (l : l0_loop) =
  let cpu = t.cpu in
  let m = cpu.Cpu.meter in
  let c = Cpu.table cpu in
  let mem = cpu.Cpu.mem in
  let file = cpu.Cpu.sysregs in
  let n = Array.length l.ll_regs in
  WS.add_copies n;
  if n > 0 then begin
    if Memory.plain_page mem l.ll_ctx then begin
      Sysreg_file.to_page file ~regs:l.ll_regs ~offs:l.ll_offs
        (Memory.page_for_store mem l.ll_ctx);
      Cpu.set_reg cpu Cpu.scratch_reg
        (Sysreg_file.get_index file l.ll_regs.(n - 1))
    end
    else begin
      let page = Int64.logand l.ll_ctx (Int64.lognot 0xfffL) in
      let last = ref 0L in
      for k = 0 to n - 1 do
        let v = Sysreg_file.get_index file l.ll_regs.(k) in
        Memory.write64 mem (Int64.add page (Int64.of_int l.ll_offs.(k))) v;
        last := v
      done;
      Cpu.set_reg cpu Cpu.scratch_reg !last
    end
  end;
  m.Cost.insns <- m.Cost.insns + (2 * n);
  m.Cost.cycles <- m.Cost.cycles + (n * (c.Cost.sysreg_read + c.Cost.mem_store));
  m.Cost.mem_accesses <- m.Cost.mem_accesses + n;
  8 * n

(* Replay a compiled restore loop: "ldr x9, [slot]; msr <dst>, x9" per
   copy, plus the normalization mov (one instruction, one insn_base
   cycle) for each copy whose route was redirected. *)
let run_rest t (l : l0_loop) =
  let cpu = t.cpu in
  let m = cpu.Cpu.meter in
  let c = Cpu.table cpu in
  let n = Array.length l.ll_regs in
  WS.add_copies n;
  if n > 0 then begin
    let page = Memory.page_of cpu.Cpu.mem l.ll_ctx in
    Sysreg_file.of_page cpu.Cpu.sysregs ~checked:true ~regs:l.ll_regs
      ~offs:l.ll_offs page;
    Cpu.set_reg cpu Cpu.scratch_reg
      (Memory.read64 cpu.Cpu.mem
         (Int64.add
            (Int64.logand l.ll_ctx (Int64.lognot 0xfffL))
            (Int64.of_int l.ll_offs.(n - 1))))
  end;
  let k = l.ll_norms in
  m.Cost.insns <- m.Cost.insns + (2 * n) + k;
  m.Cost.cycles <-
    m.Cost.cycles + (n * (c.Cost.mem_load + c.Cost.sysreg_write))
    + (k * c.Cost.insn_base);
  m.Cost.mem_accesses <- m.Cost.mem_accesses + n;
  (8 * n) + (4 * k)

let cptr_i = Sysreg.index Sysreg.CPTR_EL2
let mdcr_i = Sysreg.index Sysreg.MDCR_EL2
let hstr_i = Sysreg.index Sysreg.HSTR_EL2
let vttbr_i = Sysreg.index Sysreg.VTTBR_EL2

(* [WS.deactivate_traps ~vhe:false], [WS.activate_traps ~vhe:false] and
   [WS.write_stage2], write for write; each returns the PC bytes owed. *)
let deactivate_traps t =
  let n = put t hcr_i 0L in
  let n = n + put t cptr_i 0L in
  let n = n + put t mdcr_i 0L in
  n + put t hstr_i 0L

let activate_traps t ~hcr =
  let n = put t hcr_i hcr in
  let n = n + put t cptr_i WS.cptr_active in
  let n = n + put t mdcr_i WS.mdcr_active in
  n + put t hstr_i 0L

let write_stage2 t ~vttbr = put t vttbr_i vttbr

let l0_enter t =
  let copies0 = WS.reg_copies () in
  Cost.charge t.cpu.Cpu.meter (table t).Cost.l0_exit_dispatch;
  let p = plan_for t in
  if p != no_plan then begin
    (* save whoever was running at EL1, restore the host's EL1 world *)
    let n = run_save t p.lp_save_el1 in
    let n = n + run_save t p.lp_save_el0 in
    let n = n + run_rest t p.lp_rest_host in
    advance t (n + deactivate_traps t)
  end
  else begin
    let o = l0_ops t in
    WS.save_array o ~ctx:t.guest_stash ~via:Sysreg.direct
      Reglists.el1_state_arr;
    WS.save_array o ~ctx:t.guest_stash ~via:Sysreg.direct
      Reglists.el0_state_arr;
    WS.restore_array o ~ctx:t.l0_ctx ~via:Sysreg.direct
      Reglists.el1_state_arr;
    WS.deactivate_traps o ~vhe:false
  end;
  if !Trace.on then
    Trace.emit ~cycles:t.cpu.Cpu.meter.Cost.cycles ~tid:t.cpu.Cpu.meter.Cost.tid
      ~a0:(Int64.of_int (WS.reg_copies () - copies0))
      ~a1:(Int64.of_int t.vcpu.Vcpu.id)
      Trace.Ws_enter

let l0_exit t =
  let copies0 = WS.reg_copies () in
  (* put the interrupted guest context back *)
  let p = plan_for t in
  if p != no_plan then begin
    let n = run_rest t p.lp_rest_el1 in
    let n = n + run_rest t p.lp_rest_el0 in
    let n = n + activate_traps t ~hcr:(hcr_for t ~vel2:t.vcpu.Vcpu.in_vel2) in
    advance t (n + write_stage2 t ~vttbr:t.shadow_vttbr)
  end
  else begin
    let o = l0_ops t in
    WS.restore_array o ~ctx:t.guest_stash ~via:Sysreg.direct
      Reglists.el1_state_arr;
    WS.restore_array o ~ctx:t.guest_stash ~via:Sysreg.direct
      Reglists.el0_state_arr;
    WS.activate_traps o ~vhe:false ~hcr:(hcr_for t ~vel2:t.vcpu.Vcpu.in_vel2);
    WS.write_stage2 o ~vttbr:t.shadow_vttbr
  end;
  if !Trace.on then
    Trace.emit ~cycles:t.cpu.Cpu.meter.Cost.cycles ~tid:t.cpu.Cpu.meter.Cost.tid
      ~a0:(Int64.of_int (WS.reg_copies () - copies0))
      ~a1:(Int64.of_int t.vcpu.Vcpu.id)
      Trace.Ws_exit

(* Bookkeeping view of the stashed guest EL1 state (cost already paid by
   l0_enter's stores). *)
let stash_read t r = Memory.read64 t.cpu.Cpu.mem (stash_slot t r)

(* Inject an UNDEF into the interrupted guest context — what KVM's
   kvm_inject_undefined does when a trapped access makes no architectural
   sense.  The guest's EL1 exception bank is written in the *stash* (the
   interrupted EL1 state lives there between l0_enter and l0_exit), so
   l0_exit's restore materializes it; the eret then lands on the guest's
   EL1 vector with SPSR/ELR describing the faulting context. *)
let inject_undef t =
  let c = table t in
  t.undef_injected <- t.undef_injected + 1;
  Cost.charge t.cpu.Cpu.meter c.Cost.l0_inject_vel2;
  (* the trap advanced PC past the faulting instruction; UNDEF reports
     the instruction itself *)
  let faulting_pc = Int64.sub (Cpu.peek_sysreg t.cpu Sysreg.ELR_EL2) 4L in
  let mem = t.cpu.Cpu.mem in
  Memory.write64 mem (stash_slot t Sysreg.ESR_EL1)
    (Exn.esr ~ec:Exn.EC_unknown ~iss:0);
  Memory.write64 mem (stash_slot t Sysreg.ELR_EL1) faulting_pc;
  Memory.write64 mem (stash_slot t Sysreg.SPSR_EL1)
    (Cpu.peek_sysreg t.cpu Sysreg.SPSR_EL2);
  let vbar = stash_read t Sysreg.VBAR_EL1 in
  if debug_on () then
    Log.debug (fun m ->
        m "vcpu%d: injecting UNDEF, faulting pc=0x%Lx" t.vcpu.Vcpu.id
          faulting_pc);
  l0_exit t;
  Cpu.poke_sysreg t.cpu Sysreg.ELR_EL2 vbar;
  Cpu.poke_sysreg t.cpu Sysreg.SPSR_EL2
    (Arm.Pstate.to_spsr (Arm.Pstate.at Arm.Pstate.EL1));
  Cpu.do_eret t.cpu

(* --- virtual EL2 <-> hardware transitions --- *)

(* Dense-index forms of the register sets moved on every nested exit.
   domain-safety: allowlisted global — built at module load, read-only
   afterwards. *)
let state_regs =
  Array.append Reglists.el1_state_indices Reglists.el0_state_indices

let exec_el2_regs =
  Array.of_list (List.map (fun (r, _) -> Sysreg.index r) exec_mapping)

let exec_twin_regs =
  Array.of_list (List.map (fun (_, tw) -> Sysreg.index tw) exec_mapping)

let lr_regs = Array.init Sysreg.lr_count (fun i -> Sysreg.index (Sysreg.ICH_LR_EL2 i))

(* Their slots' byte offsets in the (page-aligned) stash. *)
let ctx_slots regs = Array.map (fun i -> Reglists.ctx_slot (Sysreg.of_index i)) regs
let state_slots = ctx_slots state_regs
let exec_twin_slots = ctx_slots exec_twin_regs

let used_lrs_of_vel2 t =
  let n = ref 0 in
  for i = 0 to Reglists.vgic_lrs_in_use - 1 do
    if not (Gic.Vgic.lr_is_free (Vcpu.read_vel2 t.vcpu (Sysreg.ICH_LR_EL2 i)))
    then n := i + 1
  done;
  !n

(* --- OoH selective exposure (the fourth mechanism) ---

   While the guest hypervisor runs in virtual EL2, the hardware register
   file is authoritative for every register its grant exposes: the trap
   router answers [Execute_exposed] and the access runs against hardware
   at plain execute cost.  Outside virtual EL2 the virtual-EL2 file is
   authoritative, exactly as for the other three mechanisms.

   Entry ([inject_vel2] / [start_guest_hypervisor] / [kill_l2]) installs
   the virtual values into hardware and arms the routing grant; the
   trapped eret folds hardware back into the virtual file and disarms
   it.  Disarming matters for recursive virtualization: an L2
   hypervisor's EL2 accesses keep their trap/forward/defer semantics —
   its grants would be L1's to give, not L0's. *)

let exposed_regs (p : Expose.Policy.t) =
  let timer =
    if Expose.Policy.mem p Expose.Policy.Timer then
      [ Sysreg.CNTHP_CTL_EL2; Sysreg.CNTHP_CVAL_EL2; Sysreg.CNTHV_CTL_EL2;
        Sysreg.CNTHV_CVAL_EL2; Sysreg.CNTVOFF_EL2 ]
    else []
  and gic =
    (* every LR the hardware advertises through ICH_VTR, not just the
       [Reglists.vgic_lrs_in_use] KVM's own save/restore touches: the
       routing grant exposes all of them, so the install/fold surface
       must match or a high-index write dies in the hardware file *)
    if Expose.Policy.mem p Expose.Policy.Gic_lrs then
      Sysreg.ICH_HCR_EL2 :: Sysreg.ICH_VMCR_EL2
      :: List.init Sysreg.lr_count (fun i -> Sysreg.ICH_LR_EL2 i)
    else []
  in
  timer @ gic

(* Make hardware mirror the virtual-EL2 file for every exposed register
   and arm the routing grant.  The copies are MSRs when [charged] — the
   per-switch cost OoH pays to erase the per-access traps; the
   register-poke entry paths ([kill_l2], initial boot) pass
   [charged:false] like their surrounding pokes. *)
let expose_install ?(charged = true) t =
  if not (Expose.Policy.is_none t.expose) then begin
    let vel2 = t.vcpu.Vcpu.vel2 in
    if charged then advance t (put_from t vel2 t.exposed)
    else Sysreg_file.copy_indices ~src:vel2 ~dst:t.cpu.Cpu.sysregs t.exposed;
    t.cpu.Cpu.expose <- t.expose
  end

(* Fold hardware back into the virtual-EL2 file and disarm the grant.
   Must run before anything reads the virtual file on the exit path
   ([used_lrs_of_vel2], the vgic/timer reprogramming) and makes the
   NEVE drain's exposed-register slots stale shadows — see
   [neve_drain]. *)
let expose_fold t =
  if not (Expose.Policy.is_none t.expose) then begin
    let owed = ref 0 in
    for k = 0 to Array.length t.exposed - 1 do
      owed := !owed + pull t t.exposed.(k)
    done;
    advance t !owed;
    t.cpu.Cpu.expose <- Expose.Policy.none
  end

(* Populate the NEVE deferred access page before running the guest
   hypervisor: EL2 slots from the virtual EL2 file, EL1/EL0 slots from the
   nested VM's state (Section 6.1 workflow). *)
let neve_populate t =
  Core.Deferred_page.populate_files t.page ~el2:t.vcpu.Vcpu.vel2
    ~el1:t.vcpu.Vcpu.vel1;
  Cost.charge t.cpu.Cpu.meter
    (Core.Deferred_page.layout_len * (table t).Cost.mem_store)

(* Drain it back on the trapped eret.  [drain_slots] ([drain_keeps])
   leaves two kinds of slot out:
   - a register redirected to a hardware EL1 twin under this
     configuration is never written through the page while the guest
     hypervisor runs — its page slot is a stale shadow from
     [neve_populate], and draining it would clobber the authoritative
     value the execution-mapping fold took from the twin;
   - same staleness for an exposed register: its page slot was
     populated at entry and never written (the grant routed every
     access to hardware); draining it would clobber the value
     [expose_fold] just took from the hardware register. *)
let drain_keeps config expose r =
  twin_of config r = None && Arm.Trap_rules.exposed_feature expose r = None

let neve_drain t =
  Core.Deferred_page.drain_files t.page t.drain_slots ~el2:t.vcpu.Vcpu.vel2
    ~el1:t.vcpu.Vcpu.vel1;
  Cost.charge t.cpu.Cpu.meter
    (Core.Deferred_page.layout_len * (table t).Cost.mem_load)

let neve_on t = Config.is_neve t.config

let set_vncr t ~enable =
  match t.config.Config.mech with
  | Config.Hw_neve ->
    let v =
      if enable then Core.Deferred_page.vncr_value t.page ~enable:true
      else Core.Vncr.disabled_value
    in
    Cpu.poke_sysreg t.cpu Sysreg.VNCR_EL2 v;
    if !Trace.on then
      Trace.emit ~cycles:t.cpu.Cpu.meter.Cost.cycles ~tid:t.cpu.Cpu.meter.Cost.tid ~a0:v
        ~a1:(if enable then 1L else 0L)
        Trace.Vncr_program
  | _ -> ()

(* Switch the vCPU from "nested VM running" to "guest hypervisor running"
   and deliver a virtual EL2 exception describing [reason].  The guest's
   EL1 state was already parked in the stash by l0_enter. *)
let inject_vel2 t (reason : Vcpu.nested_exit) =
  let c = table t in
  if debug_on () then
    Log.debug (fun m ->
        m "vcpu%d: inject %s into virtual EL2" t.vcpu.Vcpu.id
          (Vcpu.exit_name reason));
  Cost.charge t.cpu.Cpu.meter c.Cost.l0_inject_vel2;
  (* the stashed EL1 state is the nested VM's (or vEL1 kernel's) state *)
  Sysreg_file.of_page t.vcpu.Vcpu.vel1 ~checked:false ~regs:state_regs
    ~offs:state_slots (Memory.page_of t.cpu.Cpu.mem t.guest_stash);
  (* save the hardware list registers into the virtual EL2 vgic *)
  let used = max (used_lrs_of_vel2 t) t.vcpu.Vcpu.used_lrs in
  let owed = ref 0 in
  for i = 0 to used - 1 do
    owed := !owed + pull t lr_regs.(i)
  done;
  advance t !owed;
  t.vcpu.Vcpu.in_vel2 <- true;
  (* virtual exception bookkeeping: syndrome, return address, SPSR *)
  let esr =
    match reason with
    | Vcpu.Exit_hypercall -> Exn.esr ~ec:Exn.EC_hvc64 ~iss:0
    | Vcpu.Exit_mmio { addr = _; is_write } ->
      Exn.esr ~ec:Exn.EC_dabt_lower ~iss:(if is_write then 0x40 else 0)
    | Vcpu.Exit_virq _ -> Exn.esr ~ec:Exn.EC_irq ~iss:0
    | Vcpu.Exit_sgi { rt; _ } ->
      (* a faithful syndrome for the trapped ICC_SGI1R_EL1 write — the
         guest hypervisor (and trap logs) can identify the SGI source
         register instead of seeing an all-zero ISS *)
      Exn.esr ~ec:Exn.EC_sysreg
        ~iss:
          (Exn.sysreg_iss ~access:(Sysreg.direct Sysreg.ICC_SGI1R_EL1) ~rt
             ~is_read:false)
    | Vcpu.Exit_wfi -> Exn.esr ~ec:Exn.EC_wfx ~iss:0
    | Vcpu.Exit_hyp_insn { access; rt; is_read } ->
      Exn.esr ~ec:Exn.EC_sysreg ~iss:(Exn.sysreg_iss ~access ~rt ~is_read)
    | Vcpu.Exit_hyp_eret -> Exn.esr ~ec:Exn.EC_eret ~iss:0
  in
  vel2_write t Sysreg.ESR_EL2 esr;
  vel2_write t Sysreg.ELR_EL2 (Cpu.peek_sysreg t.cpu Sysreg.ELR_EL2);
  vel2_write t Sysreg.SPSR_EL2 (Cpu.peek_sysreg t.cpu Sysreg.SPSR_EL2);
  (match reason with
   | Vcpu.Exit_mmio { addr; _ } ->
     vel2_write t Sysreg.FAR_EL2 addr;
     vel2_write t Sysreg.HPFAR_EL2 (Int64.shift_right_logical addr 8)
   | _ -> ());
  (* load the virtual-EL2 execution mapping into hardware EL1 *)
  let vel2 = t.vcpu.Vcpu.vel2 in
  let owed = ref 0 in
  for k = 0 to Array.length exec_twin_regs - 1 do
    owed :=
      !owed
      + put t exec_twin_regs.(k) (Sysreg_file.get_index vel2 exec_el2_regs.(k))
  done;
  advance t !owed;
  if neve_on t then begin
    neve_populate t;
    set_vncr t ~enable:true
  end;
  expose_install t;
  (* enter the guest hypervisor at its (virtual) EL2 vector *)
  Cpu.poke_sysreg t.cpu Sysreg.ELR_EL2 Guest_hyp.vector_base;
  Cpu.poke_sysreg t.cpu Sysreg.SPSR_EL2
    (Arm.Pstate.to_spsr (Arm.Pstate.at Arm.Pstate.EL1));
  advance t (activate_traps t ~hcr:(hcr_for t ~vel2:true));
  Cpu.do_eret t.cpu;
  (* run the guest hypervisor's handler, unless this is the guest
     hypervisor's own kernel->lowvisor transition *)
  if not t.in_l1 then begin
    match t.on_vel2_entry with
    | Some hook ->
      t.in_l1 <- true;
      Fun.protect ~finally:(fun () -> t.in_l1 <- false) (fun () -> hook reason)
    | None -> ()
  end

let ich_hcr_i = Sysreg.index Sysreg.ICH_HCR_EL2
let ich_vmcr_i = Sysreg.index Sysreg.ICH_VMCR_EL2
let cntvoff_i = Sysreg.index Sysreg.CNTVOFF_EL2

(* The guest hypervisor executed eret: switch to the virtual EL1 context
   (its host kernel or its nested VM — the host does not care which). *)
let emulate_eret t =
  let c = table t in
  if debug_on () then
    Log.debug (fun m ->
        m "vcpu%d: trapped eret, entering virtual EL1/0" t.vcpu.Vcpu.id);
  Cost.charge t.cpu.Cpu.meter c.Cost.l0_eret_emulate;
  (* where does the guest hypervisor want to go? *)
  let target_elr = vel2_read ~from_stash:true t Sysreg.ELR_EL2 in
  let target_spsr = vel2_read ~from_stash:true t Sysreg.SPSR_EL2 in
  (* the stashed hardware EL1 state is the virtual-EL2 execution mapping:
     fold it back into the virtual EL2 file *)
  let vel2 = t.vcpu.Vcpu.vel2 in
  Sysreg_file.of_page vel2 ~checked:false ~regs:exec_el2_regs
    ~offs:exec_twin_slots (Memory.page_of t.cpu.Cpu.mem t.guest_stash);
  expose_fold t;
  if neve_on t then begin
    neve_drain t;
    set_vncr t ~enable:false
  end;
  t.vcpu.Vcpu.in_vel2 <- false;
  (* load the virtual EL1 context into hardware *)
  advance t (put_from t t.vcpu.Vcpu.vel1 state_regs);
  (* program the hardware vgic from the virtual EL2 interface *)
  let used = used_lrs_of_vel2 t in
  t.vcpu.Vcpu.used_lrs <- used;
  let owed = ref (put t ich_hcr_i (Sysreg_file.get_index vel2 ich_hcr_i)) in
  owed := !owed + put t ich_vmcr_i (Sysreg_file.get_index vel2 ich_vmcr_i);
  for i = 0 to used - 1 do
    owed := !owed + put t lr_regs.(i) (Sysreg_file.get_index vel2 lr_regs.(i))
  done;
  owed := !owed + put t cntvoff_i (Sysreg_file.get_index vel2 cntvoff_i);
  (* shadow stage-2 for the nested VM *)
  owed := !owed + write_stage2 t ~vttbr:t.shadow_vttbr;
  advance t (!owed + activate_traps t ~hcr:(hcr_for t ~vel2:false));
  (* Section 6.2: while an L2 hypervisor runs, the hardware VNCR points at
     the page owned by the L1 guest hypervisor (BADDR translated by L0) *)
  (match (t.l2_is_hyp, t.l2_vncr) with
   | true, Some v -> Cpu.poke_sysreg t.cpu Sysreg.VNCR_EL2 v
   | _ -> ());
  t.vcpu.Vcpu.nested_launched <- true;
  Cpu.poke_sysreg t.cpu Sysreg.ELR_EL2 target_elr;
  Cpu.poke_sysreg t.cpu Sysreg.SPSR_EL2 target_spsr;
  Cpu.do_eret t.cpu

(* --- trapped system-register emulation --- *)

(* Returns true when the emulation switched the vCPU to a different
   context (so the caller must not unwind with l0_exit + eret). *)
let emulate_sysreg t ~(access : Sysreg.access) ~rt ~is_read =
  let c = table t in
  Cost.charge t.cpu.Cpu.meter c.Cost.l0_sysreg_emulate;
  let r = access.Sysreg.reg in
  (* The nested VM sending an IPI is special: forward it. *)
  if r = Sysreg.ICC_SGI1R_EL1 && not is_read then begin
    Cost.charge t.cpu.Cpu.meter c.Cost.l0_ipi_send;
    let v = Cpu.get_trapped_reg t.cpu rt in
    let target = Int64.to_int (Int64.logand v 0xffL) in
    let intid =
      Int64.to_int (Int64.logand (Int64.shift_right_logical v 24) 0xfL)
    in
    if t.vcpu.Vcpu.in_vel2 || t.in_l1 || t.scenario = Single_vm then begin
      (* the (guest) hypervisor or a plain VM sends: deliver physically *)
      (match t.send_ipi with
       | Some f -> f ~target ~intid
       | None -> ());
      false
    end
    else begin
      (* the nested VM sends: the guest hypervisor must emulate it *)
      inject_vel2 t (Vcpu.Exit_sgi { target; intid; rt });
      true
    end
  end
  else begin
    let vel2_target =
      match access.Sysreg.alias with
      | Sysreg.EL12 | Sysreg.EL02 -> false
      | Sysreg.Direct -> Sysreg.min_el r = Arm.Pstate.EL2
    in
    (* timer accesses carry the cost of multiplexing the (VHE-only) EL2
       virtual timer with the VM's EL1 virtual timer *)
    if access.Sysreg.alias = Sysreg.EL02 || Sysreg.is_el2_timer r then
      Cost.charge t.cpu.Cpu.meter c.Cost.l0_timer_emulate;
    (if is_read then begin
       let v =
         if vel2_target then
           match stash_twin t r with
           | Some twin -> stash_read t twin
           | None -> Vcpu.read_vel2 t.vcpu r
         else Vcpu.read_vel1 t.vcpu r
       in
       Cpu.set_trapped_reg t.cpu rt v
     end
     else begin
       let v = Cpu.get_trapped_reg t.cpu rt in
       if vel2_target then begin
         Vcpu.write_vel2 t.vcpu r v;
         (match stash_twin t r with
          | Some twin ->
            Memory.write64 t.cpu.Cpu.mem (stash_slot t twin) v
          | None -> ());
         (* keep the deferred page's cached copy fresh (trap-on-write) *)
         if neve_on t && Core.Deferred_page.has_slot r then
           Core.Deferred_page.write t.page r v;
         (* GIC writes are sanitized and translated (Section 4) *)
         if Sysreg.is_gic_ich r then
           Cost.charge t.cpu.Cpu.meter c.Cost.l0_vgic_sync;
         match r with
         | Sysreg.ICH_LR_EL2 i ->
           if v <> 0L then
             t.vcpu.Vcpu.used_lrs <- max t.vcpu.Vcpu.used_lrs (i + 1)
         | _ -> ()
       end
       else Vcpu.write_vel1 t.vcpu r v
     end);
    false
  end

(* --- top-level trap dispatch --- *)

let handle_hvc t operand =
  let c = table t in
  let plain_hypercall () =
    match (t.scenario, t.vcpu.Vcpu.in_vel2) with
    | Single_vm, _ ->
      Cost.charge t.cpu.Cpu.meter c.Cost.l0_hvc_handle;
      l0_exit t;
      Cpu.do_eret t.cpu
    | Nested, false -> inject_vel2 t Vcpu.Exit_hypercall
    | Nested, true ->
      (* a hypercall from the guest hypervisor itself (e.g. PSCI) *)
      Cost.charge t.cpu.Cpu.meter c.Cost.l0_hvc_handle;
      l0_exit t;
      Cpu.do_eret t.cpu
  in
  (* Only paravirtualized configurations speak the operand protocol; on a
     hardware mechanism every hvc is a real hypercall no matter what the
     guest put in the immediate. *)
  if Config.is_paravirt t.config && operand >= 64 then begin
    (* paravirtualized hypervisor instruction (Section 4) *)
    let op = Paravirt.decode_op operand in
    if !Trace.on then
      Trace.emit ~cycles:t.cpu.Cpu.meter.Cost.cycles ~tid:t.cpu.Cpu.meter.Cost.tid
        ~a0:(Int64.of_int operand) ~detail:(Paravirt.op_name op) Trace.Pv_hvc;
    match op with
    | Paravirt.Op_sysreg { access; rt; is_read } ->
      let switched = emulate_sysreg t ~access ~rt ~is_read in
      if not switched then begin
        l0_exit t;
        Cpu.do_eret t.cpu
      end
    | Paravirt.Op_eret -> emulate_eret t
    | Paravirt.Op_invalid _ ->
      (* guest-built operand outside the registry: the wrappers never
         emit this, so treat it as the UNDEF the target hardware would
         deliver for the unrecognized instruction *)
      inject_undef t
    | Paravirt.Op_hypercall _ -> plain_hypercall ()
  end
  else plain_hypercall ()

let handle_irq t =
  let c = table t in
  let intid = Option.value ~default:Gic.Irq.virtio_net_spi t.pending_irq in
  t.pending_irq <- None;
  match t.scenario with
  | Single_vm ->
    (* inject a virtual interrupt directly into a hardware list register *)
    Cost.charge t.cpu.Cpu.meter c.Cost.l0_vgic_sync;
    let lr =
      Gic.Vgic.encode_lr
        { Gic.Vgic.empty_lr with Gic.Vgic.lr_state = Gic.Irq.Pending;
                                 lr_vintid = intid }
    in
    advance t (put t lr_regs.(0) lr);
    t.vcpu.Vcpu.used_lrs <- max t.vcpu.Vcpu.used_lrs 1;
    l0_exit t;
    Cpu.do_eret t.cpu
  | Nested ->
    if t.vcpu.Vcpu.in_vel2 then begin
      (* interrupt while the guest hypervisor ran: it is for the nested VM;
         queue it and resume — modeled as immediate redelivery after the
         guest hypervisor finishes, so just resume here *)
      l0_exit t;
      Cpu.do_eret t.cpu
    end
    else inject_vel2 t (Vcpu.Exit_virq intid)

let handle_dabt t (e : Exn.entry) =
  let c = table t in
  let addr = Option.value ~default:Gic.Gicv2.gich_base e.Exn.fault_addr in
  let is_write = e.Exn.iss land 0x40 <> 0 in
  (* Shadow stage-2 refill: a nested-VM translation fault the host can
     resolve alone by collapsing the guest and host stage-2 tables — no
     guest-hypervisor involvement, like Turtles. *)
  let shadow_resolved () =
    match (t.scenario, t.vcpu.Vcpu.in_vel2, t.shadow) with
    | Nested, false, Some (sh, guest_s2, host_s2) -> begin
        match
          Mmu.Shadow.handle_fault sh ~guest_s2 ~host_s2 ~l2_ipa:addr ~is_write
        with
        | Mmu.Shadow.Resolved _ ->
          Cost.charge t.cpu.Cpu.meter c.Cost.l0_mem_fault;
          true
        | Mmu.Shadow.Guest_s2_fault _ | Mmu.Shadow.Host_s2_fault _ -> false
      end
    | _ -> false
  in
  if shadow_resolved () then begin
    l0_exit t;
    Cpu.do_eret t.cpu
  end
  else
  match t.scenario with
  | Single_vm ->
    Cost.charge t.cpu.Cpu.meter c.Cost.l0_io_emulate;
    l0_exit t;
    Cpu.do_eret t.cpu
  | Nested ->
    if t.vcpu.Vcpu.in_vel2 then begin
      (* GICv2: the guest hypervisor's memory-mapped GICH access traps via
         stage-2; emulate against the virtual EL2 vgic state *)
      (match Gic.Gicv2.decode_access addr with
       | Some gich ->
         Cost.charge t.cpu.Cpu.meter c.Cost.l0_vgic_sync;
         (match Gic.Gicv2.to_ich gich with
          | Some ich ->
            if is_write then begin
              let v = Cpu.get_trapped_reg t.cpu Gaccess.data_reg in
              (* the coherent writer: also refreshes the NEVE page's
                 cached copy, as the system-register trap path does *)
              vel2_write ~to_hw:false t ich v;
              match ich with
              | Sysreg.ICH_LR_EL2 i ->
                if not (Gic.Vgic.lr_is_free v) then
                  t.vcpu.Vcpu.used_lrs <- max t.vcpu.Vcpu.used_lrs (i + 1)
              | _ -> ()
            end
            else
              Cpu.set_trapped_reg t.cpu Gaccess.data_reg
                (vel2_read ~from_stash:true t ich)
          | None -> ())
       | None -> Cost.charge t.cpu.Cpu.meter c.Cost.l0_io_emulate);
      l0_exit t;
      Cpu.do_eret t.cpu
    end
    else inject_vel2 t (Vcpu.Exit_mmio { addr; is_write })

let handle_wfi t =
  match (t.scenario, t.vcpu.Vcpu.in_vel2) with
  | Nested, false -> inject_vel2 t Vcpu.Exit_wfi
  | _ ->
    l0_exit t;
    Cpu.do_eret t.cpu

(* --- FEAT_RAS: virtual SError injection and supervised recovery hooks --- *)

(* Deliver a pending virtual SError at an operation boundary.  The
   architectural HCR_EL2.VSE bit may have been rewritten by an intervening
   world switch, so delivery re-arms it from [pending_vserror] first; a
   purely architectural pend (a test poking the bit directly, or a
   restored snapshot) is honoured too.  Returns whether the SError was
   taken — it stays pending while the vCPU sits at EL2. *)
let deliver_pending_vserror t =
  let syndrome =
    match t.pending_vserror with
    | Some _ as s -> s
    | None ->
      if Cpu.vserror_pending t.cpu then
        Some (Cpu.peek_sysreg t.cpu Sysreg.VSESR_EL2)
      else None
  in
  match syndrome with
  | None -> false
  | Some s ->
    if not (Cpu.vserror_pending t.cpu) then Cpu.pend_vserror t.cpu ~syndrome:s;
    let delivered = Cpu.deliver_vserror t.cpu in
    if delivered then begin
      t.pending_vserror <- None;
      t.serror_injected <- t.serror_injected + 1;
      Log.debug (fun m ->
          m "vcpu%d: delivered virtual SError to %s" t.vcpu.Vcpu.id
            (if t.vcpu.Vcpu.in_vel2 then "vEL2" else "vEL1"))
    end;
    delivered

(* Pend a virtual SError from outside the trap path (supervision and
   recovery campaigns): records the syndrome and arms the architectural
   bits so a snapshot taken before delivery carries the pending error. *)
let pend_vserror t ~syndrome =
  t.pending_vserror <- Some syndrome;
  Cpu.pend_vserror t.cpu ~syndrome

(* Tear down the nested VM but keep the guest hypervisor runnable: the
   supervision layer's graceful-degradation policy (Kill_l2_keep_l1).
   The vCPU is forcibly parked back in virtual EL2 at [resume_pc] (the
   guest hypervisor's vector), as if the nested VM had exited for the
   last time; nested-VM state is discarded.  Register pokes, not guest
   instructions — the caller accounts the policy's recovery cost. *)
let kill_l2 t ~resume_pc =
  let vcpu = t.vcpu in
  vcpu.Vcpu.nested_launched <- false;
  vcpu.Vcpu.in_vel2 <- true;
  vcpu.Vcpu.used_lrs <- 0;
  t.pending_irq <- None;
  t.pending_vserror <- None;
  t.l2_is_hyp <- false;
  t.l2_vncr <- None;
  t.in_l1 <- false;
  (* drop GPR snapshots from any interrupted trap context *)
  t.cpu.Cpu.saved_regs <- [];
  (* make the virtual-EL2 execution mapping live in the hardware twins *)
  List.iter
    (fun (el2_reg, twin) ->
      Cpu.poke_sysreg t.cpu twin (Vcpu.read_vel2 t.vcpu el2_reg))
    exec_mapping;
  if neve_on t then begin
    neve_populate t;
    set_vncr t ~enable:true
  end;
  expose_install ~charged:false t;
  Cpu.poke_sysreg t.cpu Sysreg.HCR_EL2 (hcr_for t ~vel2:true);
  t.cpu.Cpu.pstate <- Arm.Pstate.at Arm.Pstate.EL1;
  t.cpu.Cpu.pc <- resume_pc

let handler t _cpu (e : Exn.entry) =
  t.exits <- t.exits + 1;
  if debug_on () then
    Log.debug (fun m ->
        m "vcpu%d: exit #%d, %a" t.vcpu.Vcpu.id t.exits Exn.pp_entry e);
  l0_enter t;
  match e.Exn.ec with
  | Exn.EC_sysreg -> begin
    let iss = e.Exn.iss in
    let rt = Exn.sysreg_iss_rt iss and is_read = Exn.sysreg_iss_is_read iss in
    (* op1=5 alias space: _EL12 via op1=0, then _EL02 via op1=3 *)
    match Exn.sysreg_iss_access iss with
    | None ->
      (* A trap syndrome naming no register the simulator knows.  The
         encoding is guest-controlled (the guest executed the access),
         so this is not a simulator bug: do what KVM does with an
         unhandled sysreg trap and inject UNDEF into the guest. *)
      inject_undef t
    | Some access ->
    if t.l2_is_hyp && (not t.vcpu.Vcpu.in_vel2) && not t.in_l1 then
      (* the L2 hypervisor executed a hypervisor instruction: forward it
         to the L1 guest hypervisor for emulation (Section 4: "trap on
         hypervisor instructions to the L0 host hypervisor, which can
         then forward it to the L1 guest hypervisor") *)
      inject_vel2 t (Vcpu.Exit_hyp_insn { access; rt; is_read })
    else begin
      let switched = emulate_sysreg t ~access ~rt ~is_read in
      if not switched then begin
        l0_exit t;
        Cpu.do_eret t.cpu
      end
    end
  end
  | Exn.EC_hvc64 -> handle_hvc t (e.Exn.iss land 0xffff)
  | Exn.EC_eret ->
    if t.l2_is_hyp && (not t.vcpu.Vcpu.in_vel2) && not t.in_l1 then
      (* the L2 hypervisor's eret into its own nested VM (L3): also the
         L1 guest hypervisor's to emulate *)
      inject_vel2 t Vcpu.Exit_hyp_eret
    else emulate_eret t
  | Exn.EC_irq -> handle_irq t
  | Exn.EC_dabt_lower -> handle_dabt t e
  | Exn.EC_wfx -> handle_wfi t
  | Exn.EC_serror ->
    (* A physical SError reached L0 (HCR_EL2.AMO routing).  The host
       contains it: absorb the error, record the syndrome and re-arm the
       interrupted guest with a virtual SError so the error surfaces
       inside the VM instead of taking the machine down — KVM's
       kvm_inject_vabt containment path.  Delivery happens at the next
       operation boundary via [deliver_pending_vserror]. *)
    t.serror_contained <- t.serror_contained + 1;
    let syndrome = Int64.of_int (e.Exn.iss land 0x1ff_ffff) in
    t.pending_vserror <- Some syndrome;
    if debug_on () then
      Log.debug (fun m ->
          m "vcpu%d: contained physical SError, syndrome=0x%Lx" t.vcpu.Vcpu.id
            syndrome);
    l0_exit t;
    (* after l0_exit: activate_traps has installed the guest HCR, so the
       VSE bit set here survives into guest execution *)
    Cpu.pend_vserror t.cpu ~syndrome;
    Cpu.do_eret t.cpu
  | Exn.EC_smc64 | Exn.EC_svc64 | Exn.EC_unknown | Exn.EC_iabt_lower ->
    l0_exit t;
    Cpu.do_eret t.cpu

(* --- construction --- *)

(* The NEVE drain's slots for the common no-grant case, one per guest
   hypervisor design, so creating a host (once per fuzz column, once per
   migration) does no per-register work; a granted host computes its own.
   domain-safety: allowlisted global — built at module load, read-only
   afterwards. *)
let drain_ungranted =
  Array.map
    (fun vhe ->
      Core.Deferred_page.slots
        (drain_keeps (Config.v ~guest_vhe:vhe Config.Hw_neve) Expose.Policy.none))
    [| false; true |]

let no_drain = Core.Deferred_page.slots (fun _ -> false)


let create ?(id = 0) ?(expose = Expose.Policy.none) cpu config scenario =
  let vcpu = Vcpu.create ~id in
  let page = Core.Deferred_page.create cpu.Cpu.mem ~base:vcpu.Vcpu.page_base in
  let l0_ctx = vcpu.Vcpu.host_ctx_base in
  let guest_stash = Int64.add vcpu.Vcpu.host_ctx_base 0x2000L in
  (* the nested-exit copies address the stash by page offset *)
  if Memory.page_offset guest_stash <> 0 then
    invalid_arg "Host_hyp.create: the stash area must be page-aligned";
  let t =
    {
      cpu;
      config;
      scenario;
      expose;
      vcpu;
      page;
      l0_ctx;
      guest_stash;
      shadow_vttbr = 0x6000_0000L;
      on_vel2_entry = None;
      in_l1 = false;
      exits = 0;
      undef_injected = 0;
      pending_vserror = None;
      serror_contained = 0;
      serror_injected = 0;
      send_ipi = None;
      pending_irq = None;
      shadow = None;
      l2_is_hyp = false;
      l2_vncr = None;
      l0_plans = [];
      l0_cur = no_plan;
      nested_hcr = nested_hcr config;
      exposed = Reglists.index_array (exposed_regs expose);
      drain_slots =
        (if not (Config.is_neve config) then no_drain
         else if Expose.Policy.is_none expose then
           drain_ungranted.(if config.Config.guest_vhe then 1 else 0)
         else Core.Deferred_page.slots (drain_keeps config expose));
    }
  in
  cpu.Cpu.el2_handler <- Some (fun cpu e -> handler t cpu e);
  cpu.Cpu.features <- Config.hw_features config;
  t

(* Put the machine in "guest hypervisor running in virtual EL2" state,
   ready for the first nested launch. *)
let start_guest_hypervisor t =
  if t.config.Config.guest_vhe then
    Vcpu.write_vel2 t.vcpu Sysreg.HCR_EL2 Hcr.e2h;
  t.vcpu.Vcpu.in_vel2 <- true;
  Cpu.poke_sysreg t.cpu Sysreg.HCR_EL2 (hcr_for t ~vel2:true);
  if neve_on t then begin
    neve_populate t;
    set_vncr t ~enable:true
  end;
  expose_install ~charged:false t;
  t.cpu.Cpu.pstate <- Arm.Pstate.at Arm.Pstate.EL1

(* Put the machine in "plain VM running" state. *)
let start_vm t =
  t.vcpu.Vcpu.in_vel2 <- false;
  Cpu.poke_sysreg t.cpu Sysreg.HCR_EL2 basic_hcr;
  t.cpu.Cpu.pstate <- Arm.Pstate.at Arm.Pstate.EL1

let pp ppf t =
  Fmt.pf ppf "host{%a %s exits=%d}" Config.pp t.config
    (match t.scenario with Single_vm -> "vm" | Nested -> "nested")
    t.exits
