(* Isolated per-call cost of single layers: reference-host ns per call
   and minor words per call, each layer called a fixed number of times
   (about 10 ms per batch on the v8.3 probe).

   Inputs come from a machine of the workload's own configuration: one
   left in virtual EL2 (the state the guest hypervisor's world-switch
   code runs in) for the trap, save/restore and deferred-page layers,
   and one booted end to end for the TLB, distributor and snapshot
   layers. *)

module Machine = Hyp.Machine

type cost = { name : string; ns : float; words : float; scale : string }
(* [ns] per call in reference-host ns; [scale] is the time unit
   reported: "ns" or "us". *)

let reps = 5

(* [calls] calls of [f] standing for [calls * per] layer calls, timed as
   [reps] reference-bracketed batches after a warm-up batch and a full
   major collection, so every layer starts from the same heap state.
   Minor words are counted exactly with Gc.minor_words. *)
let measure_one (name, per, scale, calls, f) =
  for _ = 1 to max 1 (calls / 10) do
    f ()
  done;
  Gc.full_major ();
  let b = Refk.open_ () in
  let words = ref 0. in
  for _ = 1 to reps do
    let w0 = Gc.minor_words () in
    let t0 = Refk.now_ns () in
    for _ = 1 to calls do
      f ()
    done;
    let t1 = Refk.now_ns () in
    words := !words +. (Gc.minor_words () -. w0);
    ignore (Refk.close b (t1 - t0))
  done;
  let n = float_of_int (reps * calls * per) in
  { name; ns = Refk.ref_ns b /. n; words = !words /. n; scale }

let measure ((cfg : Hyp.Config.t), expose) =
  (* virtual EL2 probe *)
  let hyp = Machine.create ~ncpus:2 ~expose cfg Hyp.Host_hyp.Nested in
  let host = hyp.Machine.hosts.(0) in
  Hyp.Host_hyp.start_guest_hypervisor host;
  let cpu = hyp.Machine.cpus.(0) in
  let vcpu = host.Hyp.Host_hyp.vcpu in
  let ga = Hyp.Gaccess.v cpu cfg ~page_base:vcpu.Hyp.Vcpu.page_base in
  let ops = Hyp.Gaccess.ops ga in
  let ctx = vcpu.Hyp.Vcpu.ctx_base in
  let vhe = cfg.Hyp.Config.guest_vhe in
  let regs = Hyp.Reglists.el1_state_arr in
  let route_insns =
    Arm.Insn.
      [|
        Mrs (0, Arm.Sysreg.direct Arm.Sysreg.ELR_EL2);
        Msr (Arm.Sysreg.direct Arm.Sysreg.HCR_EL2, Reg 1);
        Mrs (0, Arm.Sysreg.direct Arm.Sysreg.SCTLR_EL1);
        Hvc 0;
      |]
  in
  let features = cpu.Arm.Cpu.features in
  let hcr = Arm.Cpu.hcr_view cpu and vncr = Arm.Cpu.vncr_value cpu in
  let el = cpu.Arm.Cpu.pstate.Arm.Pstate.el in
  let route () =
    for i = 0 to Array.length route_insns - 1 do
      ignore
        (Arm.Trap_rules.route ~expose features ~hcr ~vncr ~el route_insns.(i))
    done
  in
  (* the same save at physical EL2, where no copy traps: the compiled
     copy loop the host's own world switch runs *)
  let el2 = Arm.Cpu.create ~features () in
  el2.Arm.Cpu.pstate <- Arm.Pstate.at Arm.Pstate.EL2;
  let ga_el2 = Hyp.Gaccess.v el2 cfg ~page_base:vcpu.Hyp.Vcpu.page_base in
  (* a bare CPU whose EL2 handler only returns: exception entry + eret *)
  let bare = Arm.Cpu.create ~features () in
  Arm.Cpu.poke_sysreg bare Arm.Sysreg.HCR_EL2 (Hyp.Config.target_hcr cfg);
  bare.Arm.Cpu.el2_handler <- Some (fun c _ -> Arm.Cpu.do_eret c);
  bare.Arm.Cpu.pstate <- Arm.Pstate.at Arm.Pstate.EL1;
  let meter = Cost.make_meter () in
  (* booted probe *)
  let booted = Workloads.Scenario.make_arm ~expose (Workloads.Scenario.Arm_nested cfg) in
  let ipa = 0x4000_0000L in
  Machine.smp_map booted ~cpu:0 ~ipa ~pa:0x8000_0000L;
  ignore (Machine.smp_read booted ~cpu:0 ~ipa);
  let smp = Machine.smp booted in
  let tlb = Mmu.Shootdown.tlb smp ~cpu:0 and vmid = Mmu.Shootdown.vmid smp in
  let s2_mem = Arm.Memory.create () in
  let s2 = Mmu.Stage2.create s2_mem (Mmu.Walk.allocator ~start:0x1000_0000L) ~vmid:1 in
  Mmu.Stage2.map_page s2 ~ipa ~pa:0x8000_0000L ~perms:Mmu.Pte.rw;
  let dist = booted.Machine.dist in
  let image = Snap.to_string booted in
  let tests =
    [
      ( "arm.trap_rules.route", Array.length route_insns, "ns", 50000, route);
      ( "arm.cpu.exec", 1, "ns", 400000,
        fun () -> Arm.Cpu.exec cpu (Arm.Insn.Add (9, 9, Arm.Insn.Imm 1L)) );
      ( "arm.cpu.trap_roundtrip", 1, "ns", 20000,
        fun () -> Arm.Cpu.exec bare (Arm.Insn.Hvc 0) );
      ( "hyp.gaccess.save_ctx", 1, "ns", 1000,
        fun () -> Hyp.Gaccess.save_ctx ga ~el12:false ~ctx regs );
      ( "hyp.world_switch.copy_el2", Array.length regs, "ns", 20000,
        fun () -> Hyp.Gaccess.save_ctx ga_el2 ~el12:false ~ctx regs );
      ( "hyp.gaccess.restore_ctx", 1, "ns", 1000,
        fun () -> Hyp.Gaccess.restore_ctx ga ~el12:false ~ctx regs );
      ( "hyp.world_switch.vm_el1_roundtrip", 1, "ns", 300,
        fun () ->
          Hyp.World_switch.save_vm_el1 ops ~vhe ~ctx;
          Hyp.World_switch.restore_vm_el1 ops ~vhe ~ctx );
      ( "cost.record_trap", 1, "ns", 1000000, fun () -> Cost.record_trap meter Cost.Trap_hvc);
      ( "core.deferred_page.populate", 1, "ns", 5000,
        fun () ->
          Core.Deferred_page.populate host.Hyp.Host_hyp.page
            ~read_virtual:(Hyp.Vcpu.read_vel2 vcpu) );
      ( "core.deferred_page.drain", 1, "ns", 5000,
        fun () ->
          Core.Deferred_page.drain host.Hyp.Host_hyp.page
            ~write_virtual:(Hyp.Vcpu.write_vel2 vcpu) );
      ( "mmu.tlb.lookup", 1, "ns", 200000,
        fun () -> ignore (Mmu.Tlb.lookup tlb ~vmid ~asid:0 ipa) );
      ( "mmu.stage2.translate", 1, "ns", 150000,
        fun () -> ignore (Mmu.Stage2.translate s2 ~ipa ~is_write:false) );
      ( "gic.dist.sgi_roundtrip", 1, "ns", 15000,
        fun () ->
          Gic.Dist.send_sgi dist ~src:0 ~dst:1 ~intid:7;
          match Gic.Dist.acknowledge dist ~cpu:1 with
          | Some intid -> Gic.Dist.eoi dist ~cpu:1 ~intid
          | None -> () );
      ( "snap.save", 1, "us", 100, fun () -> ignore (Snap.to_string booted));
      ( "snap.restore", 1, "us", 50, fun () -> ignore (Snap.restore image));
      ( "hyp.machine.create", 1, "ns", 400,
        fun () ->
          ignore (Machine.create ~ncpus:1 ~expose cfg Hyp.Host_hyp.Nested) );
    ]
  in
  let costs = List.map measure_one tests in
  (* emission cost of the in-program trace ring, tracing on *)
  Trace.enable ~capacity:4096 ();
  let emit = measure_one ( "trace.emit", 1, "ns", 200000, fun () -> Trace.emit ~cycles:1 Trace.Tlb_hit) in
  Trace.disable ();
  costs @ [ emit ]

let find costs name =
  match List.find_opt (fun c -> c.name = name) costs with
  | Some c -> c
  | None -> invalid_arg ("Layers.find: " ^ name)
