(* The host hypervisor's per-trap path: full-state pins and an
   allocation gate.

   The compiled L0 exit path (page-resolved save/restore loops, trap
   controls and nested-exit copies replayed from per-HCR route tables,
   table-driven syndrome decode) promises to be replay-exact against
   the routed instruction path it replaces.  The Table goldens only see
   cycles and trap counts; the pins below hash the whole machine image
   (stash page, sysreg files with their dirty bitmaps, meters, PC, GPR
   snapshots) after a fixed nested operation mix, so any drift in what
   the path writes, or in what order the write observer sees it, fails
   here.  The digests were captured before the path was compiled and
   must never move without a documented reason. *)

module Cpu = Arm.Cpu
module Sysreg = Arm.Sysreg
module Exn = Arm.Exn
module Config = Hyp.Config
module Machine = Hyp.Machine
module Scenario = Workloads.Scenario
module WS = Hyp.World_switch

(* hvc, MMIO write and read, IPI with ack/EOI, device IRQ with ack/EOI,
   plain computation — each at least twice so warmed plans replay. *)
let op_mix m =
  for _ = 1 to 2 do
    Machine.hypercall m ~cpu:0;
    Machine.mmio_access m ~cpu:0 ~addr:0x0a00_0000L ~is_write:true;
    Machine.mmio_access m ~cpu:0 ~addr:0x0a00_0008L ~is_write:false;
    Machine.send_ipi m ~cpu:0 ~target:1 ~intid:5;
    (match Machine.vm_ack m ~cpu:1 with
     | Some v -> ignore (Machine.vm_eoi m ~cpu:1 ~vintid:v : bool)
     | None -> ());
    Machine.device_irq m ~cpu:0 ~intid:Gic.Irq.virtio_net_spi;
    (match Machine.vm_ack m ~cpu:0 with
     | Some v -> ignore (Machine.vm_eoi m ~cpu:0 ~vintid:v : bool)
     | None -> ());
    Machine.compute m ~cpu:0 ~insns:32;
    Machine.hypercall m ~cpu:1
  done

let hex = Printf.sprintf "%016Lx"

let image_digest m = hex (Shard.fnv1a_64 (Snap.to_string m))

let nested ?(vhe = false) mech = Scenario.Arm_nested (Config.v ~guest_vhe:vhe mech)

let columns =
  [
    ("vm", Scenario.Arm_vm);
    ("v8.3", nested Config.Hw_v8_3);
    ("v8.3-vhe", nested ~vhe:true Config.Hw_v8_3);
    ("neve", nested Config.Hw_neve);
    ("neve-vhe", nested ~vhe:true Config.Hw_neve);
  ]

let run_column ?expose col =
  let m = Scenario.make_arm ?expose col in
  op_mix m;
  image_digest m

(* The same mix with stage-2 dirty tracking attached and every page
   re-protected: each first store to a page (the stash and context pages
   included) takes a fault that charges the meter mid-copy, so the
   digest pins both the set of observed stores and their order against
   the meter. *)
let run_dirty col =
  let m = Scenario.make_arm col in
  let meter = m.Machine.cpus.(0).Cpu.meter in
  let faults = ref [] in
  let tracker =
    Mmu.Dirty.attach
      ~on_fault:(fun page ->
        faults := (page, meter.Cost.cycles) :: !faults;
        Cost.record_trap ~detail:"dirty-log" meter Cost.Trap_mem_fault)
      m.Machine.mem
  in
  Mmu.Dirty.clear tracker;
  op_mix m;
  Mmu.Dirty.detach tracker;
  let log =
    String.concat ";"
      (List.rev_map (fun (p, c) -> Printf.sprintf "%Lx@%d" p c) !faults)
  in
  hex (Shard.fnv1a_64 ~init:(Shard.fnv1a_64 log) (Snap.to_string m))

let pins () =
  List.map (fun (name, col) -> (name, run_column col)) columns
  @ [
      ("v8.3+dirty", run_dirty (nested Config.Hw_v8_3));
      ("neve-vhe+dirty", run_dirty (nested ~vhe:true Config.Hw_neve));
      ( "neve-vhe+ooh",
        run_column
          ~expose:Expose.Policy.(of_list [ Timer; Gic_lrs ])
          (nested ~vhe:true Config.Hw_neve) );
      ("v8.3-pv", run_column (nested Config.Pv_v8_3));
      ("neve-pv", run_column (nested Config.Pv_neve));
    ]

(* Captured on the routed (pre-compilation) exit path. *)
let pinned =
  [
    ("vm", "ea5eae743309d86b");
    ("v8.3", "f0e9b017e07b5c41");
    ("v8.3-vhe", "fdd8d6cdb32edb5e");
    ("neve", "516060722ea20b32");
    ("neve-vhe", "2ea86876bef9991e");
    ("v8.3+dirty", "fe3bd77eb62c109f");
    ("neve-vhe+dirty", "2af9ea34d7f80a36");
    ("neve-vhe+ooh", "740f8797c665efec");
    ("v8.3-pv", "29a52526c3a9cf84");
    ("neve-pv", "9b358448ffa359eb");
  ]

let test_full_state_pins () =
  let got = pins () in
  List.iter
    (fun (name, want) ->
      Alcotest.(check string) ("image digest, " ^ name) want (List.assoc name got))
    pinned

(* The dirty-tracked pins only mean something if the tracker saw the
   host's own world-switch stores: the stash page (vCPU 0's host context
   area + 0x2000) must be among the pages it logged. *)
let test_observer_sees_stash () =
  let m = Scenario.make_arm (nested Config.Hw_v8_3) in
  let host = m.Machine.hosts.(0) in
  let tracker = Mmu.Dirty.attach m.Machine.mem in
  Mmu.Dirty.clear tracker;
  Machine.hypercall m ~cpu:0;
  Mmu.Dirty.detach tracker;
  Alcotest.(check bool)
    "stash page logged dirty" true
    (List.mem host.Hyp.Host_hyp.guest_stash (Mmu.Dirty.dirty_pages tracker))

(* The PC never survives a trap (the handler's eret reloads it), so the
   image pins cannot see it: check the exit path's own end state — one
   instruction per copy half and per trap-control write, 4 bytes of PC
   each, x9 left holding the last restored value. *)
let test_exit_path_end_state () =
  let config = Config.v Config.Hw_v8_3 in
  let cpu = Cpu.create ~features:(Config.hw_features config) () in
  let host = Hyp.Host_hyp.create cpu config Hyp.Host_hyp.Nested in
  Cpu.poke_sysreg cpu Sysreg.HCR_EL2 (Hyp.Host_hyp.hcr_for host ~vel2:false);
  Cpu.poke_sysreg cpu Sysreg.TPIDRRO_EL0 0x7e57L;
  let m = cpu.Cpu.meter in
  let step f =
    let pc0 = cpu.Cpu.pc and i0 = m.Cost.insns in
    f host;
    (Int64.to_int (Int64.sub cpu.Cpu.pc pc0), m.Cost.insns - i0)
  in
  let el1 = List.length Hyp.Reglists.el1_state
  and el0 = List.length Hyp.Reglists.el0_state in
  let pc, insns = step Hyp.Host_hyp.l0_enter in
  Alcotest.(check int) "l0_enter instructions" ((2 * (el1 + el0)) + (2 * el1) + 4) insns;
  Alcotest.(check int) "l0_enter PC" (4 * insns) pc;
  Alcotest.(check int64) "trap controls cleared" 0L (Cpu.peek_sysreg cpu Sysreg.HCR_EL2);
  let pc, insns = step Hyp.Host_hyp.l0_exit in
  Alcotest.(check int) "l0_exit instructions" ((2 * (el1 + el0)) + 5) insns;
  Alcotest.(check int) "l0_exit PC" (4 * insns) pc;
  Alcotest.(check int64) "x9 holds the last restored value" 0x7e57L (Cpu.get_reg cpu 9);
  Alcotest.(check int64) "MDCR re-armed" WS.mdcr_active (Cpu.peek_sysreg cpu Sysreg.MDCR_EL2)

(* --- allocation gate ---

   Minor-heap words per trap across warmed nested hypercalls.  The
   compiled exit path leaves mostly the guest side and the exception
   entry allocating; a routed MSR costs about 21 words, and the exit
   path runs 9 trap-control writes per trap, so routing coming back onto
   it breaks these bounds.  The count is deterministic for a fixed
   compiler (CI pins OCaml 5.1). *)
let words_per_trap col =
  let m = Scenario.make_arm col in
  for _ = 1 to 3 do
    Machine.hypercall m ~cpu:0
  done;
  let t0 = Machine.total_traps m in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10 do
    Machine.hypercall m ~cpu:0
  done;
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int (Machine.total_traps m - t0)

let gate name col bound () =
  let w = words_per_trap col in
  if w > bound then
    Alcotest.failf "%s: %.1f minor words per trap, bound %.0f" name w bound

(* --- syndrome decode ---

   The table-driven decode against the lookup chain it replaced, over
   every 16-bit encoding (both directions, a varying Rt): the register
   with exactly this encoding, else the Op1=0 register through _EL12,
   else the Op1=3 register through _EL02. *)
let reference_decode (op0, op1, crn, crm, op2) =
  match Sysreg.of_enc (op0, op1, crn, crm, op2) with
  | Some r -> Some (Sysreg.direct r)
  | None -> (
    match Sysreg.of_enc (op0, 0, crn, crm, op2) with
    | Some r -> Some (Sysreg.el12 r)
    | None -> (
      match Sysreg.of_enc (op0, 3, crn, crm, op2) with
      | Some r -> Some (Sysreg.el02 r)
      | None -> None))

let test_decode_exhaustive () =
  let found = ref 0 in
  for op0 = 0 to 3 do
    for op1 = 0 to 7 do
      for crn = 0 to 15 do
        for crm = 0 to 15 do
          for op2 = 0 to 7 do
            let enc = (op0, op1, crn, crm, op2) in
            let want = reference_decode enc in
            let rt = (crn + crm + op2) land 0x1f in
            List.iter
              (fun is_read ->
                let iss =
                  (if is_read then 1 else 0)
                  lor (crm lsl 1) lor (rt lsl 5) lor (crn lsl 10)
                  lor (op1 lsl 14) lor (op2 lsl 17) lor (op0 lsl 20)
                in
                if Exn.sysreg_iss_access iss <> want then
                  Alcotest.failf "decode differs at op0=%d op1=%d CRn=%d CRm=%d op2=%d"
                    op0 op1 crn crm op2;
                if Exn.sysreg_iss_rt iss <> rt || Exn.sysreg_iss_is_read iss <> is_read
                then Alcotest.fail "Rt/direction field")
              [ true; false ];
            if want <> None then incr found
          done
        done
      done
    done
  done;
  (* every register, plus the alias fallbacks *)
  Alcotest.(check bool) "decodes every register" true (!found > Sysreg.count)

let suite =
  [
    ("full-state pins (5 columns, dirty, OoH, paravirt)", `Quick, test_full_state_pins);
    ("dirty tracking observes the stash page", `Quick, test_observer_sees_stash);
    ("exit path end state: instructions, PC, x9", `Quick, test_exit_path_end_state);
    ("allocation gate: v8.3 nested hypercall", `Quick,
     gate "v8.3" (nested Config.Hw_v8_3) 180.);
    ("allocation gate: NEVE nested hypercall", `Quick,
     gate "neve" (nested Config.Hw_neve) 340.);
    ("syndrome decode matches the lookup chain", `Quick, test_decode_exhaustive);
  ]
