(* Machine reuse in the differential oracle.

   [Fuzz.Diff] runs every program on one machine per column per domain
   and puts it back in its creation state with [Machine.reset] after
   each run.  These tests hold that protocol to the one it replaced — a
   fresh [Machine.create] per column per program:

   - a reset machine serializes ([Snap.to_string]) to the same bytes as
     a fresh one, after ordinary programs and after one that raised
     mid-run;
   - the oracle's observations equal a reference column built here from
     public calls on fresh machines, observed the old way (lists of
     named non-reset registers and nonzero scratch words);
   - a program run right after one that raised observes exactly what it
     observes on a new domain (fresh pool);
   - the compiled host exit plans do not grow with the number of
     programs (a reset that replaced the CPU's feature record would make
     every plan lookup miss). *)

module Sysreg = Arm.Sysreg
module Sysreg_file = Arm.Sysreg_file
module Memory = Arm.Memory
module Cpu = Arm.Cpu
module Interp = Arm.Interp
module Pstate = Arm.Pstate
module Config = Hyp.Config
module Machine = Hyp.Machine
module Host_hyp = Hyp.Host_hyp
module Diff = Fuzz.Diff

let check = Alcotest.check

let programs ~seed n =
  let g = Fuzz.Gen.create ~seed in
  List.init n (fun _ -> Fuzz.Prog.to_words (Fuzz.Gen.program g))

(* Traps, then stops at an unaligned load: [Memory] raises
   Invalid_argument mid-run, with the guest hypervisor in virtual EL2,
   the deferred page populated and the meter running. *)
let raising_program =
  Fuzz.Prog.to_words
    [
      Fuzz.Prog.Straight
        [
          Arm.Insn.Mov (0, Arm.Insn.Imm 0x1234L);
          Arm.Insn.Msr (Sysreg.direct Sysreg.TPIDR_EL2, Arm.Insn.Reg 0);
          Arm.Insn.Mrs (1, Sysreg.direct Sysreg.VBAR_EL2);
          Arm.Insn.Hvc 0;
          Arm.Insn.Mov (2, Arm.Insn.Imm 0x1003L);
          Arm.Insn.Ldr (3, Arm.Insn.Based (2, 8L));
        ];
    ]

let fresh (c : Diff.column) =
  Machine.create ~ncpus:1 ~expose:c.Diff.col_expose c.Diff.col_config
    Host_hyp.Nested

(* --- the reference column: the oracle's run protocol on a machine we
   are handed, observed the way the oracle observed before it went
   flat --- *)

type view = {
  v_error : string option;
  v_outcome : string;
  v_pc : int64;
  v_pstate : string;
  v_in_vel2 : bool;
  v_regs : int64 array;
  v_vel2 : (string * int64) list;
  v_vel1 : (string * int64) list;
  v_mem : (int64 * int64) list;
  v_traps : int;
  v_cycles : int;
}

let no_view =
  {
    v_error = None; v_outcome = ""; v_pc = 0L; v_pstate = "";
    v_in_vel2 = false; v_regs = [||]; v_vel2 = []; v_vel1 = []; v_mem = [];
    v_traps = 0; v_cycles = 0;
  }

let named_non_reset file =
  List.filter_map
    (fun r ->
      let v = Sysreg_file.read file r in
      if v <> Sysreg_file.reset_value r then Some (Sysreg.name r, v) else None)
    Sysreg.all

let nonzero_scratch mem =
  List.filter_map
    (fun i ->
      let a = Int64.of_int (Fuzz.Gen.scratch_base + (8 * i)) in
      let v = Memory.read64 mem a in
      if v <> 0L then Some (a, v) else None)
    (List.init (Fuzz.Gen.scratch_len / 8) Fun.id)

let run_on m config words =
  let cpu = m.Machine.cpus.(0) and host = m.Machine.hosts.(0) in
  let vcpu = host.Host_hyp.vcpu in
  try
    Host_hyp.start_guest_hypervisor host;
    let page_base = vcpu.Hyp.Vcpu.page_base in
    let text =
      if Config.is_paravirt config then
        Hyp.Paravirt.patch_text config ~page_base words
      else words
    in
    Interp.load m.Machine.mem ~base:Diff.text_base text;
    Cpu.set_reg cpu Hyp.Paravirt.page_base_reg page_base;
    let stop _ = not vcpu.Hyp.Vcpu.in_vel2 in
    let outcome =
      Interp.run cpu ~stop ~entry:Diff.text_base
        ~max_insns:(Diff.budget_for words)
    in
    let pc = cpu.Cpu.pc and pstate = Fmt.str "%a" Pstate.pp cpu.Cpu.pstate in
    let in_vel2 = vcpu.Hyp.Vcpu.in_vel2 in
    if in_vel2 then Hyp.Gaccess.eret (Hyp.Gaccess.v cpu config ~page_base);
    {
      v_error = None;
      v_outcome = Fmt.str "%a" Interp.pp_outcome outcome;
      v_pc = pc;
      v_pstate = pstate;
      v_in_vel2 = in_vel2;
      v_regs = Array.init 31 (Cpu.get_reg cpu);
      v_vel2 = named_non_reset vcpu.Hyp.Vcpu.vel2;
      v_vel1 = named_non_reset vcpu.Hyp.Vcpu.vel1;
      v_mem = nonzero_scratch m.Machine.mem;
      v_traps = cpu.Cpu.meter.Cost.traps;
      v_cycles = cpu.Cpu.meter.Cost.cycles;
    }
  with e ->
    {
      no_view with
      v_error = Some (Printexc.to_string e);
      v_traps = cpu.Cpu.meter.Cost.traps;
      v_cycles = cpu.Cpu.meter.Cost.cycles;
    }

(* The oracle's flat observation, decoded back into the same view. *)
let records b =
  List.init (Bytes.length b / 16) (fun k ->
      (Bytes.get_int64_ne b (16 * k), Bytes.get_int64_ne b ((16 * k) + 8)))

let view_of_obs (o : Diff.obs) =
  match o.Diff.ob_error with
  | Some _ ->
    { no_view with v_error = o.ob_error; v_traps = o.ob_traps;
      v_cycles = o.ob_cycles }
  | None ->
    let named b =
      List.map
        (fun (i, v) -> (Sysreg.name (Sysreg.of_index (Int64.to_int i)), v))
        (records b)
    in
    {
      v_error = None;
      v_outcome = o.ob_outcome;
      v_pc = o.ob_pc;
      v_pstate = Fmt.str "%a" Pstate.pp o.ob_pstate;
      v_in_vel2 = o.ob_in_vel2;
      v_regs = o.ob_regs;
      v_vel2 = named o.ob_vel2;
      v_vel1 = named o.ob_vel1;
      v_mem = records o.ob_mem;
      v_traps = o.ob_traps;
      v_cycles = o.ob_cycles;
    }

(* --- reset equals creation, byte for byte --- *)

(* Fuzz programs never leave virtual EL2 for the nested VM, so they
   leave the guest hypervisor's exit state and the distributor alone;
   booting and running guest operations reaches those too.  An IPI
   completes at the distributor, so an SGI is left pending and an SPI
   record created there directly. *)
let run_ops m =
  Machine.boot m;
  Machine.hypercall m ~cpu:0;
  Machine.send_ipi m ~cpu:0 ~target:0 ~intid:3;
  Machine.device_irq m ~cpu:0 ~intid:40;
  Machine.mmio_access m ~cpu:0 ~addr:0x0a00_0000L ~is_write:true;
  Machine.compute m ~cpu:0 ~insns:100;
  Gic.Dist.send_sgi m.Machine.dist ~src:0 ~dst:0 ~intid:9;
  Gic.Dist.enable m.Machine.dist ~cpu:0 ~intid:40

let dist_records m =
  let d = m.Machine.dist in
  ( d.Gic.Dist.enabled,
    Hashtbl.fold (fun k r acc -> (k, r) :: acc) d.Gic.Dist.banked [],
    Hashtbl.fold (fun k r acc -> (k, r) :: acc) d.Gic.Dist.shared [] )

let test_reset_equals_fresh () =
  let dirtiers =
    (fun m config -> (run_on m config raising_program).v_error <> None)
    :: (fun m _ -> run_ops m; true)
    :: List.map
         (fun words m config -> ignore (run_on m config words); true)
         (programs ~seed:21 4)
  in
  List.iter
    (fun (c : Diff.column) ->
      let pristine = Snap.to_string (fresh c) in
      let m = fresh c in
      List.iteri
        (fun k dirty ->
          let raised = dirty m c.Diff.col_config in
          if k = 0 then
            check Alcotest.bool
              (c.Diff.col_name ^ ": the raising program raised")
              true raised;
          check Alcotest.bool
            (Printf.sprintf "%s, program %d: the run changed the machine"
               c.Diff.col_name k)
            false
            (Snap.to_string m = pristine);
          Machine.reset m;
          check Alcotest.string
            (Printf.sprintf "%s, program %d: reset image = fresh image"
               c.Diff.col_name k)
            pristine (Snap.to_string m);
          (* the distributor is not part of the image: its records, in
             iteration order (which breaks priority ties), must be a
             fresh machine's *)
          check Alcotest.bool
            (c.Diff.col_name ^ ": distributor records = fresh records")
            true
            (dist_records m = dist_records (fresh c)))
        dirtiers)
    Diff.columns

let refuses what m =
  check Alcotest.bool ("Machine.reset raises on a machine carrying " ^ what)
    true
    (match Machine.reset m with
     | () -> false
     | exception Invalid_argument _ -> true)

(* Reset restores only what [Machine.create] builds: anything attached
   afterwards would survive it (or be silently cut off), so it is
   refused instead. *)
let test_reset_refuses_attachments () =
  let neve () = Machine.create (Config.v Config.Hw_neve) Host_hyp.Nested in
  refuses "a fault plan"
    (Machine.create ~fault_plan:(Fault.Plan.make ~seed:1 ~faults:2 ~horizon:100)
       (Config.v Config.Hw_neve) Host_hyp.Nested);
  let m = neve () in
  ignore (Mmu.Dirty.attach m.Machine.mem);
  refuses "a dirty tracker" m;
  let m = neve () in
  ignore
    (Workloads.Virtio_mmio.attach m ~cpu:0 ~base:0x0a00_0000L
       ~device:Workloads.Virtio_mmio.Net ~intid:48 ());
  refuses "a device backend" m;
  let m = neve () in
  m.Machine.dist.Gic.Dist.inject <- Some (fun ~cpu:_ ~intid:_ -> Gic.Dist.Drop);
  refuses "a distributor injection hook" m

(* --- the oracle against fresh-machine reference columns --- *)

let check_against_reference ~seed words =
  let res = Diff.run_words words in
  List.iter
    (fun ((c : Diff.column), o) ->
      let reference = run_on (fresh c) c.Diff.col_config words in
      if view_of_obs o <> reference then
        Alcotest.failf "seed %d, %s: oracle observation differs from a fresh \
                        machine's" seed c.Diff.col_name)
    res.Diff.res_obs

let test_matches_fresh_reference () =
  List.iter
    (fun seed ->
      List.iter (check_against_reference ~seed) (programs ~seed 250))
    [ 4; 42 ];
  (* the raising program itself, and what follows it *)
  check_against_reference ~seed:0 raising_program;
  List.iter (check_against_reference ~seed:7) (programs ~seed:7 3)

let test_after_raise_equals_new_domain () =
  let raised = Diff.run_words raising_program in
  check Alcotest.bool "some column raised" true
    (List.exists (fun (_, o) -> o.Diff.ob_error <> None) raised.Diff.res_obs);
  List.iter
    (fun words ->
      let here = Diff.run_words words in
      let there = Domain.join (Domain.spawn (fun () -> Diff.run_words words)) in
      List.iter2
        (fun (c, o) (_, o') ->
          check Alcotest.bool
            (c.Diff.col_name ^ ": same observation as on a new domain")
            true (o = o'))
        here.Diff.res_obs there.Diff.res_obs;
      check
        (Alcotest.list Alcotest.string)
        "same divergences"
        (List.map Diff.divergence_to_string there.Diff.res_divergences)
        (List.map Diff.divergence_to_string here.Diff.res_divergences))
    (programs ~seed:13 3)

(* --- compiled caches stay bounded --- *)

let plan_counts () =
  List.map
    (fun (c : Diff.column) ->
      let m = Diff.column_machine ~expose:c.Diff.col_expose c.Diff.col_config in
      ( c.Diff.col_name,
        List.length m.Machine.hosts.(0).Host_hyp.l0_plans ))
    Diff.columns

let test_plans_stay_bounded () =
  let after_10 = ref [] in
  List.iteri
    (fun i words ->
      ignore (Diff.run_words words);
      if i = 9 then after_10 := plan_counts ())
    (programs ~seed:99 1000);
  List.iter
    (fun (name, n) -> check Alcotest.bool (name ^ ": plans compiled") true (n > 0))
    !after_10;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "l0_plans after 1,000 programs = after 10" !after_10 (plan_counts ())

let suite =
  [
    Alcotest.test_case "reset image equals a fresh machine's, every column"
      `Quick test_reset_equals_fresh;
    Alcotest.test_case "reset refuses what create does not build" `Quick
      test_reset_refuses_attachments;
    Alcotest.test_case "oracle matches fresh-machine reference columns" `Slow
      test_matches_fresh_reference;
    Alcotest.test_case "a run after a raise equals a new domain's" `Quick
      test_after_raise_equals_new_domain;
    Alcotest.test_case "exit plans stay bounded over 1,000 programs" `Slow
      test_plans_stay_bounded;
  ]
