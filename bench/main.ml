(* Regenerates every table and figure of the paper from the simulated
   stacks: cycle counts, trap counts and overheads produced by the
   architectural model (Tables 1, 6, 7 and Figure 2, plus the ablation,
   recursion, migration, register-list and RISC-V rows), printed as
   paper-style tables.  Every number is simulated, so the output is
   deterministic.  The simulator's own speed is measured by perfbench
   (perfbench/NOTES.md). *)

let hr title =
  Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '-')

let paper_note fmt = Fmt.pr ("  paper: " ^^ fmt ^^ "@.")

let print_cycles rows =
  match rows with
  | [] -> ()
  | (first : Workloads.Micro.table_row) :: _ ->
    Fmt.pr "%-12s" "";
    List.iter (fun (l, _) -> Fmt.pr " %18s" l) first.Workloads.Micro.cells;
    Fmt.pr "@.";
    List.iter
      (fun (row : Workloads.Micro.table_row) ->
        Fmt.pr "%-12s" (Workloads.Micro.name row.Workloads.Micro.row_bench);
        List.iter
          (fun (_, (r : Workloads.Micro.result)) ->
            Fmt.pr " %18.0f" r.Workloads.Micro.cycles)
          row.Workloads.Micro.cells;
        Fmt.pr "@.")
      rows

let print_traps rows =
  match rows with
  | [] -> ()
  | (first : Workloads.Micro.table_row) :: _ ->
    Fmt.pr "%-12s" "";
    List.iter (fun (l, _) -> Fmt.pr " %18s" l) first.Workloads.Micro.cells;
    Fmt.pr "@.";
    List.iter
      (fun (row : Workloads.Micro.table_row) ->
        Fmt.pr "%-12s" (Workloads.Micro.name row.Workloads.Micro.row_bench);
        List.iter
          (fun (_, (r : Workloads.Micro.result)) ->
            Fmt.pr " %18.1f" r.Workloads.Micro.traps)
          row.Workloads.Micro.cells;
        Fmt.pr "@.")
      rows

let regen_table1 () =
  hr "Table 1: Microbenchmark Cycle Counts (VM and nested VM, ARMv8.3 / x86)";
  print_cycles (Workloads.Micro.table1 ~iters:8 ());
  paper_note
    "Hypercall 2,729 / 422,720 / 307,363 (ARM VM / nested / nested VHE),";
  paper_note "          1,188 / 36,345 (x86 VM / nested)"

let regen_table6 () =
  hr "Table 6: Microbenchmark Cycle Counts including NEVE";
  print_cycles (Workloads.Micro.table6 ~iters:8 ());
  paper_note "NEVE Hypercall 92,385 (non-VHE) / 100,895 (VHE)"

let regen_table7 () =
  hr "Table 7: Microbenchmark Average Trap Counts";
  print_traps (Workloads.Micro.table7 ~iters:8 ());
  paper_note "Hypercall 126 / 82 / 15 / 15 / 5 traps"

let regen_fig2 () =
  hr "Figure 2: Application Benchmark Performance (overhead vs native)";
  Fmt.pr "%a" Workloads.App_bench.pp_figure2 (Workloads.App_bench.figure2 ());
  paper_note "shape: v8.3 nested up to >40x on network workloads; NEVE";
  paper_note "within ~2-4x; Memcached on x86 ~8x vs ~2.5x on NEVE"

let regen_validation () =
  hr "Section 5: trap-cost interchangeability";
  let cpu = Arm.Cpu.create ~features:(Arm.Features.v Arm.Features.V8_3) () in
  Arm.Cpu.poke_sysreg cpu Arm.Sysreg.HCR_EL2
    (Hyp.Config.target_hcr (Hyp.Config.v Hyp.Config.Hw_v8_3));
  cpu.Arm.Cpu.el2_handler <- Some (fun c _ -> Arm.Cpu.do_eret c);
  cpu.Arm.Cpu.pstate <- Arm.Pstate.at Arm.Pstate.EL1;
  let cost insn =
    let c0 = cpu.Arm.Cpu.meter.Cost.cycles in
    Arm.Cpu.exec cpu insn;
    cpu.Arm.Cpu.meter.Cost.cycles - c0
  in
  List.iter
    (fun (name, insn) -> Fmt.pr "%-24s %4d cycles@." name (cost insn))
    [ ("hvc", Arm.Insn.Hvc 0);
      ("mrs HCR_EL2", Arm.Insn.Mrs (0, Arm.Sysreg.direct Arm.Sysreg.HCR_EL2));
      ("msr VTTBR_EL2", Arm.Insn.Msr (Arm.Sysreg.direct Arm.Sysreg.VTTBR_EL2, Arm.Insn.Reg 0));
      ("eret", Arm.Insn.Eret) ];
  paper_note "trapping EL1->EL2 68-76 cycles, return 65; <10%% spread"

(* One pre-copy migration per configuration: same busy-then-idle guest,
   so the downtime and convergence columns are comparable across
   mechanisms.  Each row also asserts the migration invariant — source
   and destination byte-identical — so the bench run doubles as a
   correctness sweep. *)
let regen_migration () =
  hr "Live migration: pre-copy rounds, write faults and downtime";
  let columns =
    (("VM", Workloads.Scenario.Arm_vm, Expose.Policy.none)
    :: List.map
         (fun c ->
           ( Hyp.Config.name c,
             Workloads.Scenario.Arm_nested c,
             Expose.Policy.none ))
         Hyp.Config.all_nested)
    @ [ (* the OoH headline: same guest, dirty captures trap-free *)
        ( "NEVE+ooh(dirty-log)",
          Workloads.Scenario.Arm_nested (Hyp.Config.v Hyp.Config.Hw_neve),
          Expose.Policy.of_list [ Expose.Policy.Dirty_log ] ) ]
  in
  Fmt.pr "%-19s %6s %10s %10s %12s %12s  %s@." "" "rounds" "captures"
    "pg-copied" "precopy-cyc" "downtime-cyc" "dirty/round";
  List.iter
    (fun (name, col, expose) ->
      let src = Workloads.Scenario.make_arm ~expose col in
      Hyp.Machine.hypercall src ~cpu:0;
      let workload m ~round =
        if round < 2 then begin
          Hyp.Machine.hypercall m ~cpu:0;
          for i = 0 to 5 do
            Arm.Memory.write64 m.Hyp.Machine.mem
              (Int64.of_int (0x7800_0000 + (4096 * i) + (8 * round)))
              (Int64.of_int (round + i + 1))
          done
        end
      in
      let dst, r = Snap.Migrate.run ~workload src in
      (match Snap.diff src dst with
      | None -> ()
      | Some (path, detail) ->
        failwith
          (Printf.sprintf "migration left %s different (%s): %s" path name
             detail));
      Fmt.pr "%-19s %6d %10d %10d %12d %12d  %s@." name
        r.Snap.Migrate.r_rounds r.Snap.Migrate.r_write_faults
        r.Snap.Migrate.r_pages_copied r.Snap.Migrate.r_precopy_cycles
        r.Snap.Migrate.r_downtime_cycles
        (String.concat " "
           (List.map string_of_int r.Snap.Migrate.r_dirty_per_round)))
    columns;
  paper_note "downtime = residual dirty pages x copy cost + state transfer;";
  paper_note "nested columns carry virtual EL2 state at the same downtime"

let regen_ablation () =
  hr "Ablation: per-mechanism contribution (nested hypercall traps)";
  Fmt.pr "%a" Workloads.Ablation.pp (Workloads.Ablation.run ());
  paper_note "NEVE = deferral + redirection + cached copies (Section 6);";
  paper_note "deferral carries most of the 126 -> 15 reduction"

let regen_recursive () =
  hr "Recursive virtualization (Section 6.2): L3 hypercall";
  Fmt.pr "%a" Workloads.Recursive.pp (Workloads.Recursive.run ());
  paper_note "the paper argues recursion works; the model quantifies it:";
  paper_note "exit multiplication compounds quadratically without NEVE"

let () =
  Fmt.pr "NEVE (SOSP 2017) reproduction — benchmark harness@.";
  regen_table1 ();
  regen_table6 ();
  regen_table7 ();
  regen_fig2 ();
  regen_validation ();
  regen_ablation ();
  regen_recursive ();
  regen_migration ();
  hr "Register-list scaling (traps per save+restore of n registers)";
  Fmt.pr "%a" Workloads.Sweep.pp (Workloads.Sweep.run ());
  hr "RISC-V counterpoint (Section 8): nested exit on the H-extension";
  Fmt.pr "%a" Riscv.Nested.pp (Riscv.Nested.run ());
  paper_note "RISC-V's built-in s*->vs* aliasing plays the role of VHE;";
  paper_note "a VNCR-like deferral would play the role of NEVE"
