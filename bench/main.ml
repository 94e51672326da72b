(* The benchmark harness: regenerates every table and figure of the paper
   and runs one Bechamel benchmark per table/figure over the simulated
   stacks.

   Two kinds of numbers come out of this executable:

   1. The *simulated* results — cycle counts, trap counts and overheads
      produced by the architectural model.  These are the paper's numbers
      (Tables 1, 6, 7 and Figure 2) and are printed as paper-style tables.

   2. The *wall-clock* cost of producing them, measured by Bechamel (one
      Test.make per table/figure), which tracks the simulator's own
      performance. *)

open Bechamel
open Toolkit

(* --- paper tables, regenerated --- *)

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

(* --- bechamel benchmarks: one Test.make per table/figure --- *)

let nested_machine config =
  let m = Hyp.Machine.create ~ncpus:2 config Hyp.Host_hyp.Nested in
  Hyp.Machine.boot m;
  m

let test_table1 =
  (* the dominant cost of Table 1: a nested hypercall on ARMv8.3 *)
  let m = nested_machine (Hyp.Config.v Hyp.Config.Hw_v8_3) in
  Test.make ~name:"table1/nested-hypercall-v8.3"
    (Staged.stage (fun () -> Hyp.Machine.hypercall m ~cpu:0))

let test_table6 =
  let m = nested_machine (Hyp.Config.v Hyp.Config.Hw_neve) in
  Test.make ~name:"table6/nested-hypercall-neve"
    (Staged.stage (fun () -> Hyp.Machine.hypercall m ~cpu:0))

let test_table7 =
  let m = nested_machine (Hyp.Config.v ~guest_vhe:true Hyp.Config.Hw_neve) in
  Test.make ~name:"table7/nested-hypercall-neve-vhe"
    (Staged.stage (fun () -> Hyp.Machine.hypercall m ~cpu:0))

let test_table1_x86 =
  let t = X86.Turtles.create ~nested:true () in
  Test.make ~name:"table1/nested-hypercall-x86"
    (Staged.stage (fun () -> X86.Turtles.hypercall t))

let test_fig2 =
  Test.make ~name:"fig2/full-figure"
    (Staged.stage (fun () -> ignore (Workloads.App_bench.figure2 ())))

let test_validate =
  let cpu = Arm.Cpu.create ~features:(Arm.Features.v Arm.Features.V8_3) () in
  Arm.Cpu.poke_sysreg cpu Arm.Sysreg.HCR_EL2
    (Hyp.Config.target_hcr (Hyp.Config.v Hyp.Config.Hw_v8_3));
  cpu.Arm.Cpu.el2_handler <- Some (fun c _ -> Arm.Cpu.do_eret c);
  cpu.Arm.Cpu.pstate <- Arm.Pstate.at Arm.Pstate.EL1;
  Test.make ~name:"validate/single-trap"
    (Staged.stage (fun () -> Arm.Cpu.exec cpu (Arm.Insn.Hvc 0)))

(* ablation benches: the design-choice knobs DESIGN.md calls out *)
let test_ablation_pv =
  let m = nested_machine (Hyp.Config.v Hyp.Config.Pv_neve) in
  Test.make ~name:"ablation/neve-paravirt-twin"
    (Staged.stage (fun () -> Hyp.Machine.hypercall m ~cpu:0))

let test_ablation_ipi =
  let m = nested_machine (Hyp.Config.v Hyp.Config.Hw_neve) in
  Test.make ~name:"ablation/nested-ipi-neve"
    (Staged.stage (fun () ->
         Hyp.Machine.send_ipi m ~cpu:0 ~target:1 ~intid:5;
         match Hyp.Machine.vm_ack m ~cpu:1 with
         | Some v -> ignore (Hyp.Machine.vm_eoi m ~cpu:1 ~vintid:v)
         | None -> ()))

let test_migrate =
  (* full pre-copy migration of an idle nested NEVE+VHE guest: machine
     build, snapshot, restore, tracker attach/detach per iteration *)
  Test.make ~name:"migrate/nested-neve-vhe"
    (Staged.stage (fun () ->
         let src =
           Workloads.Scenario.make_arm
             (Workloads.Scenario.Arm_nested
                (Hyp.Config.v ~guest_vhe:true Hyp.Config.Hw_neve))
         in
         ignore
           (Snap.Migrate.run ~workload:(fun _ ~round:_ -> ()) src
             : Hyp.Machine.t * Snap.Migrate.report)))

let benchmarks () =
  let tests =
    [ test_table1; test_table1_x86; test_table6; test_table7; test_fig2;
      test_validate; test_ablation_pv; test_ablation_ipi; test_migrate ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"neve" tests)
  in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let merged = Analyze.merge ols instances results in
  hr "Bechamel: wall-clock cost of the simulator (ns per operation)";
  Hashtbl.iter
    (fun measure tbl ->
      let rows =
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      List.iter
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> Fmt.pr "%-40s %12.0f %s@." name e measure
          | _ -> Fmt.pr "%-40s %12s@." name "n/a")
        rows)
    merged

(* --- bench trajectory (--json): machine-readable throughput snapshot ---

   One row per simulated configuration: simulated-cycle throughput, trap
   rates (total and per exit class), and the wall-clock rate at which
   this build of the simulator retires simulated instructions.  Written
   to BENCH.json by default — CI passes [--out BENCH_PRn.json] to pin a
   snapshot per tree — so runs of successive trees can be diffed
   mechanically against the committed BENCH_PRn.json baselines. *)

type config_sample = {
  cs_name : string;
  cs_workload : string;
  cs_ops : int;
  cs_wall : float;
  cs_cycles : int;
  cs_insns : int;
  cs_traps : int;
  cs_breakdown : (string * int) list;  (* per-exit-class trap counts *)
  cs_exposed : (string * int) list;    (* per-feature OoH trap-free accesses *)
}

let sum_deltas ds =
  List.fold_left
    (fun (c, i, t) (d : Cost.delta) ->
      (c + d.Cost.d_cycles, i + d.Cost.d_insns, t + d.Cost.d_traps))
    (0, 0, 0) ds

(* Sum per-kind trap deltas across meters, reported in the stable
   [Cost.all_trap_kinds] order with zero rows dropped. *)
let merge_by_kind ds =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (d : Cost.delta) ->
      List.iter
        (fun (k, n) ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
          Hashtbl.replace tbl k (prev + n))
        d.Cost.d_by_kind)
    ds;
  List.filter_map
    (fun k ->
      match Hashtbl.find_opt tbl k with
      | Some n when n > 0 -> Some (Cost.trap_kind_name k, n)
      | _ -> None)
    Cost.all_trap_kinds

(* Same shape for the OoH exposed-access counters: per-feature totals
   across meters, in the stable [Expose.Policy.all_features] order with
   zero rows dropped.  Non-empty only on columns sampled under a grant. *)
let merge_exposed ds =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (d : Cost.delta) ->
      List.iter
        (fun (f, n) ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt tbl f) in
          Hashtbl.replace tbl f (prev + n))
        d.Cost.d_exposed)
    ds;
  List.filter_map
    (fun f ->
      match Hashtbl.find_opt tbl f with
      | Some n when n > 0 -> Some (Expose.Policy.feature_name f, n)
      | _ -> None)
    Expose.Policy.all_features

let sample_arm ~iters ?expose (name, col) =
  let m = Workloads.Scenario.make_arm ?expose col in
  let meters =
    Array.to_list
      (Array.map (fun (c : Arm.Cpu.t) -> c.Arm.Cpu.meter) m.Hyp.Machine.cpus)
  in
  let benches = Workloads.Micro.all in
  (* warm-up round: first-touch page tables, vGIC state *)
  List.iter (fun b -> Workloads.Micro.arm_op m b ()) benches;
  let snaps = List.map Cost.snapshot meters in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    List.iter (fun b -> Workloads.Micro.arm_op m b ()) benches
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let deltas = List.map2 Cost.delta_since meters snaps in
  let cycles, insns, traps = sum_deltas deltas in
  { cs_name = name; cs_workload = "micro4";
    cs_ops = iters * List.length benches; cs_wall = wall;
    cs_cycles = cycles; cs_insns = insns; cs_traps = traps;
    cs_breakdown = merge_by_kind deltas;
    cs_exposed = merge_exposed deltas }

let sample_x86 ~iters (name, col) =
  let t = Workloads.Scenario.make_x86 col in
  let meter = t.X86.Turtles.vtx.X86.Vtx.meter in
  X86.Turtles.hypercall t;
  let snap = Cost.snapshot meter in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    X86.Turtles.hypercall t
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let d = Cost.delta_since meter snap in
  { cs_name = name; cs_workload = "hypercall"; cs_ops = iters;
    cs_wall = wall; cs_cycles = d.Cost.d_cycles; cs_insns = d.Cost.d_insns;
    cs_traps = d.Cost.d_traps; cs_breakdown = merge_by_kind [ d ];
    cs_exposed = [] }

let buf_sample b s =
  let fop v = float_of_int v /. float_of_int s.cs_ops in
  let per_sec v =
    if s.cs_wall > 0. then float_of_int v /. s.cs_wall else 0.
  in
  Printf.bprintf b
    "    {\"config\": \"%s\", \"workload\": \"%s\", \"ops\": %d,\n\
    \     \"wall_seconds\": %.6f,\n\
    \     \"sim_cycles\": %d, \"sim_insns\": %d, \"traps\": %d,\n\
    \     \"sim_cycles_per_op\": %.1f, \"traps_per_op\": %.3f,\n\
    \     \"wall_ops_per_sec\": %.1f, \"wall_sim_insns_per_sec\": %.1f,\n\
    \     \"trap_breakdown\": {%s},\n\
    \     \"exposed_accesses\": {%s}}"
    (Trace.json_escape s.cs_name) s.cs_workload s.cs_ops s.cs_wall s.cs_cycles
    s.cs_insns s.cs_traps (fop s.cs_cycles) (fop s.cs_traps)
    (per_sec s.cs_ops) (per_sec s.cs_insns)
    (String.concat ", "
       (List.map
          (fun (k, n) -> Printf.sprintf "\"%s\": %d" (Trace.json_escape k) n)
          s.cs_breakdown))
    (String.concat ", "
       (List.map
          (fun (k, n) -> Printf.sprintf "\"%s\": %d" (Trace.json_escape k) n)
          s.cs_exposed))

(* the argument after [--out], if any; CI passes it explicitly so the
   default only serves interactive runs *)
let out_path () =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--out" then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  Option.value ~default:"BENCH.json" (find 1)

let run_json () =
  let iters = 1000 in
  let arm_cols =
    Workloads.Micro.arm_columns_table1 @ Workloads.Micro.arm_columns_neve
  in
  (* OoH twins: every nested column resampled under a Timer+Gic_lrs
     grant, so the trajectory records exposed-access counters alongside
     the trap breakdown they displace *)
  let ooh_grant =
    Expose.Policy.of_list [ Expose.Policy.Timer; Expose.Policy.Gic_lrs ]
  in
  let ooh_cols =
    List.filter_map
      (fun (name, col) ->
        match col with
        | Workloads.Scenario.Arm_nested _ -> Some (name ^ " (ooh)", col)
        | _ -> None)
      arm_cols
  in
  let samples =
    List.map (sample_arm ~iters) arm_cols
    @ List.map (sample_arm ~iters ~expose:ooh_grant) ooh_cols
    @ List.map (sample_x86 ~iters) Workloads.Micro.x86_columns
  in
  let total_wall = List.fold_left (fun a s -> a +. s.cs_wall) 0. samples in
  let total_insns = List.fold_left (fun a s -> a + s.cs_insns) 0 samples in
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "{\n  \"schema\": \"neve-bench-trajectory/3\",\n\
    \  \"iters\": %d,\n  \"total_wall_seconds\": %.6f,\n\
    \  \"total_sim_insns\": %d,\n\
    \  \"wall_sim_insns_per_sec\": %.1f,\n  \"configs\": [\n"
    iters total_wall total_insns
    (if total_wall > 0. then float_of_int total_insns /. total_wall else 0.);
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      buf_sample b s)
    samples;
  Buffer.add_string b "\n  ]\n}\n";
  let path = out_path () in
  let oc = open_out path in
  output_string oc (Buffer.contents b);
  close_out oc;
  List.iter
    (fun s ->
      Fmt.pr "%-14s %8.3fs wall  %10.1f sim-insns/s  %6.3f traps/op@."
        s.cs_name s.cs_wall
        (if s.cs_wall > 0. then float_of_int s.cs_insns /. s.cs_wall else 0.)
        (float_of_int s.cs_traps /. float_of_int s.cs_ops))
    samples;
  Fmt.pr "wrote %s@." path

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
  if Array.exists (fun a -> a = "--json") Sys.argv then run_json ()
  else begin
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
  paper_note "a VNCR-like deferral would play the role of NEVE";
  benchmarks ();
  Fmt.pr "@.done.@."
  end
