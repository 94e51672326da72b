(* The benchmark of the NEVE reproduction.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --self-check

   Every run executes a fixed number of units, [units_per_s * S] of the
   workload's seeded input stream, so each simulated count, the heap
   peak, the GC schedule and the failed share repeat exactly for a
   (workload, seed, S).  Host time is read in reference-host time (see
   Refk): a fixed kernel runs before and after every slice of units.

   [--trace 0] sets the workload up [setup_warm + setup_timed] times
   (setup_s is the median of the timed repeats), runs the units
   untraced and prints every end-to-end metric.  [--trace 1] measures
   the isolated per-call cost of each layer, runs the units untraced and
   then again traced (spans and the in-program trace ring on), checks
   that the two runs' simulated counts agree unit for unit, and prints
   the per-layer metrics; spans and the ledger go to perfbench/_out/.

   Both modes check the program's outputs; [--self-check] runs only the
   checks, for every workload.  The last line of standard output is one
   JSON object: correct, attempted, failed, metrics. *)

let now_ns = Refk.now_ns
let out_dir = Filename.concat "perfbench" "_out"
let setup_warm = 2
let setup_timed = 9
let ring_capacity = 1 lsl 18

(* --- one fixed-work pass over the unit stream --- *)

type pass = {
  units : Sim.units;
  refb : Refk.t;
      (* Σ host ns of the slices (input generation and machine turnover
         between units included) and their reference brackets *)
  lat : float array;  (* per-unit host time of [run], reference ns *)
  words : float;      (* minor words allocated by the units *)
  major_gcs : int;
  counters : int array;
  copies : int;       (* World_switch.reg_copies over the pass *)
  events : (string, int) Hashtbl.t;
      (* traced: events per kind; traps keyed "trap:<class>", exposed
         accesses "exposed:<feature>" *)
  raised : int;
  trace_bad : string option;  (* first unit whose class total <> meter traps *)
  dropped : int;              (* ring overwrites inside one unit *)
}

let bump tbl k n =
  Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let count_events tbl =
  List.iter
    (fun (v : Trace.view) ->
      bump tbl (Trace.kind_name v.Trace.v_kind) 1;
      match v.Trace.v_kind with
      | Trace.Trap -> bump tbl ("trap:" ^ v.Trace.v_cls) 1
      | Trace.Exposed_access -> bump tbl ("exposed:" ^ v.Trace.v_cls) 1
      | _ -> ())
    (Trace.events ())

let run_pass (w : Work.t) (inst : Work.instance) ~traced n =
  let units = Sim.units n in
  let u = Sim.make () in
  let lat = Array.make n 0. in
  let events = Hashtbl.create 64 in
  let trace_bad = ref None and dropped = ref 0 and raised = ref 0 in
  let words = ref 0. in
  if traced then begin
    Trace.enable ~capacity:ring_capacity ();
    Spans.on := true
  end;
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let copies0 = Hyp.World_switch.reg_copies () in
  let refb = Refk.open_ () in
  let first = ref 0 in
  while !first < n do
    let last = min n (!first + w.Work.slice) in
    let slice_ns = ref 0 in
    for k = !first to last - 1 do
      let t0 = now_ns () in
      let w0 = Gc.minor_words () in
      inst.Work.prepare units k;
      if traced then Trace.reset ();
      Sim.clear u;
      Spans.current_unit := k;
      let d = Spans.depth_now () in
      let t1 = now_ns () in
      let su = Spans.enter Spans.Unit in
      let ok =
        try inst.Work.run u
        with _ ->
          Spans.unwind (d + 1);
          incr raised;
          false
      in
      Spans.exit su;
      let t2 = now_ns () in
      words := !words +. (Gc.minor_words () -. w0);
      slice_ns := !slice_ns + (t2 - t0);
      lat.(k) <- float_of_int (t2 - t1);
      Sim.set units k u ~ok ~aux:(inst.Work.aux ());
      if traced then begin
        if Trace.class_total () <> u.Sim.traps && !trace_bad = None then
          trace_bad :=
            Some
              (Printf.sprintf "unit %d: trace class total %d, meter traps %d" k
                 (Trace.class_total ()) u.Sim.traps);
        dropped := !dropped + Trace.dropped ();
        count_events events
      end
    done;
    let slow = Refk.close refb !slice_ns in
    for k = !first to last - 1 do
      lat.(k) <- lat.(k) /. slow
    done;
    first := last
  done;
  if traced then begin
    Trace.disable ();
    Spans.on := false
  end;
  inst.Work.finish units;
  {
    units;
    refb;
    lat;
    words = !words;
    major_gcs = (Gc.quick_stat ()).Gc.major_collections - major0;
    counters = Array.copy inst.Work.counters;
    copies = Hyp.World_switch.reg_copies () - copies0;
    events;
    raised = !raised;
    trace_bad = !trace_bad;
    dropped = !dropped;
  }

(* The fixed work of a run: [units_per_s * seconds] units, rounded up to
   whole slices. *)
let unit_count (w : Work.t) ~seconds =
  let n = int_of_float (Float.ceil (float_of_int w.Work.units_per_s *. seconds)) in
  max 1 ((n + w.Work.slice - 1) / w.Work.slice) * w.Work.slice

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* One set-up from a fully collected heap, in reference seconds. *)
let setup_once (w : Work.t) ~seed =
  Gc.full_major ();
  let b = Refk.open_ () in
  let t0 = now_ns () in
  let inst = w.Work.setup ~seed in
  let t1 = now_ns () in
  ignore (Refk.close b (t1 - t0));
  (inst, Refk.ref_ns b /. 1e9)

(* [setup_warm] discarded and [setup_timed] timed set-ups; the last
   instance is kept, earlier ones are garbage before the next starts. *)
let setup_median (w : Work.t) ~seed =
  for _ = 1 to setup_warm do
    ignore (setup_once w ~seed)
  done;
  let times = ref [] and inst = ref None in
  for _ = 1 to setup_timed do
    inst := None;
    let i, s = setup_once w ~seed in
    inst := Some i;
    times := s :: !times
  done;
  (Option.get !inst, median !times)

(* --- output checks --- *)

type checks = { mutable notes : string list }

let check c ok msg = if not ok then c.notes <- msg :: c.notes

let pinned_digest (w : Work.t) =
  let p = run_pass w (w.Work.setup ~seed:Work.pin_seed) ~traced:false w.Work.pin_units in
  Sim.digest p.units

(* The input stream is a pure function of the seed, and seeds s and s+1
   differ. *)
let stream_check c (w : Work.t) ~seed =
  let s = w.Work.stream ~seed 32 in
  check c (s = w.Work.stream ~seed 32) "input stream not a function of the seed";
  check c (s <> w.Work.stream ~seed:(seed + 1) 32)
    "seeds s and s+1 give the same input stream"

(* The pinned seed reproduces its digest, and the model's hypercall
   cells equal the test suite's Tables 6/7 goldens.  Returns
   paper_err_pct. *)
let pinned_check c (w : Work.t) =
  let d = pinned_digest w in
  Printf.printf "# pinned digest (seed %d, %d units): %s\n" Work.pin_seed
    w.Work.pin_units d;
  check c (d = w.Work.pin_digest)
    (Printf.sprintf "pinned digest %s <> expected %s" d w.Work.pin_digest);
  let cells = Work.paper_cells w in
  List.iter
    (fun (x : Work.cell) ->
      Printf.printf "# paper %-9s hypercall cycles %.1f (paper %d), traps %.1f (paper %s)\n"
        x.Work.col x.Work.cycles x.Work.paper_cycles x.Work.traps
        (Option.fold ~none:"-" ~some:string_of_int x.Work.paper_traps))
    cells;
  List.iter (fun m -> check c false ("Tables 6/7 golden mismatch: " ^ m))
    (Work.golden_mismatches cells);
  Work.paper_err_pct cells

(* A traced run must reproduce the untraced run's simulated counts unit
   for unit, and its ring's trap-class total must equal the meters'
   trap count on every unit. *)
let compare_runs c (a : pass) (b : pass) =
  (match Sim.first_difference a.units b.units with
   | None -> ()
   | Some i when i >= a.units.Sim.n || i >= b.units.Sim.n ->
     check c false "traced and untraced runs have different unit counts"
   | Some i ->
     check c false
       (Printf.sprintf "traced and untraced runs differ at unit %d: %s vs %s" i
          (Sim.render_unit a.units i) (Sim.render_unit b.units i)));
  Option.iter (check c false) b.trace_bad;
  check c (b.dropped = 0) "trace ring wrapped inside a unit"

(* --- metrics --- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

let fmt_value v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m -> Printf.printf "# %-44s %22s %s\n" m.m_name (fmt_value m.m_value) m.m_unit)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
             (fmt_value m.m_value) m.m_unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let fn = float_of_int
let ref_s (p : pass) = Refk.ref_ns p.refb /. 1e9
let ops_per_s (p : pass) = fn p.units.Sim.n /. ref_s p

let report_failures (w : Work.t) (inst : Work.instance) (p : pass) =
  let cs = p.counters in
  Printf.printf
    "# workload %s: %d units, %d failed (%d machines failed the \
     shootdown/BBM checker, %d units violated an invariant, %d raised, %d \
     oracle divergences)\n"
    w.Work.name p.units.Sim.n (Sim.failed p.units)
    cs.(Work.c_unclean_machines) cs.(Work.c_violation_units) p.raised
    cs.(Work.c_divergences);
  let r = inst.Work.report () in
  if r <> "" then Printf.printf "# %s\n" r

(* --- --trace 0: end-to-end --- *)

let end_to_end (w : Work.t) ~seed ~seconds =
  let c = { notes = [] } in
  let n = unit_count w ~seconds in
  let inst, setup_s = setup_median w ~seed in
  let p = run_pass w inst ~traced:false n in
  let heap_mb =
    fn ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  report_failures w inst p;
  let tot = p.units.Sim.total in
  Printf.printf
    "# %d units in %d slices; host %.3f s, %.3f reference s (host ran %.3fx \
     the reference host); op_us percentiles over %d samples (p99: %d beyond)\n"
    n p.refb.Refk.stretches
    (p.refb.Refk.measured /. 1e9)
    (ref_s p) (Refk.slowdown p.refb) n
    (n - int_of_float (Float.ceil (0.99 *. fn n)));
  Printf.printf "# run digest: %s\n" (Sim.digest p.units);
  stream_check c w ~seed;
  let paper_err = pinned_check c w in
  List.iter (fun m -> Printf.printf "# CHECK FAILED: %s\n" m) c.notes;
  let metrics =
    [
      metric "sim_insns_per_s" "insns/ref_s" (fn tot.Sim.insns /. ref_s p);
      metric "ops_per_s" "1/ref_s" (ops_per_s p);
      metric "op_us_p50" "ref_us" (Sim.percentile p.lat 0.50 /. 1e3);
      metric "op_us_p99" "ref_us" (Sim.percentile p.lat 0.99 /. 1e3);
      metric "setup_s" "s" setup_s;
      metric "heap_peak_mb" "MB" heap_mb;
      metric "minor_words_per_sim_insn" "words/insn" (p.words /. fn tot.Sim.insns);
      metric "sim_cycles_per_op" "cycles" (fn tot.Sim.cycles /. fn n);
      metric "sim_cycles_p99" "cycles" (fn (Sim.percentile p.units.Sim.u_cycles 0.99));
      metric "traps_per_op" "count" (fn tot.Sim.traps /. fn n);
      metric "paper_err_pct" "%" paper_err;
    ]
  in
  print_result ~correct:(c.notes = []) ~attempted:n ~failed:(Sim.failed p.units)
    metrics

(* --- --trace 1: per-layer --- *)

let arm_kinds = List.filter (fun k -> k <> Cost.Trap_x86_vmexit) Cost.all_trap_kinds

let counted_events =
  [ "page-populate"; "page-drain"; "vncr-redirect"; "ws-enter"; "s2-walk"; "gic-inject" ]

let sysreg_kinds =
  Cost.[ Trap_sysreg_el2; Trap_sysreg_el1; Trap_sysreg_el12; Trap_sysreg_timer;
         Trap_sysreg_gic; Trap_sysreg_vm ]

let per_layer (w : Work.t) ~seed ~seconds =
  let c = { notes = [] } in
  let n = unit_count w ~seconds in
  (* isolated costs first, while the heap is still small *)
  let layers = Layers.measure w.Work.probe in
  let inst_a = w.Work.setup ~seed in
  let a = run_pass w inst_a ~traced:false n in
  Spans.reset ();
  Spans.on := true;
  let inst_b = w.Work.setup ~seed in
  Spans.on := false;
  let b = run_pass w inst_b ~traced:true n in
  compare_runs c a b;
  report_failures w inst_a a;
  stream_check c w ~seed;
  ignore (pinned_check c w);
  let ev k = fn (Option.value ~default:0 (Hashtbl.find_opt b.events k)) in
  let per_unit x = x /. fn n in
  let ratio x base = if base > 0. then x /. base else 0. in
  let cs = a.counters in
  let count k = fn cs.(k) in
  (* host time per unit of the untraced run, reference ns *)
  let unit_ns = Refk.ref_ns a.refb /. fn n in
  let traps = per_unit (fn a.units.Sim.total.Sim.traps) in
  let tlb_lookups = per_unit (ev "tlb-hit" +. ev "tlb-miss") in
  let redirects = ev "vncr-redirect" in
  let trapped_sysreg =
    List.fold_left (fun s k -> s +. ev ("trap:" ^ Cost.trap_kind_name k)) 0. sysreg_kinds
  in
  (* spans: self time per call, rescaled to reference ns *)
  let calls, self = Spans.self_summary () in
  let slow = Refk.slowdown b.refb in
  let span_total name = fn self.(Spans.index name) /. slow in
  let span_mean name =
    let k = Spans.index name in
    if calls.(k) = 0 then 0. else span_total name /. fn calls.(k)
  in
  (* the ledger: exact counts per unit x isolated reference cost per
     call.  Terms never nest: trap_roundtrip already contains route and
     record_trap, so those two are not terms, and Cpu.exec is no term
     because most simulated instructions are charged in bulk (compute,
     world-switch plans), not executed one by one. *)
  let cost name = (Layers.find layers name).Layers.ns in
  let terms =
    [
      ("arm.cpu.trap_roundtrip x traps", cost "arm.cpu.trap_roundtrip" *. traps);
      ( "hyp.world_switch.copy_el2 x reg copies",
        cost "hyp.world_switch.copy_el2" *. per_unit (fn a.copies) );
      ( "core.deferred_page.populate x populates",
        cost "core.deferred_page.populate" *. per_unit (ev "page-populate") );
      ( "core.deferred_page.drain x drains",
        cost "core.deferred_page.drain" *. per_unit (ev "page-drain") );
      ("mmu.tlb.lookup x lookups", cost "mmu.tlb.lookup" *. tlb_lookups);
      ("mmu.stage2.translate x s2 walks", cost "mmu.stage2.translate" *. per_unit (ev "s2-walk"));
      ("gic.dist.sgi_roundtrip x SGIs", cost "gic.dist.sgi_roundtrip" *. per_unit (count Work.c_sgis));
      ( "snap.save+restore x migrations",
        (cost "snap.save" +. cost "snap.restore") *. per_unit (count Work.c_migrations) );
      ("hyp.machine.create x creations", cost "hyp.machine.create" *. per_unit (count Work.c_creations));
      ("fuzz.gen span", per_unit (span_total Spans.Gen));
    ]
  in
  let attributed = List.fold_left (fun s (_, v) -> s +. v) 0. terms in
  let share = attributed /. unit_ns in
  let isolated =
    List.concat_map
      (fun (l : Layers.cost) ->
        let t = if l.Layers.scale = "us" then l.Layers.ns /. 1e3 else l.Layers.ns in
        [
          metric (l.Layers.name ^ "_" ^ l.Layers.scale) ("ref_" ^ l.Layers.scale) t;
          metric (l.Layers.name ^ "_words") "words" l.Layers.words;
        ])
      layers
  in
  let compute_insns = count Work.c_compute_insns in
  let spans =
    [
      metric "hyp.machine.hypercall_us" "ref_us" (span_mean Spans.Hypercall /. 1e3);
      metric "hyp.machine.mmio_us" "ref_us" (span_mean Spans.Mmio /. 1e3);
      metric "hyp.machine.ipi_us" "ref_us" (span_mean Spans.Ipi /. 1e3);
      metric "hyp.machine.irq_us" "ref_us" (span_mean Spans.Irq /. 1e3);
      metric "hyp.machine.compute_ns_per_insn" "ref_ns" (ratio (span_total Spans.Compute) compute_insns);
      metric "hyp.machine.create_boot_us" "ref_us" (span_mean Spans.Create_boot /. 1e3);
      metric "mmu.shootdown.remap_us" "ref_us" (span_mean Spans.Remap /. 1e3);
      metric "mmu.shootdown.read_ns" "ref_ns" (span_mean Spans.Read);
      metric "snap.migrate_ms" "ref_ms" (span_mean Spans.Migrate /. 1e6);
      metric "fuzz.gen_us" "ref_us" (span_mean Spans.Gen /. 1e3);
      metric "fuzz.oracle_us" "ref_us" (span_mean Spans.Oracle /. 1e3);
    ]
  in
  let counts =
    List.map
      (fun k ->
        let name = Cost.trap_kind_name k in
        metric ("cost.traps." ^ name ^ "_per_unit") "count" (per_unit (ev ("trap:" ^ name))))
      arm_kinds
    @ [ metric "hyp.world_switch.reg_copies_per_unit" "count" (per_unit (fn a.copies)) ]
    @ List.map (fun e -> metric ("trace." ^ e ^ "_per_unit") "count" (per_unit (ev e))) counted_events
    @ List.map
        (fun f ->
          let name = Expose.Policy.feature_name f in
          metric ("expose." ^ name ^ "_per_unit") "count" (per_unit (ev ("exposed:" ^ name))))
        Expose.Policy.all_features
    @ [ metric "gc.major_per_kunit" "count" (1000. *. fn a.major_gcs /. fn n) ]
  in
  let ratios =
    [
      metric "core.neve.deferral_ratio" "ratio" (ratio redirects (redirects +. trapped_sysreg));
      metric "mmu.tlb.hit_ratio" "ratio" (ratio (ev "tlb-hit") (ev "tlb-hit" +. ev "tlb-miss"));
      metric "mmu.tlb.lookups_per_unit" "count" tlb_lookups;
      metric "mmu.shootdown.recipients_per_remap" "ratio"
        (ratio (count Work.c_recipients) (count Work.c_shootdowns));
      metric "mmu.shootdown.remaps_per_unit" "count" (per_unit (count Work.c_remaps));
    ]
  in
  let summary =
    [
      metric "ledger.attributed_share" "ratio" share;
      metric "ledger.residual_share" "ratio" (1. -. share);
      metric "trace.overhead_pct" "%" (100. *. (ref_s b -. ref_s a) /. ref_s a);
      metric "trace.ops_per_s" "1/ref_s" (ops_per_s b);
    ]
  in
  let reported = isolated @ spans @ counts @ ratios @ summary in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let stem = Filename.concat out_dir (Printf.sprintf "%s-seed%d" w.Work.name seed) in
  Spans.write (stem ^ "-spans.json");
  Printf.printf "# %d units untraced (%.0f/ref s) and traced (%.0f/ref s)\n" n
    (ops_per_s a) (ops_per_s b);
  Printf.printf "# ledger over %.2f ref us/unit (untraced): %.1f%% attributed, %.1f%% residual\n"
    (unit_ns /. 1e3) (100. *. share) (100. *. (1. -. share));
  List.iter (fun (t, v) -> Printf.printf "#   %-44s %12.1f ref ns/unit\n" t v) terms;
  Printf.printf "# spans: %s-spans.json\n" stem;
  List.iter (fun m -> Printf.printf "# CHECK FAILED: %s\n" m) c.notes;
  print_result ~correct:(c.notes = []) ~attempted:(2 * n)
    ~failed:(Sim.failed a.units + Sim.failed b.units)
    reported

(* --- self-check: every output check, every workload --- *)

let self_check () =
  let ok = ref true in
  List.iter
    (fun (w : Work.t) ->
      let c = { notes = [] } in
      List.iter (fun seed -> stream_check c w ~seed) [ 1; 2; 3 ];
      ignore (pinned_check c w);
      let n = w.Work.pin_units in
      let a = run_pass w (w.Work.setup ~seed:Work.pin_seed) ~traced:false n in
      let b = run_pass w (w.Work.setup ~seed:Work.pin_seed) ~traced:true n in
      compare_runs c a b;
      List.iter (fun m -> Printf.printf "# %s: CHECK FAILED: %s\n" w.Work.name m) c.notes;
      Printf.printf "# %s: %s\n%!" w.Work.name (if c.notes = [] then "ok" else "FAILED");
      if c.notes <> [] then ok := false)
    Work.all;
  exit (if !ok then 0 else 1)

(* --- command line --- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let selfcheck = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S fixed work: units_per_s * S units");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--self-check", Arg.Set selfcheck, " run every output check on every workload");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !selfcheck then self_check ()
  else if not (!seconds > 0.) then begin
    prerr_endline "perfbench: --seconds must be positive";
    exit 2
  end
  else
    match Work.find !workload with
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.Work.name) Work.all));
      exit 2
    | Some w -> (
      match !trace with
      | 0 -> end_to_end w ~seed:!seed ~seconds:!seconds
      | 1 -> per_layer w ~seed:!seed ~seconds:!seconds
      | t ->
        Printf.eprintf "perfbench: --trace %d (expected 0 or 1)\n" t;
        exit 2)
