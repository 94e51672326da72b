(* The four workloads.

   Each is single-process and closed-loop: one client issues the next
   unit only when the previous one has returned.  A unit is one guest
   operation replayed on every configuration of the workload
   (nested-trap, nested-neve), a request (serve-smp) or a program
   (fuzz-diff).
   Every input is drawn from a generator seeded by (workload, seed) and
   the simulator is driven only through its public functions, each call
   wrapped in a {!Spans} span. *)

module Machine = Hyp.Machine
module Scenario = Workloads.Scenario
module Profiles = Workloads.Profiles
module Rng = Fault.Plan.Rng

(* Counters a workload keeps beyond the meters, for the ledger. *)
let c_compute_insns = 0 (* instructions charged in bulk by Machine.compute *)
let c_creations = 1     (* Machine.create calls, including the oracle's *)
let c_migrations = 2
let c_remaps = 3
let c_shootdowns = 4    (* summed over finished shootdown-checker segments *)
let c_recipients = 5
(* failure causes, for the failure report *)
let c_unclean_machines = 6  (* shootdown/BBM checker violations *)
let c_violation_units = 7   (* units during which an invariant failed *)
let c_divergences = 8       (* fuzz-diff programs the oracle rejected *)
let c_sgis = 9              (* SGIs through the distributor: IPIs, shootdowns *)
let counter_count = 10

type instance = {
  prepare : Sim.units -> int -> unit;
      (** work before unit [i], timed with the slice but not as the
          unit's latency: draw its input, retire a finished machine and
          boot the next *)
  run : Sim.acc -> bool;
      (** run the prepared unit, adding its simulated deltas to the
          accumulator; false if the unit failed *)
  aux : unit -> int;
      (** the last unit's workload-specific simulated sample *)
  finish : Sim.units -> unit;
      (** end-of-run verdicts on units still open *)
  counters : int array;
  report : unit -> string;  (** failure details for the human report *)
}

type t = {
  name : string;
  setup : seed:int -> instance;  (** create, boot and warm the machines *)
  stream : seed:int -> int -> string;
      (** the first [n] generated inputs, rendered *)
  units_per_s : int;
      (** units per second of [--seconds]: a run's fixed work, chosen so
          it takes about that long on the reference host *)
  slice : int;
      (** units per reference-bracketed slice.  Runs are whole slices,
          so serve-smp's slice of one machine's requests makes every
          machine retire, and settle its verdict, within the run *)
  pin_units : int;  (** units of {!pin_seed} the pinned digest covers *)
  pin_digest : string;
  probe : Hyp.Config.t * Expose.Policy.t;
      (** configuration the isolated layer costs are measured on *)
  paper : string list;
      (** the workload's columns ({!Fleet.columns} keys) that have a
          published Tables 6/7 hypercall cell *)
}

let pin_seed = 1

let counters () = Array.make counter_count 0
let bump cs k n = cs.(k) <- cs.(k) + n

let violations (m : Machine.t) = Machine.violation_count m

(* --- nested-trap and nested-neve: a profile-weighted guest op stream --- *)

let op_hvc = 0
let op_ipi = 1
let op_irq = 2
let op_mmio = 3
let op_compute = 4

(* Fleet.run_spec's weighting: a Table 8 profile's exit-event counts are
   the selection weights of hypercalls, IPIs, device IRQs and virtio
   kicks, next to a constant compute weight. *)
let profiles = Array.of_list Profiles.all

let weight_table =
  Array.map
    (fun (p : Profiles.t) ->
      [|
        p.Profiles.hypercalls;
        p.Profiles.ipis;
        p.Profiles.irqs;
        p.Profiles.packets;
        max 8 (int_of_float (p.Profiles.work_cycles /. 25.0e6));
      |])
    profiles

let weight_totals = Array.map (Array.fold_left ( + ) 0) weight_table

(* The stream moves through the ten profiles in phases of this many
   units, so every profile's mix is exercised in every run. *)
let phase_len = 64

type gen = {
  rng : Rng.t;
  mutable g_op : int;
  mutable g_cpu : int;
  mutable g_arg : int;
}

let gen_make ~stream ~seed =
  let s = Int64.to_int (Shard.derive ~seed ~index:stream) land max_int in
  { rng = Rng.make s; g_op = 0; g_cpu = 0; g_arg = 0 }

let gen_next g i =
  let p = i / phase_len mod Array.length profiles in
  let w = weight_table.(p) in
  let roll = Rng.int g.rng weight_totals.(p) in
  let rec pick k acc =
    let acc = acc + w.(k) in
    if roll < acc || k = Array.length w - 1 then k else pick (k + 1) acc
  in
  g.g_op <- pick 0 0;
  g.g_cpu <- Rng.int g.rng 2;
  g.g_arg <-
    (if g.g_op = op_mmio then if Rng.bool g.rng then 1 else 0
     else if g.g_op = op_compute then 100 + Rng.int g.rng 200
     else 0)

let mmio_addr = 0x0900_0000L
let ipi_intid = 7

let ack_eoi m ~cpu =
  match Machine.vm_ack m ~cpu with
  | Some vintid -> ignore (Machine.vm_eoi m ~cpu ~vintid)
  | None -> ()

let run_op m ~op ~cpu ~arg =
  if op = op_hvc then begin
    let s = Spans.enter Spans.Hypercall in
    Machine.hypercall m ~cpu;
    Spans.exit s
  end
  else if op = op_ipi then begin
    let s = Spans.enter Spans.Ipi in
    let target = (cpu + 1) mod 2 in
    Machine.send_ipi m ~cpu ~target ~intid:ipi_intid;
    ack_eoi m ~cpu:target;
    Spans.exit s
  end
  else if op = op_irq then begin
    let s = Spans.enter Spans.Irq in
    Machine.device_irq m ~cpu ~intid:Gic.Irq.virtio_net_spi;
    ack_eoi m ~cpu;
    Spans.exit s
  end
  else if op = op_mmio then begin
    let s = Spans.enter Spans.Mmio in
    Machine.mmio_access m ~cpu ~addr:mmio_addr ~is_write:(arg = 1);
    Spans.exit s
  end
  else begin
    let s = Spans.enter Spans.Compute in
    Machine.compute m ~cpu ~insns:arg;
    Spans.exit s
  end

let make_machine (col, expose) =
  let s = Spans.enter Spans.Create_boot in
  let m = Scenario.make_arm ~ncpus:2 ~expose col in
  Spans.exit s;
  m

(* First touch of every op path on every vCPU: decode caches, compiled
   save/restore plans, launch paths. *)
let warm_nested m =
  for cpu = 0 to 1 do
    List.iter
      (fun (op, arg) -> run_op m ~op ~cpu ~arg)
      [ (op_hvc, 0); (op_mmio, 0); (op_mmio, 1); (op_ipi, 0); (op_irq, 0);
        (op_compute, 100) ]
  done

let nested_instance ~stream ~cols ~seed =
  let machines = Array.of_list (List.map (fun (_, c) -> make_machine c) cols) in
  Array.iter warm_nested machines;
  let g = gen_make ~stream ~seed in
  let pre = Sim.make () and post = Sim.make () in
  let cs = counters () in
  {
    prepare = (fun _ i -> gen_next g i);
    run =
      (fun u ->
        let ok = ref true in
        Array.iter
          (fun m ->
            let v0 = violations m in
            Sim.read pre m;
            run_op m ~op:g.g_op ~cpu:g.g_cpu ~arg:g.g_arg;
            Sim.read post m;
            Sim.add_delta u ~pre ~post;
            if g.g_op = op_compute then bump cs c_compute_insns g.g_arg;
            if g.g_op = op_ipi then bump cs c_sgis 1;
            if violations m <> v0 then ok := false)
          machines;
        if not !ok then bump cs c_violation_units 1;
        !ok);
    aux = (fun () -> -1);
    finish = (fun _ -> ());
    counters = cs;
    report = (fun () -> "");
  }

let nested_stream ~stream ~seed n =
  let g = gen_make ~stream ~seed in
  let b = Buffer.create (n * 8) in
  for i = 0 to n - 1 do
    gen_next g i;
    Buffer.add_string b (Printf.sprintf "%d.%d.%d;" g.g_op g.g_cpu g.g_arg)
  done;
  Buffer.contents b

let nested_col ?(vhe = false) mech = Scenario.Arm_nested (Hyp.Config.v ~guest_vhe:vhe mech)

let ooh_grant = Expose.Policy.of_list [ Expose.Policy.Timer; Expose.Policy.Gic_lrs ]

(* --- serve-smp: Serve.run_spec's request stream, one call per span --- *)

let requests_per_machine = Serve.default_requests
let migrate_every = Serve.default_migrate_every
let smp_pages = 4
let smp_ipa i = Int64.add 0x4000_0000L (Int64.of_int (i * 0x1000))

let smp_frame ~page ~gen =
  Int64.add 0x8000_0000L
    (Int64.of_int ((page * 0x400 * 0x1000) + (gen * 0x1000)))

let setup_smp m =
  for p = 0 to smp_pages - 1 do
    Machine.smp_map m ~cpu:0 ~ipa:(smp_ipa p) ~pa:(smp_frame ~page:p ~gen:0)
  done

(* Serve's machine: its spec's column, a fault plan seeded from the spec,
   invariant checking on (implied by the plan). *)
let serve_machine (sp : Serve.spec) =
  let config, scen =
    match sp.Serve.sp_col with
    | Scenario.Arm_vm -> (Hyp.Config.v Hyp.Config.Hw_v8_3, Hyp.Host_hyp.Single_vm)
    | Scenario.Arm_nested cfg -> (cfg, Hyp.Host_hyp.Nested)
  in
  let fault_plan =
    Fault.Plan.make
      ~seed:(Int64.to_int sp.Serve.sp_seed land 0xfff_ffff)
      ~faults:6 ~horizon:1500
  in
  let s = Spans.enter Spans.Create_boot in
  let m = Machine.create ~fault_plan ~ncpus:2 config scen in
  Machine.boot m;
  setup_smp m;
  Spans.exit s;
  m

type serve_state = {
  s_seed : int;
  mutable idx : int;          (* logical machine: Serve.spec_of ~seed idx *)
  mutable m : Machine.t;
  mutable r : int;            (* next request on this machine *)
  mutable rng : Rng.t;
  mutable vio : Workloads.Virtio.t;
  mutable now : float;
  mutable profile : Profiles.t;
  gens : int array;
  mutable first_unit : int;   (* this machine's first request, globally *)
  mutable clean : bool;       (* every checker segment so far was clean *)
  mutable last_virq : int;
  cs : int array;
  unclean : Buffer.t;         (* each checker failure, for the report *)
  spre : Sim.acc;
  spost : Sim.acc;
}

let start_machine st idx =
  let sp = Serve.spec_of ~seed:st.s_seed idx in
  st.idx <- idx;
  st.m <- serve_machine sp;
  st.r <- 0;
  st.rng <- Rng.make (Int64.to_int sp.Serve.sp_seed land max_int);
  st.vio <- Workloads.Virtio.create ();
  st.now <- 0.;
  st.profile <- sp.Serve.sp_profile;
  Array.fill st.gens 0 smp_pages 0;
  st.clean <- true;
  bump st.cs c_creations 1

(* One shootdown/BBM checker segment ends (a migration replaces the
   machine, or the machine retires): fold its verdict and counts. *)
let close_segment st =
  match Machine.shootdown_stats st.m with
  | None -> ()
  | Some s ->
    if not (Mmu.Shootdown.clean s) then begin
      st.clean <- false;
      Buffer.add_string st.unclean
        (Printf.sprintf " %d/%s/r%d(stale %d, broken %d, bbm %d)" st.idx
           (Serve.spec_of ~seed:st.s_seed st.idx).Serve.sp_config st.r
           s.Mmu.Shootdown.s_stale_serves s.Mmu.Shootdown.s_broken_serves
           s.Mmu.Shootdown.s_bbm_violations)
    end;
    bump st.cs c_shootdowns s.Mmu.Shootdown.s_shootdowns;
    bump st.cs c_recipients s.Mmu.Shootdown.s_recipients

(* A machine whose checker recorded a violation fails all its requests. *)
let retire st units ~upto =
  close_segment st;
  if not st.clean then begin
    bump st.cs c_unclean_machines 1;
    for i = st.first_unit to upto - 1 do
      Sim.fail units i
    done
  end

let serve_request st u =
  let ncpus = 2 in
  let r = st.r in
  let v0 = ref (violations st.m) in
  let ok = ref true in
  Sim.read st.spre st.m;
  (* migration round: the stream continues on the destination, whose
     TLBs come back cold, so the working set is re-mapped *)
  if r > 0 && r mod migrate_every = 0 then begin
    close_segment st;
    let s = Spans.enter Spans.Migrate in
    let dst, _report =
      Snap.Migrate.run ~workload:(fun _ ~round:_ -> ()) st.m
    in
    Spans.exit s;
    Sim.read st.spost st.m;
    Sim.add_delta u ~pre:st.spre ~post:st.spost;
    if violations st.m <> !v0 then ok := false;
    st.m <- dst;
    bump st.cs c_migrations 1;
    v0 := violations dst;
    Sim.read st.spre dst;
    setup_smp dst;
    Array.fill st.gens 0 smp_pages 0
  end;
  let m = st.m in
  let p = st.profile in
  let cpu = r mod ncpus in
  let other = (cpu + 1) mod ncpus in
  let insns = 50 + Rng.int st.rng 100 in
  let s = Spans.enter Spans.Compute in
  Machine.compute m ~cpu ~insns;
  Spans.exit s;
  bump st.cs c_compute_insns insns;
  if Rng.int st.rng 4 = 0 then begin
    let page = Rng.int st.rng smp_pages in
    st.gens.(page) <- st.gens.(page) + 1;
    let s = Spans.enter Spans.Remap in
    Machine.smp_remap m ~cpu ~ipa:(smp_ipa page)
      ~pa:(smp_frame ~page ~gen:st.gens.(page));
    Spans.exit s;
    bump st.cs c_remaps 1;
    (* one shootdown SGI per remote vCPU *)
    bump st.cs c_sgis (ncpus - 1);
    let s = Spans.enter Spans.Read in
    ignore (Machine.smp_read m ~cpu:other ~ipa:(smp_ipa page));
    Spans.exit s
  end
  else begin
    let ipa = smp_ipa (Rng.int st.rng smp_pages) in
    let s = Spans.enter Spans.Read in
    ignore (Machine.smp_read m ~cpu ~ipa);
    Spans.exit s
  end;
  for _ = 1 to max 1 p.Profiles.burst do
    st.now <- st.now +. p.Profiles.spacing;
    if Workloads.Virtio.packet st.vio ~now:st.now ~service:p.Profiles.service
    then begin
      let s = Spans.enter Spans.Mmio in
      Machine.mmio_access m ~cpu ~addr:mmio_addr ~is_write:true;
      Spans.exit s
    end
  done;
  st.now <- st.now +. p.Profiles.gap;
  let vstart = Machine.total_cycles m in
  let s = Spans.enter Spans.Irq in
  Machine.device_irq m ~cpu ~intid:Gic.Irq.virtio_net_spi;
  (match Machine.vm_ack m ~cpu with
   | Some vintid ->
     ignore (Machine.vm_eoi m ~cpu ~vintid);
     st.last_virq <- Machine.total_cycles m - vstart
   | None -> st.last_virq <- -1 (* dropped by the fault plan: no sample *));
  Spans.exit s;
  (* request-boundary supervision, as the watchdog's restart policy *)
  for c = 0 to ncpus - 1 do
    if Machine.is_hung m ~cpu:c then Machine.clear_hung m ~cpu:c
  done;
  Sim.read st.spost m;
  Sim.add_delta u ~pre:st.spre ~post:st.spost;
  st.r <- r + 1;
  let ok = !ok && violations m = !v0 in
  if not ok then bump st.cs c_violation_units 1;
  ok

let serve_state ~seed =
  let sp = Serve.spec_of ~seed 0 in
  let cs = counters () in
  bump cs c_creations 1;
  {
    s_seed = seed;
    idx = 0;
    m = serve_machine sp;
    r = 0;
    rng = Rng.make (Int64.to_int sp.Serve.sp_seed land max_int);
    vio = Workloads.Virtio.create ();
    now = 0.;
    profile = sp.Serve.sp_profile;
    gens = Array.make smp_pages 0;
    first_unit = 0;
    clean = true;
    last_virq = -1;
    cs;
    unclean = Buffer.create 64;
    spre = Sim.make ();
    spost = Sim.make ();
  }

(* Machines 0..4 of a fixed seed cover the five columns; each serves
   through its first migration. *)
let warm_seed = 0x5eed

let warm_serve () =
  let st = serve_state ~seed:warm_seed in
  let u = Sim.make () in
  for idx = 0 to 4 do
    if idx > 0 then start_machine st idx;
    for _ = 0 to migrate_every do
      ignore (serve_request st u)
    done
  done

let serve_instance ~seed =
  warm_serve ();
  let st = serve_state ~seed in
  {
    prepare =
      (fun units i ->
        if st.r = requests_per_machine then begin
          retire st units ~upto:i;
          start_machine st (st.idx + 1);
          st.first_unit <- i
        end);
    run = serve_request st;
    aux = (fun () -> st.last_virq);
    finish = (fun units -> retire st units ~upto:units.Sim.n);
    counters = st.cs;
    report =
      (fun () ->
        if Buffer.length st.unclean = 0 then ""
        else "shootdown/BBM checker failed on machine/config/request:" ^ Buffer.contents st.unclean);
  }

let serve_stream ~seed n =
  let b = Buffer.create (n * 32) in
  for idx = 0 to n - 1 do
    let sp = Serve.spec_of ~seed idx in
    let rng = Rng.make (Int64.to_int sp.Serve.sp_seed land max_int) in
    Buffer.add_string b
      (Printf.sprintf "%s/%s/%Lx/%d.%d.%d;" sp.Serve.sp_config
         sp.Serve.sp_profile.Profiles.name sp.Serve.sp_seed (Rng.int rng 100)
         (Rng.int rng 4) (Rng.int rng smp_pages))
  done;
  Buffer.contents b

(* --- fuzz-diff: Gen.program, then the 12-column differential oracle --- *)

(* A fingerprint of what the oracle saw per column. *)
let obs_hash (res : Fuzz.Diff.result) =
  List.fold_left
    (fun h ((_ : Fuzz.Diff.column), (o : Fuzz.Diff.obs)) ->
      let h = ((h * 31) + o.Fuzz.Diff.ob_traps) land max_int in
      let h = ((h * 31) + o.Fuzz.Diff.ob_cycles) land max_int in
      ((h * 31) + Hashtbl.hash (o.Fuzz.Diff.ob_outcome, o.Fuzz.Diff.ob_error))
      land max_int)
    (List.length res.Fuzz.Diff.res_divergences)
    res.Fuzz.Diff.res_obs

let fuzz_unit g cs u =
  let s = Spans.enter Spans.Gen in
  let words = Fuzz.Prog.to_words (Fuzz.Gen.program g) in
  Spans.exit s;
  let s = Spans.enter Spans.Oracle in
  let res = Fuzz.Diff.run_words words in
  Spans.exit s;
  List.iter
    (fun (_, (o : Fuzz.Diff.obs)) ->
      u.Sim.cycles <- u.Sim.cycles + o.Fuzz.Diff.ob_cycles;
      u.Sim.traps <- u.Sim.traps + o.Fuzz.Diff.ob_traps)
    res.Fuzz.Diff.res_obs;
  (* Diff exposes no retired-instruction count; programs only branch
     forward, so the words issued to each column bound it from above *)
  let ncols = List.length res.Fuzz.Diff.res_obs in
  u.Sim.insns <- u.Sim.insns + (Array.length words * ncols);
  bump cs c_creations ncols;
  let ok = res.Fuzz.Diff.res_divergences = [] in
  if not ok then bump cs c_divergences 1;
  (ok, obs_hash res)

let fuzz_instance ~seed =
  let warm = Fuzz.Gen.create ~seed:warm_seed in
  let scratch = Sim.make () in
  for _ = 1 to 4 do
    ignore (fuzz_unit warm (counters ()) scratch)
  done;
  let g = Fuzz.Gen.create ~seed in
  let cs = counters () in
  let last = ref (-1) in
  {
    prepare = (fun _ _ -> ());
    run =
      (fun u ->
        let ok, h = fuzz_unit g cs u in
        last := h;
        ok);
    aux = (fun () -> !last);
    finish = (fun _ -> ());
    counters = cs;
    report = (fun () -> "");
  }

let fuzz_stream ~seed n =
  let g = Fuzz.Gen.create ~seed in
  let b = Buffer.create (n * 64) in
  for _ = 1 to n do
    Array.iter
      (fun w -> Buffer.add_string b (Printf.sprintf "%x," w))
      (Fuzz.Prog.to_words (Fuzz.Gen.program g));
    Buffer.add_char b ';'
  done;
  Buffer.contents b

(* --- the workload table --- *)

let nested_trap_cols =
  [
    ("v8.3", (nested_col Hyp.Config.Hw_v8_3, Expose.Policy.none));
    ("v8.3-vhe", (nested_col ~vhe:true Hyp.Config.Hw_v8_3, Expose.Policy.none));
  ]

let nested_neve_cols =
  [
    ("neve", (nested_col Hyp.Config.Hw_neve, Expose.Policy.none));
    ("neve-vhe", (nested_col ~vhe:true Hyp.Config.Hw_neve, Expose.Policy.none));
    ("neve-vhe+ooh", (nested_col ~vhe:true Hyp.Config.Hw_neve, ooh_grant));
  ]

let all =
  [
    {
      name = "nested-trap";
      setup = (fun ~seed -> nested_instance ~stream:1 ~cols:nested_trap_cols ~seed);
      stream = nested_stream ~stream:1;
      units_per_s = 1000;
      slice = 40;
      pin_units = 128;
      pin_digest = "875ebbc70a71a270";
      probe = (Hyp.Config.v Hyp.Config.Hw_v8_3, Expose.Policy.none);
      paper = [ "v8.3"; "v8.3-vhe" ];
    };
    {
      name = "nested-neve";
      setup = (fun ~seed -> nested_instance ~stream:2 ~cols:nested_neve_cols ~seed);
      stream = nested_stream ~stream:2;
      units_per_s = 3200;
      slice = 100;
      pin_units = 256;
      pin_digest = "8e97f9be8eda0f32";
      probe = (Hyp.Config.v Hyp.Config.Hw_neve, Expose.Policy.none);
      paper = [ "neve"; "neve-vhe" ];
    };
    {
      name = "serve-smp";
      setup = (fun ~seed -> serve_instance ~seed);
      stream = serve_stream;
      units_per_s = 1000;
      slice = requests_per_machine;
      pin_units = 680;
      pin_digest = "37f5b4c8501f4b45";
      probe = (Hyp.Config.v ~guest_vhe:true Hyp.Config.Hw_neve, Expose.Policy.none);
      paper = List.map fst Fleet.columns;
    };
    {
      name = "fuzz-diff";
      setup = (fun ~seed -> fuzz_instance ~seed);
      stream = fuzz_stream;
      units_per_s = 850;
      slice = 40;
      pin_units = 32;
      pin_digest = "adb7634387035d22";
      probe = (Hyp.Config.v Hyp.Config.Hw_v8_3, Expose.Policy.none);
      paper = [ "v8.3"; "v8.3-vhe"; "neve"; "neve-vhe" ];
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* --- accuracy against the paper (Tables 6/7, hypercall row) --- *)

(* The Table 6/7 hypercall goldens the test suite pins (test_workloads'
   "Table 6 goldens"): mean cycles and traps per hypercall over four
   iterations of Micro.measure_arm. *)
let goldens =
  [ ("vm", (2596., 1.)); ("v8.3", (424461., 121.)); ("v8.3-vhe", (222715., 57.));
    ("neve", (82323., 13.)); ("neve-vhe", (83507., 13.)) ]

type cell = {
  col : string;
  cycles : float;          (* modelled, per hypercall *)
  traps : float;
  paper_cycles : int;
  paper_traps : int option;  (* Table 7 has no VM column *)
}

let paper_cells w =
  let cyc = Workloads.Paper.cycles_row Workloads.Micro.Hypercall in
  let trp = Workloads.Paper.traps_row Workloads.Micro.Hypercall in
  let module P = Workloads.Paper in
  let reference = function
    | "vm" -> Some (cyc.P.m_vm, None)
    | "v8.3" -> Some (cyc.P.m_nested, Some trp.P.t_nested)
    | "v8.3-vhe" -> Some (cyc.P.m_nested_vhe, Some trp.P.t_nested_vhe)
    | "neve" -> Option.map (fun c -> (c, Some trp.P.t_neve)) cyc.P.m_neve
    | "neve-vhe" -> Option.map (fun c -> (c, Some trp.P.t_neve_vhe)) cyc.P.m_neve_vhe
    | _ -> None
  in
  List.filter_map
    (fun col ->
      match (reference col, List.assoc_opt col Fleet.columns) with
      | Some (paper_cycles, paper_traps), Some arm_col ->
        let r = Workloads.Micro.measure_arm ~iters:4 arm_col Workloads.Micro.Hypercall in
        Some
          { col; cycles = r.Workloads.Micro.cycles; traps = r.Workloads.Micro.traps;
            paper_cycles; paper_traps }
      | _ -> None)
    w.paper

(* Mean absolute relative error over the cycle and trap cells, in
   percent. *)
let paper_err_pct cells =
  let err m p = 100. *. Float.abs (m -. float_of_int p) /. float_of_int p in
  let errs =
    List.concat_map
      (fun c ->
        err c.cycles c.paper_cycles
        :: Option.fold ~none:[] ~some:(fun p -> [ err c.traps p ]) c.paper_traps)
      cells
  in
  List.fold_left ( +. ) 0. errs /. float_of_int (max 1 (List.length errs))

(* Cells whose modelled values differ from the pinned goldens. *)
let golden_mismatches cells =
  List.filter_map
    (fun c ->
      match List.assoc_opt c.col goldens with
      | Some (gc, gt) when Float.abs (c.cycles -. gc) <= 0.5 && Float.abs (c.traps -. gt) <= 0.5 -> None
      | Some (gc, gt) ->
        Some (Printf.sprintf "%s: %.1f cycles / %.1f traps, golden %.0f / %.0f" c.col c.cycles c.traps gc gt)
      | None -> Some (c.col ^ ": no golden"))
    cells
