(* Versioned, byte-deterministic snapshots of the complete machine.

   A snapshot is a typed node tree (ints, bools, strings, lists, named
   records) with a canonical binary encoding: fixed-width big-endian
   payloads, length-prefixed strings, fields written in a fixed order and
   every hash table serialized through a sorted view.  Saving the same
   machine twice therefore yields byte-identical buffers, which is what
   lets the fuzzer compare run-to-completion against
   snapshot/restore/resume, and lets live migration assert the
   destination equals the source.

   The tree covers everything mutable: physical memory (canonical
   nonzero-word list plus MMIO regions), each CPU's PC/GPRs/PSTATE,
   system-register file with its dirty bitmap, GPR trap snapshots, NV2
   ablation mask and cost meter (including the per-kind trap counters and
   the trap log), each host hypervisor's vCPU — both virtual register
   files, the virtual-EL2 flag — shadow-stage-2 tables, each guest
   hypervisor's software state, the fault plan's PRNG cursor and event
   ledger, invariant watermarks and recorded violations.

   The NEVE deferred access page needs no special handling precisely
   because the snapshot captures rather than drains it: the page's slots
   live in guest memory and the fold of the guest hypervisor's execution
   mapping back into the virtual EL2 file happens only at its trapped
   eret (Host_hyp.emulate_eret).  Draining at snapshot time would be a
   hidden fold — it would mutate register state mid-flight and diverge
   from an undisturbed run the moment the guest hypervisor touches a
   twin-redirected register again.  Capturing the raw page plus both
   virtual files reproduces the eventual fold exactly.  For diagnostics
   the tree also carries a derived "deferred_page" view (the VNCR layout
   slots decoded by register name) so {!diff} can name a diverging slot;
   restore ignores it, memory already holds the truth.

   Closures are never serialized.  Everything closure-shaped on the
   machine (EL2 handlers, IPI senders, the vEL2-entry hook, the stage-2
   injection point) is deterministically rebuilt by [Machine.create]
   from the serialized configuration; the one-shot sysreg-corruption
   thunk is re-armed from the restored plan.  Device MMIO backends
   ([Guest_hyp.on_mmio]) are the caller's to re-attach. *)

module Memory = Arm.Memory
module Cpu = Arm.Cpu
module Sysreg = Arm.Sysreg
module Sysreg_file = Arm.Sysreg_file
module Pstate = Arm.Pstate
module Features = Arm.Features
module Trap_rules = Arm.Trap_rules
module Config = Hyp.Config
module Machine = Hyp.Machine
module Host_hyp = Hyp.Host_hyp
module Guest_hyp = Hyp.Guest_hyp
module Gaccess = Hyp.Gaccess
module Vcpu = Hyp.Vcpu
module Plan = Fault.Plan
module Invariants = Fault.Invariants

let magic = "NEVE-SNAP"
let version = 1

exception Format_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Format_error s)) fmt

(* ------------------------------------------------------------------ *)
(* The node tree and its canonical binary encoding                     *)
(* ------------------------------------------------------------------ *)

type node =
  | I of int64
  | B of bool
  | S of string
  | L of node list
  | R of (string * node) list  (** fields in fixed, writer-chosen order *)

let add_str b s =
  Buffer.add_int32_be b (Int32.of_int (String.length s));
  Buffer.add_string b s

let rec encode b = function
  | I v ->
    Buffer.add_char b 'I';
    Buffer.add_int64_be b v
  | B v ->
    Buffer.add_char b 'B';
    Buffer.add_char b (if v then '\001' else '\000')
  | S s ->
    Buffer.add_char b 'S';
    add_str b s
  | L xs ->
    Buffer.add_char b 'L';
    Buffer.add_int32_be b (Int32.of_int (List.length xs));
    List.iter (encode b) xs
  | R fs ->
    Buffer.add_char b 'R';
    Buffer.add_int32_be b (Int32.of_int (List.length fs));
    List.iter
      (fun (name, x) ->
        add_str b name;
        encode b x)
      fs

let decode s =
  let pos = ref 0 in
  let len = String.length s in
  let need n = if !pos + n > len then fail "truncated snapshot at byte %d" !pos in
  let byte () =
    need 1;
    let c = s.[!pos] in
    incr pos;
    c
  in
  let i64 () =
    need 8;
    let v = ref 0L in
    for _ = 1 to 8 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (byte ())))
    done;
    !v
  in
  let count () =
    need 4;
    let v = ref 0 in
    for _ = 1 to 4 do
      v := (!v lsl 8) lor Char.code (byte ())
    done;
    (* a count of n items needs at least n more bytes *)
    if !v > len - !pos then fail "implausible length %d at byte %d" !v !pos;
    !v
  in
  let str () =
    let n = count () in
    need n;
    let r = String.sub s !pos n in
    pos := !pos + n;
    r
  in
  let rec node () =
    match byte () with
    | 'I' -> I (i64 ())
    | 'B' -> B (byte () <> '\000')
    | 'S' -> S (str ())
    | 'L' -> L (nodes (count ()) [])
    | 'R' -> R (fields (count ()) [])
    | c -> fail "bad node tag %C at byte %d" c (!pos - 1)
  and nodes n acc =
    if n = 0 then List.rev acc
    else
      let x = node () in
      nodes (n - 1) (x :: acc)
  and fields n acc =
    if n = 0 then List.rev acc
    else
      let name = str () in
      let x = node () in
      fields (n - 1) ((name, x) :: acc)
  in
  let n = node () in
  if !pos <> len then fail "trailing bytes after snapshot (%d of %d consumed)" !pos len;
  n

(* Typed accessors: every shape error surfaces as Format_error. *)

let get_i = function I v -> v | _ -> fail "expected int node"
let get_int n = Int64.to_int (get_i n)
let get_b = function B v -> v | _ -> fail "expected bool node"
let get_s = function S v -> v | _ -> fail "expected string node"
let get_l = function L xs -> xs | _ -> fail "expected list node"

let field name = function
  | R fs -> (
    match List.assoc_opt name fs with
    | Some v -> v
    | None -> fail "missing field %S" name)
  | _ -> fail "expected record node (looking for %S)" name

let fi name n = get_i (field name n)
let fint name n = get_int (field name n)
let fb name n = get_b (field name n)
let fs name n = get_s (field name n)
let fl name n = get_l (field name n)

let int n = I (Int64.of_int n)

(* Options encode as empty/singleton lists. *)
let opt f = function None -> L [] | Some x -> L [ f x ]

let get_opt f = function
  | L [] -> None
  | L [ x ] -> Some (f x)
  | _ -> fail "expected option node"

(* ------------------------------------------------------------------ *)
(* Enumeration codecs (stable small codes, part of the format)         *)
(* ------------------------------------------------------------------ *)

let mech_code = function
  | Config.Hw_v8_3 -> 0
  | Config.Pv_v8_3 -> 1
  | Config.Hw_neve -> 2
  | Config.Pv_neve -> 3

let mech_of_code = function
  | 0 -> Config.Hw_v8_3
  | 1 -> Config.Pv_v8_3
  | 2 -> Config.Hw_neve
  | 3 -> Config.Pv_neve
  | c -> fail "bad mechanism code %d" c

let rev_code = function
  | Features.V8_0 -> 0
  | Features.V8_1 -> 1
  | Features.V8_3 -> 3
  | Features.V8_4 -> 4

let rev_of_code = function
  | 0 -> Features.V8_0
  | 1 -> Features.V8_1
  | 3 -> Features.V8_3
  | 4 -> Features.V8_4
  | c -> fail "bad revision code %d" c

let el_of_code = function
  | 0 -> Pstate.EL0
  | 1 -> Pstate.EL1
  | 2 -> Pstate.EL2
  | c -> fail "bad EL code %d" c

let scenario_name = function
  | Host_hyp.Single_vm -> "single-vm"
  | Host_hyp.Nested -> "nested"

let scenario_of_name = function
  | "single-vm" -> Host_hyp.Single_vm
  | "nested" -> Host_hyp.Nested
  | s -> fail "bad scenario %S" s

let code_of what x l =
  let rec go i = function
    | [] -> fail "unindexable %s" what
    | y :: tl -> if y = x then i else go (i + 1) tl
  in
  go 0 l

let of_code what l i =
  match List.nth_opt l i with Some x -> x | None -> fail "bad %s code %d" what i

let trap_kind_code k = code_of "trap kind" k Cost.all_trap_kinds
let trap_kind_of_code i = of_code "trap kind" Cost.all_trap_kinds i
let fkind_code k = code_of "fault kind" k Plan.all_kinds
let fkind_of_code i = of_code "fault kind" Plan.all_kinds i

(* The cost table travels with the snapshot so a restored machine meters
   identically; a fixed field order is part of the format. *)
let table_fields (t : Cost.table) =
  [ t.trap_entry; t.trap_return; t.exc_entry_el1; t.sysreg_read; t.sysreg_write;
    t.mem_load; t.mem_store; t.insn_base; t.barrier; t.tlbi; t.gic_mmio_access;
    t.irq_delivery; t.l0_exit_dispatch; t.l0_sysreg_emulate; t.l0_hvc_handle;
    t.l0_inject_vel2; t.l0_eret_emulate; t.l0_io_emulate; t.l0_ipi_send;
    t.l0_vgic_sync; t.l0_timer_emulate; t.l0_mem_fault; t.guest_hyp_logic;
    t.x86_vmexit; t.x86_vmentry; t.x86_vmread; t.x86_vmwrite; t.x86_dispatch;
    t.x86_merge_vmcs; t.x86_reflect; t.x86_unshadowed; t.x86_posted_irq;
    t.x86_guest_hyp_logic; t.x86_apicv_eoi; t.arm_virtual_eoi;
    t.mig_page_copy; t.mig_state_copy; t.serror_delivery; t.watchdog_poll;
    t.recover_restore; t.mig_retry_backoff; t.tlbi_recipient; t.dvm_sync ]

let table_of_fields = function
  | [ trap_entry; trap_return; exc_entry_el1; sysreg_read; sysreg_write;
      mem_load; mem_store; insn_base; barrier; tlbi; gic_mmio_access;
      irq_delivery; l0_exit_dispatch; l0_sysreg_emulate; l0_hvc_handle;
      l0_inject_vel2; l0_eret_emulate; l0_io_emulate; l0_ipi_send;
      l0_vgic_sync; l0_timer_emulate; l0_mem_fault; guest_hyp_logic;
      x86_vmexit; x86_vmentry; x86_vmread; x86_vmwrite; x86_dispatch;
      x86_merge_vmcs; x86_reflect; x86_unshadowed; x86_posted_irq;
      x86_guest_hyp_logic; x86_apicv_eoi; arm_virtual_eoi;
      mig_page_copy; mig_state_copy; serror_delivery; watchdog_poll;
      recover_restore; mig_retry_backoff; tlbi_recipient; dvm_sync ] ->
    { Cost.trap_entry; trap_return; exc_entry_el1; sysreg_read; sysreg_write;
      mem_load; mem_store; insn_base; barrier; tlbi; gic_mmio_access;
      irq_delivery; l0_exit_dispatch; l0_sysreg_emulate; l0_hvc_handle;
      l0_inject_vel2; l0_eret_emulate; l0_io_emulate; l0_ipi_send;
      l0_vgic_sync; l0_timer_emulate; l0_mem_fault; guest_hyp_logic;
      x86_vmexit; x86_vmentry; x86_vmread; x86_vmwrite; x86_dispatch;
      x86_merge_vmcs; x86_reflect; x86_unshadowed; x86_posted_irq;
      x86_guest_hyp_logic; x86_apicv_eoi; arm_virtual_eoi;
      mig_page_copy; mig_state_copy; serror_delivery; watchdog_poll;
      recover_restore; mig_retry_backoff; tlbi_recipient; dvm_sync }
  | l -> fail "cost table has %d fields, this build expects 43" (List.length l)

(* ------------------------------------------------------------------ *)
(* Component serializers                                               *)
(* ------------------------------------------------------------------ *)

let pstate_node (p : Pstate.t) =
  R
    [ ("el", int (Pstate.el_level p.el));
      ("sp_sel", B p.sp_sel);
      ("irq_masked", B p.irq_masked);
      ("fiq_masked", B p.fiq_masked);
      ("nzcv", int p.nzcv) ]

let pstate_of_node n =
  { Pstate.el = el_of_code (fint "el" n);
    sp_sel = fb "sp_sel" n;
    irq_masked = fb "irq_masked" n;
    fiq_masked = fb "fiq_masked" n;
    nzcv = fint "nzcv" n }

let i64_array a = L (Array.to_list (Array.map (fun v -> I v) a))

let file_node (f : Sysreg_file.t) =
  R
    [ ("values",
       L (List.init Arm.Sysreg.count (fun i -> I (Sysreg_file.get_index f i))));
      ("dirty", S (Bytes.to_string f.dirty)) ]

let load_file n (f : Sysreg_file.t) =
  let values = fl "values" n in
  if List.length values <> Arm.Sysreg.count then
    fail "sysreg file has %d values, this build has %d" (List.length values)
      Arm.Sysreg.count;
  List.iteri (fun i v -> Sysreg_file.set_index f i (get_i v)) values;
  let dirty = fs "dirty" n in
  if String.length dirty <> Bytes.length f.dirty then
    fail "sysreg dirty bitmap is %d bytes, this build has %d" (String.length dirty)
      (Bytes.length f.dirty);
  Bytes.blit_string dirty 0 f.dirty 0 (String.length dirty)

let meter_node (m : Cost.meter) =
  R
    [ ("cycles", int m.cycles);
      ("insns", int m.insns);
      ("traps", int m.traps);
      ("mem_accesses", int m.mem_accesses);
      ("tid", int m.tid);
      ("logging", B m.logging);
      ( "by_kind",
        (* canonical order: all_trap_kinds, zero counts omitted *)
        L
          (List.filter_map
             (fun k ->
               match m.by_kind.(Cost.kind_index k) with
               | 0 -> None
               | c -> Some (L [ int (trap_kind_code k); int c ]))
             Cost.all_trap_kinds) );
      ( "exposed",
        (* canonical order: all_features, zero counts omitted *)
        L
          (List.filter_map
             (fun f ->
               match m.exposed.(Cost.exposed_index f) with
               | 0 -> None
               | c -> Some (L [ int (Cost.exposed_index f); int c ]))
             Expose.Policy.all_features) );
      ("log", L (List.map (fun (k, d) -> L [ int (trap_kind_code k); S d ]) m.log)) ]

let load_meter n (m : Cost.meter) =
  m.Cost.cycles <- fint "cycles" n;
  m.insns <- fint "insns" n;
  m.traps <- fint "traps" n;
  m.mem_accesses <- fint "mem_accesses" n;
  m.tid <- fint "tid" n;
  Array.fill m.by_kind 0 Cost.kind_count 0;
  List.iter
    (fun e ->
      match get_l e with
      | [ k; c ] ->
        m.by_kind.(Cost.kind_index (trap_kind_of_code (get_int k))) <-
          get_int c
      | _ -> fail "bad by_kind entry")
    (fl "by_kind" n);
  Array.fill m.exposed 0 Cost.exposed_count 0;
  List.iter
    (fun e ->
      match get_l e with
      | [ i; c ] ->
        let i = get_int i in
        if i < 0 || i >= Cost.exposed_count then fail "bad exposed index %d" i;
        m.exposed.(i) <- get_int c
      | _ -> fail "bad exposed entry")
    (fl "exposed" n);
  m.log <-
    List.map
      (fun e ->
        match get_l e with
        | [ k; d ] -> (trap_kind_of_code (get_int k), get_s d)
        | _ -> fail "bad trap-log entry")
      (fl "log" n);
  m.logging <- fb "logging" n

let cpu_node (c : Cpu.t) =
  R
    [ ("pc", I c.pc);
      ("regs", i64_array c.regs);
      ("pstate", pstate_node c.pstate);
      ("sysregs", file_node c.sysregs);
      ( "features",
        R
          [ ("revision", int (rev_code c.features.Features.revision));
            ("gicv3", B c.features.Features.gicv3) ] );
      ("el1_vectors", B c.el1_vectors);
      ("saved_regs", L (List.map i64_array c.saved_regs));
      ( "nv2_mask",
        R
          [ ("defer", B c.nv2_mask.Trap_rules.m_defer);
            ("redirect", B c.nv2_mask.Trap_rules.m_redirect);
            ("cached", B c.nv2_mask.Trap_rules.m_cached) ] );
      (* the armed OoH routing grant (non-none while the snapshot caught
         the guest hypervisor in virtual EL2) *)
      ("expose", int (Expose.Policy.to_bits c.expose));
      ("meter", meter_node c.meter) ]
(* hcr_raw/hcr_cached are recomputed lazily from the HCR_EL2 sysreg
   (Cpu.hcr_view self-heals on mismatch), so they are not format. *)

let load_cpu n (c : Cpu.t) =
  c.Cpu.pc <- fi "pc" n;
  let regs = fl "regs" n in
  if List.length regs <> Array.length c.regs then fail "bad GPR count %d" (List.length regs);
  List.iteri (fun i v -> c.regs.(i) <- get_i v) regs;
  c.pstate <- pstate_of_node (field "pstate" n);
  load_file (field "sysregs" n) c.sysregs;
  let f = field "features" n in
  c.features <- Features.v ~gicv3:(fb "gicv3" f) (rev_of_code (fint "revision" f));
  c.el1_vectors <- fb "el1_vectors" n;
  c.saved_regs <-
    List.map (fun l -> Array.of_list (List.map get_i (get_l l))) (fl "saved_regs" n);
  let mn = field "nv2_mask" n in
  c.nv2_mask <-
    { Trap_rules.m_defer = fb "defer" mn;
      m_redirect = fb "redirect" mn;
      m_cached = fb "cached" mn };
  (c.expose <-
     (match Expose.Policy.of_bits (fint "expose" n) with
      | Some p -> p
      | None -> fail "bad exposure bits 0x%x" (fint "expose" n)));
  load_meter (field "meter" n) c.meter

let vcpu_node (v : Vcpu.t) =
  R
    [ ("in_vel2", B v.in_vel2);
      ("nested_launched", B v.nested_launched);
      ("used_lrs", int v.used_lrs);
      ("vel1", file_node v.vel1);
      ("vel2", file_node v.vel2) ]

let host_node (h : Host_hyp.t) =
  let shadow =
    match h.shadow with
    | None -> L []
    | Some (sh, guest_s2, host_s2) ->
      (* Stage-2 tables may share one bump allocator; dedupe by identity
         so restore rebuilds the same sharing. *)
      let allocs = ref [] in
      let alloc_ix a =
        let rec go i = function
          | [] ->
            allocs := !allocs @ [ a ];
            i
          | x :: tl -> if x == a then i else go (i + 1) tl
        in
        go 0 !allocs
      in
      let s2_node (s : Mmu.Stage2.t) =
        R [ ("base", I s.base); ("vmid", int s.vmid); ("alloc", int (alloc_ix s.alloc)) ]
      in
      let shn = s2_node sh.Mmu.Shadow.shadow in
      let gn = s2_node guest_s2 in
      let hn = s2_node host_s2 in
      L
        [ R
            [ ("shadow", shn);
              ("guest", gn);
              ("host", hn);
              ("faults", int sh.Mmu.Shadow.faults);
              ("entries", L (List.map (fun e -> I e) sh.Mmu.Shadow.entries));
              ("allocs", L (List.map (fun a -> I a.Mmu.Walk.next) !allocs)) ] ]
  in
  R
    [ ("vcpu", vcpu_node h.vcpu);
      ("shadow_vttbr", I h.shadow_vttbr);
      ("in_l1", B h.in_l1);
      ("exits", int h.exits);
      ("undef_injected", int h.undef_injected);
      ("pending_vserror", opt (fun v -> I v) h.pending_vserror);
      ("serror_contained", int h.serror_contained);
      ("serror_injected", int h.serror_injected);
      ("pending_irq", opt int h.pending_irq);
      ("l2_is_hyp", B h.l2_is_hyp);
      ("l2_vncr", opt (fun v -> I v) h.l2_vncr);
      ("shadow", shadow);
      (* Derived view of the NEVE deferred access page, slot by register
         name: lets diff say "deferred_page.SPSR_EL1" instead of a raw
         memory address.  Restore skips it — the words section already
         carries the page. *)
      ( "deferred_page",
        R (List.map (fun r -> (Sysreg.name r, I (Core.Deferred_page.read h.page r))) Sysreg.vncr_layout)
      ) ]

let load_host n (h : Host_hyp.t) mem =
  let vn = field "vcpu" n in
  h.vcpu.Vcpu.in_vel2 <- fb "in_vel2" vn;
  h.vcpu.Vcpu.nested_launched <- fb "nested_launched" vn;
  h.vcpu.Vcpu.used_lrs <- fint "used_lrs" vn;
  load_file (field "vel1" vn) h.vcpu.Vcpu.vel1;
  load_file (field "vel2" vn) h.vcpu.Vcpu.vel2;
  h.Host_hyp.shadow_vttbr <- fi "shadow_vttbr" n;
  h.in_l1 <- fb "in_l1" n;
  h.exits <- fint "exits" n;
  h.undef_injected <- fint "undef_injected" n;
  h.pending_vserror <- get_opt get_i (field "pending_vserror" n);
  h.serror_contained <- fint "serror_contained" n;
  h.serror_injected <- fint "serror_injected" n;
  h.pending_irq <- get_opt get_int (field "pending_irq" n);
  h.l2_is_hyp <- fb "l2_is_hyp" n;
  h.l2_vncr <- get_opt get_i (field "l2_vncr" n);
  match field "shadow" n with
  | L [] -> h.shadow <- None
  | L [ sn ] ->
    let allocs =
      Array.of_list (List.map (fun v -> { Mmu.Walk.next = get_i v }) (fl "allocs" sn))
    in
    let s2 name =
      let s = field name sn in
      let ix = fint "alloc" s in
      if ix < 0 || ix >= Array.length allocs then fail "bad allocator index %d" ix;
      { Mmu.Stage2.mem; alloc = allocs.(ix); base = fi "base" s; vmid = fint "vmid" s }
    in
    let sh =
      { Mmu.Shadow.shadow = s2 "shadow";
        faults = fint "faults" sn;
        entries = List.map get_i (fl "entries" sn) }
    in
    h.shadow <- Some (sh, s2 "guest", s2 "host")
  | _ -> fail "bad shadow node"

let ghyp_node (g : Guest_hyp.t) =
  R
    [ ("used_lrs", int g.used_lrs);
      ("cntvoff", I g.cntvoff);
      ("pending_virqs", L (List.map int (List.of_seq (Queue.to_seq g.pending_virqs))));
      ("nested_elr", I g.nested_elr);
      ("nested_spsr", I g.nested_spsr);
      ("exits_handled", int g.exits_handled);
      ("debug_active", B g.debug_active);
      ("pmu_active", B g.pmu_active);
      ("tamper_armed", B (match g.ga.Gaccess.tamper with None -> false | Some _ -> true)) ]

let load_ghyp n (g : Guest_hyp.t) (plan : Plan.t option) =
  g.Guest_hyp.used_lrs <- fint "used_lrs" n;
  g.cntvoff <- fi "cntvoff" n;
  Queue.clear g.pending_virqs;
  List.iter (fun v -> Queue.add (get_int v) g.pending_virqs) (fl "pending_virqs" n);
  g.nested_elr <- fi "nested_elr" n;
  g.nested_spsr <- fi "nested_spsr" n;
  g.exits_handled <- fint "exits_handled" n;
  g.debug_active <- fb "debug_active" n;
  g.pmu_active <- fb "pmu_active" n;
  (* The corruption thunk is a pure function of the plan, whose PRNG
     cursor is itself restored — re-arming reproduces the same mask. *)
  g.ga.Gaccess.tamper <-
    (match plan with Some p when fb "tamper_armed" n -> Some (Plan.corrupt p) | _ -> None)

let plan_node (p : Plan.t) =
  let r = Plan.to_raw p in
  R
    [ ("seed", int r.Plan.raw_seed);
      ("rng", I r.raw_rng);
      ( "events",
        L
          (List.map
             (fun (trap, kind, fired) -> L [ int trap; int (fkind_code kind); B fired ])
             r.raw_events) );
      ( "injected",
        L (List.map (fun (trap, kind) -> L [ int trap; int (fkind_code kind) ]) r.raw_injected)
      ) ]

let plan_of_node n =
  Plan.of_raw
    { Plan.raw_seed = fint "seed" n;
      raw_rng = fi "rng" n;
      raw_events =
        List.map
          (fun e ->
            match get_l e with
            | [ t; k; f ] -> (get_int t, fkind_of_code (get_int k), get_b f)
            | _ -> fail "bad plan event")
          (fl "events" n);
      raw_injected =
        List.map
          (fun e ->
            match get_l e with
            | [ t; k ] -> (get_int t, fkind_of_code (get_int k))
            | _ -> fail "bad injected entry")
          (fl "injected" n) }

let violation_node (v : Invariants.violation) =
  R
    [ ("name", S v.Invariants.v_name);
      ("cpu", int v.v_cpu);
      ("el", int (Pstate.el_level v.v_el));
      ("pc", I v.v_pc);
      ("detail", S v.v_detail);
      ("events", L (List.map (fun e -> S e) v.v_events)) ]

let violation_of_node n =
  { Invariants.v_name = fs "name" n;
    v_cpu = fint "cpu" n;
    v_el = el_of_code (fint "el" n);
    v_pc = fi "pc" n;
    v_detail = fs "detail" n;
    v_events = List.map get_s (fl "events" n) }

(* ------------------------------------------------------------------ *)
(* The machine                                                         *)
(* ------------------------------------------------------------------ *)

let machine_node (m : Machine.t) =
  R
    [ ("magic", S magic);
      ("version", int version);
      ( "config",
        R
          [ ("mech", int (mech_code m.Machine.config.Config.mech));
            ("guest_vhe", B m.Machine.config.Config.guest_vhe);
            ("gicv2", B m.Machine.config.Config.gicv2) ] );
      ("scenario", S (scenario_name m.Machine.scenario));
      ("expose", int (Expose.Policy.to_bits m.Machine.expose));
      ("ncpus", int (Array.length m.Machine.cpus));
      ("table", L (List.map int (table_fields m.Machine.cpus.(0).Cpu.meter.Cost.table)));
      ("checking", B m.Machine.checking);
      ( "mem",
        R
          [ ( "words",
              L (List.map (fun (a, v) -> L [ I a; I v ]) (Memory.sorted_words m.Machine.mem)) );
            ( "mmio",
              L
                (List.map
                   (fun (s, l, name) -> L [ I s; I l; S name ])
                   m.Machine.mem.Memory.mmio) ) ] );
      ("cpus", L (Array.to_list (Array.map cpu_node m.Machine.cpus)));
      ("hosts", L (Array.to_list (Array.map host_node m.Machine.hosts)));
      ("ghyps", L (Array.to_list (Array.map (opt ghyp_node) m.Machine.ghyps)));
      ("fault", opt plan_node m.Machine.fault);
      ( "inv_states",
        L
          (Array.to_list
             (Array.map
                (fun s -> L (Array.to_list (Array.map (fun c -> int c) (Invariants.state_dump s))))
                m.Machine.inv_states)) );
      ("violations", L (List.map violation_node m.Machine.violations));
      ("violation_count", int m.Machine.violation_count);
      ( "irq_fault",
        L (Array.to_list (Array.map (opt (fun k -> int (fkind_code k))) m.Machine.irq_fault)) );
      ("hung", L (Array.to_list (Array.map (fun h -> B h) m.Machine.hung))) ]

(* The buffer is allocated on every save (each migration) directly in
   the major heap.  A two-vCPU nested image starts at about 18 KB and
   grows with the memory the machine has touched; the buffer starts just
   above the small end. *)
let save m =
  let b = Buffer.create 24576 in
  encode b (machine_node m);
  b

let to_string m = Buffer.contents (save m)

let restore s =
  let n = decode s in
  if fs "magic" n <> magic then fail "not a NEVE snapshot (bad magic)";
  let v = fint "version" n in
  if v <> version then fail "snapshot format version %d, this build reads %d" v version;
  let cn = field "config" n in
  let config =
    { Config.mech = mech_of_code (fint "mech" cn);
      guest_vhe = fb "guest_vhe" cn;
      gicv2 = fb "gicv2" cn }
  in
  let scenario = scenario_of_name (fs "scenario" n) in
  let expose =
    match Expose.Policy.of_bits (fint "expose" n) with
    | Some p -> p
    | None -> fail "bad exposure bits 0x%x" (fint "expose" n)
  in
  let ncpus = fint "ncpus" n in
  let table = table_of_fields (List.map get_int (fl "table" n)) in
  let checking = fb "checking" n in
  let plan = get_opt plan_of_node (field "fault" n) in
  (* Rebuild the skeleton — handlers, hooks, IPI wiring, injection point
     — exactly as the original was built, then overwrite every mutable
     field from the tree. *)
  let m =
    Machine.create ?fault_plan:plan ~check_invariants:checking ~ncpus ~table
      ~expose config scenario
  in
  let mn = field "mem" n in
  Memory.clear m.Machine.mem;
  List.iter
    (fun w ->
      match get_l w with
      | [ a; v ] -> Memory.write64 m.Machine.mem (get_i a) (get_i v)
      | _ -> fail "bad memory word")
    (fl "words" mn);
  m.Machine.mem.Memory.mmio <-
    List.map
      (fun r ->
        match get_l r with
        | [ s; l; name ] -> (get_i s, get_i l, get_s name)
        | _ -> fail "bad mmio region")
      (fl "mmio" mn);
  let expect what l =
    if List.length l <> ncpus then
      fail "%s has %d entries for %d cpus" what (List.length l) ncpus;
    l
  in
  List.iteri (fun i c -> load_cpu c m.Machine.cpus.(i)) (expect "cpu list" (fl "cpus" n));
  List.iteri
    (fun i h -> load_host h m.Machine.hosts.(i) m.Machine.mem)
    (expect "host list" (fl "hosts" n));
  List.iteri
    (fun i gn ->
      match (get_opt (fun x -> x) gn, m.Machine.ghyps.(i)) with
      | None, None -> ()
      | Some node, Some g -> load_ghyp node g plan
      | Some _, None -> fail "snapshot carries guest-hypervisor state for cpu %d; machine built none" i
      | None, Some _ -> fail "machine built a guest hypervisor for cpu %d; snapshot carries none" i)
    (expect "ghyp list" (fl "ghyps" n));
  List.iteri
    (fun i sn ->
      Invariants.state_load m.Machine.inv_states.(i)
        (Array.of_list (List.map get_int (get_l sn))))
    (expect "inv_states" (fl "inv_states" n));
  m.Machine.violations <- List.map violation_of_node (fl "violations" n);
  m.Machine.violation_count <- fint "violation_count" n;
  List.iteri
    (fun i v -> m.Machine.irq_fault.(i) <- get_opt (fun k -> fkind_of_code (get_int k)) v)
    (expect "irq_fault" (fl "irq_fault" n));
  List.iteri
    (fun i v -> m.Machine.hung.(i) <- get_b v)
    (expect "hung" (fl "hung" n));
  m

let of_buffer b = restore (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Structural diff                                                     *)
(* ------------------------------------------------------------------ *)

let rec diff_node path a b =
  match (a, b) with
  | I x, I y -> if Int64.equal x y then None else Some (path, Printf.sprintf "0x%Lx vs 0x%Lx" x y)
  | B x, B y -> if x = y then None else Some (path, Printf.sprintf "%b vs %b" x y)
  | S x, S y -> if String.equal x y then None else Some (path, Printf.sprintf "%S vs %S" x y)
  | L xs, L ys ->
    if List.length xs <> List.length ys then
      Some (path, Printf.sprintf "%d vs %d elements" (List.length xs) (List.length ys))
    else
      let rec go i = function
        | [], [] -> None
        | x :: xs, y :: ys -> (
          match diff_node (Printf.sprintf "%s[%d]" path i) x y with
          | Some d -> Some d
          | None -> go (i + 1) (xs, ys))
        | _ -> assert false
      in
      go 0 (xs, ys)
  | R xs, R ys ->
    if List.length xs <> List.length ys then
      Some (path, Printf.sprintf "%d vs %d fields" (List.length xs) (List.length ys))
    else
      let rec go = function
        | [], [] -> None
        | (nx, x) :: xs, (ny, y) :: ys ->
          if not (String.equal nx ny) then
            Some (path, Printf.sprintf "field %S vs %S" nx ny)
          else (
            match diff_node (if path = "" then nx else path ^ "." ^ nx) x y with
            | Some d -> Some d
            | None -> go (xs, ys))
        | _ -> assert false
      in
      go (xs, ys)
  | _ -> Some (path, "node kinds differ")

(* Machines of different shapes (cpu count, mechanism, memory layout)
   are not state-divergent, they are incomparable: report that as a
   typed topology mismatch naming the differing field, instead of a
   misleading "cpus: 2 vs 4 elements" state diff. *)
type diff_result =
  | Identical
  | Topology_mismatch of { path : string; detail : string }
  | Diverged of { path : string; detail : string }

let diff_typed m1 m2 =
  let n1 = machine_node m1 and n2 = machine_node m2 in
  let topo =
    List.find_map
      (fun (name, sub) ->
        let pick n =
          let v = field name n in
          match sub with None -> v | Some s -> field s v
        in
        let path = match sub with None -> name | Some s -> name ^ "." ^ s in
        diff_node path (pick n1) (pick n2))
      [ ("ncpus", None); ("config", None); ("scenario", None);
        ("expose", None); ("mem", Some "mmio") ]
  in
  match topo with
  | Some (path, detail) -> Topology_mismatch { path; detail }
  | None -> (
    match diff_node "" n1 n2 with
    | None -> Identical
    | Some (path, detail) -> Diverged { path; detail })

let diff m1 m2 =
  match diff_typed m1 m2 with
  | Identical -> None
  | Topology_mismatch { path; detail } ->
    Some (path, "topology mismatch: " ^ detail)
  | Diverged { path; detail } -> Some (path, detail)

let pp_diff_result ppf = function
  | Identical -> Format.fprintf ppf "machines identical"
  | Topology_mismatch { path; detail } ->
    Format.fprintf ppf "topology mismatch at %s: %s" path detail
  | Diverged { path; detail } ->
    Format.fprintf ppf "first divergence at %s: %s" path detail

let pp_diff ppf = function
  | None -> Format.fprintf ppf "machines identical"
  | Some (path, detail) -> Format.fprintf ppf "first divergence at %s: %s" path detail
