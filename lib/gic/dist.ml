(* GIC distributor: tracks interrupt state per (cpu, intid) for banked
   SGI/PPI and globally for SPI, decides the highest-priority pending
   interrupt for each CPU, and generates SGIs (IPIs). *)

type irq_record = {
  mutable state : Irq.state;
  mutable enabled : bool;
  mutable priority : int;  (* 0 = highest *)
  mutable target : int;    (* CPU for SPIs *)
}

let fresh_record () =
  { state = Irq.Inactive; enabled = false; priority = 0xa0; target = 0 }

(* Fault-injection verdict for one raised interrupt. *)
type disposition = Deliver | Drop | Duplicate

type t = {
  ncpus : int;
  (* banked SGI/PPI state: (cpu, intid<32) -> record; SPI: intid -> record *)
  banked : (int * int, irq_record) Hashtbl.t;
  shared : (int, irq_record) Hashtbl.t;
  mutable enabled : bool;
  (* Fault-injection hook consulted on every raise_irq; [None] (and a
     [Deliver] verdict) is normal delivery. *)
  mutable inject : (cpu:int -> intid:int -> disposition) option;
}

let create ~ncpus =
  {
    ncpus;
    banked = Hashtbl.create 64;
    shared = Hashtbl.create 64;
    enabled = true;
    inject = None;
  }

(* Every record back to absent (Hashtbl.reset, not clear: a table that
   grew shrinks to its creation size, so iteration order — which breaks
   priority ties in [best_pending] — is a fresh table's).  The injection
   hook is wiring and stays. *)
let reset t =
  Hashtbl.reset t.banked;
  Hashtbl.reset t.shared;
  t.enabled <- true

let record t ~cpu ~intid =
  if intid < 32 then begin
    match Hashtbl.find_opt t.banked (cpu, intid) with
    | Some r -> r
    | None ->
      let r = fresh_record () in
      Hashtbl.replace t.banked (cpu, intid) r;
      r
  end
  else begin
    match Hashtbl.find_opt t.shared intid with
    | Some r -> r
    | None ->
      let r = fresh_record () in
      Hashtbl.replace t.shared intid r;
      r
  end

let enable t ~cpu ~intid = (record t ~cpu ~intid).enabled <- true
let disable t ~cpu ~intid = (record t ~cpu ~intid).enabled <- false

let set_priority t ~cpu ~intid p = (record t ~cpu ~intid).priority <- p
let set_target t ~intid ~cpu = (record t ~cpu ~intid).target <- cpu

(* Make an interrupt pending.  For SPIs the registered target CPU receives
   it; for SGI/PPI the caller names the CPU.  The fault-injection hook can
   drop the interrupt or deliver it twice; our [Irq.state] collapses
   double-pending into pending (as level-triggered hardware does), so a
   duplicate only shows up when the first was already acknowledged. *)
let raise_irq t ~cpu ~intid =
  let disposition =
    match t.inject with Some f -> f ~cpu ~intid | None -> Deliver
  in
  let r = record t ~cpu ~intid in
  match disposition with
  | Drop -> ()
  | Deliver -> r.state <- Irq.add_pending r.state
  | Duplicate ->
    r.state <- Irq.add_pending r.state;
    r.state <- Irq.add_pending r.state

(* Send an SGI (IPI) from [src] to [dst]: the distributor makes the SGI
   pending on the destination CPU's bank. *)
let send_sgi t ~src:_ ~dst ~intid =
  (* The guest-reachable encoding (ICC_SGI1R_EL1) masks its intid field
     to four bits, so an out-of-range id here is a simulator bug, not
     guest input — surface it typed, with the PR-1 [Fault.Error]
     convention, never as a bare [Invalid_argument]. *)
  if intid < 0 || intid >= 16 then
    Fault.Error.sim_bug
      (Fault.Error.Bad_intid
         (Printf.sprintf "Dist.send_sgi: intid %d is not an SGI (0..15)"
            intid));
  if dst < 0 || dst >= t.ncpus then
    Fault.Error.sim_bug
      (Fault.Error.Bad_intid
         (Printf.sprintf
            "Dist.send_sgi: destination cpu %d outside 0..%d" dst
            (t.ncpus - 1)));
  raise_irq t ~cpu:dst ~intid

(* Highest-priority pending enabled interrupt for a CPU, if any. *)
let best_pending t ~cpu =
  if not t.enabled then None
  else begin
    let best = ref None in
    let consider intid (r : irq_record) =
      let pending =
        r.enabled
        && (r.state = Irq.Pending || r.state = Irq.Pending_and_active)
      in
      if pending then
        match !best with
        | Some (_, bp) when bp <= r.priority -> ()
        | _ -> best := Some (intid, r.priority)
    in
    Hashtbl.iter (fun (c, intid) r -> if c = cpu then consider intid r) t.banked;
    Hashtbl.iter (fun intid r -> if r.target = cpu then consider intid r) t.shared;
    Option.map fst !best
  end

(* CPU interface acknowledge: pending -> active, returns the intid. *)
let acknowledge t ~cpu =
  match best_pending t ~cpu with
  | None -> None
  | Some intid ->
    let r = record t ~cpu ~intid in
    r.state <- Irq.activate r.state;
    Some intid

(* End of interrupt: active -> inactive (or back to pending). *)
let eoi t ~cpu ~intid =
  let r = record t ~cpu ~intid in
  r.state <- Irq.deactivate r.state

let state t ~cpu ~intid = (record t ~cpu ~intid).state
