(* Simulated counters, read straight from the machines' meters.

   These are the deterministic half of the benchmark: for a fixed
   (workload, seed, unit count) every value here repeats exactly, traced
   or not, on any host.  Host time never feeds them. *)

module Machine = Hyp.Machine

type acc = {
  mutable cycles : int;
  mutable insns : int;
  mutable traps : int;
  kinds : int array;    (* per Cost.kind_index *)
  exposed : int array;  (* per Cost.exposed_index *)
}

let make () =
  {
    cycles = 0;
    insns = 0;
    traps = 0;
    kinds = Array.make Cost.kind_count 0;
    exposed = Array.make Cost.exposed_count 0;
  }

let clear a =
  a.cycles <- 0;
  a.insns <- 0;
  a.traps <- 0;
  Array.fill a.kinds 0 (Array.length a.kinds) 0;
  Array.fill a.exposed 0 (Array.length a.exposed) 0

(* [a] := current totals of every meter of [m]. *)
let read a (m : Machine.t) =
  clear a;
  for c = 0 to Array.length m.Machine.cpus - 1 do
    let mt = m.Machine.cpus.(c).Arm.Cpu.meter in
    a.cycles <- a.cycles + mt.Cost.cycles;
    a.insns <- a.insns + mt.Cost.insns;
    a.traps <- a.traps + mt.Cost.traps;
    for k = 0 to Cost.kind_count - 1 do
      a.kinds.(k) <- a.kinds.(k) + mt.Cost.by_kind.(k)
    done;
    for f = 0 to Cost.exposed_count - 1 do
      a.exposed.(f) <- a.exposed.(f) + mt.Cost.exposed.(f)
    done
  done

(* [u] += [post] - [pre]. *)
let add_delta u ~pre ~post =
  u.cycles <- u.cycles + post.cycles - pre.cycles;
  u.insns <- u.insns + post.insns - pre.insns;
  u.traps <- u.traps + post.traps - pre.traps;
  for k = 0 to Cost.kind_count - 1 do
    u.kinds.(k) <- u.kinds.(k) + post.kinds.(k) - pre.kinds.(k)
  done;
  for f = 0 to Cost.exposed_count - 1 do
    u.exposed.(f) <- u.exposed.(f) + post.exposed.(f) - pre.exposed.(f)
  done

(* [tot] += [u] *)
let add tot u =
  tot.cycles <- tot.cycles + u.cycles;
  tot.insns <- tot.insns + u.insns;
  tot.traps <- tot.traps + u.traps;
  Array.iteri (fun k n -> tot.kinds.(k) <- tot.kinds.(k) + n) u.kinds;
  Array.iteri (fun f n -> tot.exposed.(f) <- tot.exposed.(f) + n) u.exposed

(* A fingerprint of the per-kind trap and per-feature exposure counts. *)
let kinds_hash a =
  let h = ref 17 in
  Array.iter (fun n -> h := ((!h * 31) + n) land max_int) a.kinds;
  Array.iter (fun n -> h := ((!h * 31) + n) land max_int) a.exposed;
  !h

(* --- per-unit records --- *)

(* One row per unit, in arrays allocated before the run starts: the
   harness's own memory must not grow during the run, or heap_peak_mb
   and the GC schedule would measure it. *)
type units = {
  n : int;
  u_cycles : int array;
  u_insns : int array;
  u_traps : int array;
  u_hash : int array;
  u_aux : int array;  (* workload-specific simulated sample, -1 if none *)
  ok : Bytes.t;
  total : acc;        (* summed over every unit *)
}

let units n =
  let col () = Array.make n 0 in
  {
    n;
    u_cycles = col ();
    u_insns = col ();
    u_traps = col ();
    u_hash = col ();
    u_aux = col ();
    ok = Bytes.make n '\001';
    total = make ();
  }

let set us i (u : acc) ~ok ~aux =
  us.u_cycles.(i) <- u.cycles;
  us.u_insns.(i) <- u.insns;
  us.u_traps.(i) <- u.traps;
  us.u_hash.(i) <- kinds_hash u;
  us.u_aux.(i) <- aux;
  if not ok then Bytes.set us.ok i '\000';
  add us.total u

let fail us i = Bytes.set us.ok i '\000'
let is_ok us i = Bytes.get us.ok i = '\001'

let failed us =
  let f = ref 0 in
  for i = 0 to us.n - 1 do
    if not (is_ok us i) then incr f
  done;
  !f

(* The simulated columns of one unit, rendered; the verdict included,
   since a failure is a simulated outcome too. *)
let render_unit us i =
  Printf.sprintf "%d,%d,%d,%d,%d,%d" us.u_cycles.(i) us.u_insns.(i)
    us.u_traps.(i) us.u_hash.(i)
    (if is_ok us i then 1 else 0)
    us.u_aux.(i)

(* The first unit where two runs' simulated columns differ. *)
let first_difference a b =
  let n = min a.n b.n in
  let rec go i =
    if i >= n then if a.n = b.n then None else Some n
    else if render_unit a i <> render_unit b i then Some i
    else go (i + 1)
  in
  go 0

let digest us =
  let b = Buffer.create (us.n * 24) in
  for i = 0 to us.n - 1 do
    Buffer.add_string b (render_unit us i);
    Buffer.add_char b ';'
  done;
  Printf.sprintf "%016Lx" (Shard.fnv1a_64 (Buffer.contents b))

(* Nearest-rank percentile of a column. *)
let percentile col q =
  let a = Array.copy col in
  Array.sort compare a;
  let n = Array.length a in
  a.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))
