(* Bench-side spans for the traced run.

   One span wraps each public simulator call a workload makes: name,
   start, end, parent span and the id of the workload unit it belongs to.
   Spans live in int arrays that grow by doubling and are written out
   once, when the benchmark ends.  With [on] false, [enter] and [exit]
   are a single branch and allocate nothing, so the untraced run pays
   for neither. *)

type name =
  | Unit
  | Create_boot
  | Hypercall
  | Mmio
  | Ipi
  | Irq
  | Compute
  | Remap
  | Read
  | Migrate
  | Gen
  | Oracle

let all =
  [ Unit; Create_boot; Hypercall; Mmio; Ipi; Irq; Compute; Remap; Read;
    Migrate; Gen; Oracle ]

let index = function
  | Unit -> 0
  | Create_boot -> 1
  | Hypercall -> 2
  | Mmio -> 3
  | Ipi -> 4
  | Irq -> 5
  | Compute -> 6
  | Remap -> 7
  | Read -> 8
  | Migrate -> 9
  | Gen -> 10
  | Oracle -> 11

let label = function
  | Unit -> "unit"
  | Create_boot -> "hyp.machine.create_boot"
  | Hypercall -> "hyp.machine.hypercall"
  | Mmio -> "hyp.machine.mmio"
  | Ipi -> "hyp.machine.ipi"
  | Irq -> "hyp.machine.irq"
  | Compute -> "hyp.machine.compute"
  | Remap -> "mmu.shootdown.remap"
  | Read -> "mmu.shootdown.read"
  | Migrate -> "snap.migrate"
  | Gen -> "fuzz.gen"
  | Oracle -> "fuzz.oracle"

let count = List.length all

let now_ns = Refk.now_ns

let on = ref false

type store = {
  mutable n : int;
  mutable kind : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable parent : int array;
  mutable uid : int array;
}

let st =
  { n = 0; kind = [||]; t0 = [||]; t1 = [||]; parent = [||]; uid = [||] }

let stack = Array.make 64 (-1)
let depth = ref 0

(* The workload unit the next spans belong to; -1 during set-up. *)
let current_unit = ref (-1)

let grow () =
  let cap = max 4096 (2 * Array.length st.kind) in
  let ext a = Array.append a (Array.make (cap - Array.length a) 0) in
  st.kind <- ext st.kind;
  st.t0 <- ext st.t0;
  st.t1 <- ext st.t1;
  st.parent <- ext st.parent;
  st.uid <- ext st.uid

let reset () =
  st.n <- 0;
  depth := 0;
  current_unit := -1

let enter name =
  if not !on then -1
  else begin
    if st.n = Array.length st.kind then grow ();
    let i = st.n in
    st.n <- i + 1;
    st.kind.(i) <- index name;
    st.parent.(i) <- (if !depth = 0 then -1 else stack.(!depth - 1));
    st.uid.(i) <- !current_unit;
    st.t1.(i) <- -1;
    stack.(!depth) <- i;
    incr depth;
    st.t0.(i) <- now_ns ();
    i
  end

let exit i =
  if i >= 0 then begin
    st.t1.(i) <- now_ns ();
    decr depth
  end

let depth_now () = !depth

(* Close every span opened above depth [d]: a unit that raised left
   them open. *)
let unwind d =
  while !depth > d do
    decr depth;
    let i = stack.(!depth) in
    if st.t1.(i) < 0 then st.t1.(i) <- now_ns ()
  done

(* Per span name: calls and summed self time (duration minus the part of
   it that child spans cover), in ns.  Set-up spans (warm-up calls) are
   left out, except machine creation, which only set-up may do. *)
let self_summary () =
  let self = Array.init st.n (fun i -> st.t1.(i) - st.t0.(i)) in
  for i = 0 to st.n - 1 do
    let p = st.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - (st.t1.(i) - st.t0.(i))
  done;
  let calls = Array.make count 0 and total = Array.make count 0 in
  let create_boot = index Create_boot in
  for i = 0 to st.n - 1 do
    let k = st.kind.(i) in
    if st.uid.(i) >= 0 || k = create_boot then begin
      calls.(k) <- calls.(k) + 1;
      total.(k) <- total.(k) + self.(i)
    end
  done;
  (calls, total)

let names = Array.of_list (List.map label all)

(* One JSON object: the name table and one [name, start_ns, end_ns,
   parent, unit] row per span, start times relative to the first span. *)
let write path =
  let oc = open_out path in
  let base = if st.n = 0 then 0 else st.t0.(0) in
  Printf.fprintf oc "{\"names\": [%s],\n \"spans\": [\n"
    (String.concat ", "
       (Array.to_list (Array.map (Printf.sprintf "%S") names)));
  for i = 0 to st.n - 1 do
    Printf.fprintf oc "  [%d, %d, %d, %d, %d]%s\n" st.kind.(i)
      (st.t0.(i) - base) (st.t1.(i) - base) st.parent.(i) st.uid.(i)
      (if i = st.n - 1 then "" else ",")
  done;
  output_string oc " ]}\n";
  close_out oc
