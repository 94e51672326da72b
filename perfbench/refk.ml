(* Host time in reference seconds.

   Host speed on a shared VM drifts by tens of percent within seconds,
   in CPU time as in wall time, which would swamp any regression bound.
   So every timed stretch of simulator work (a slice of units, one
   set-up, one batch of layer calls) is bracketed by a fixed reference
   kernel run directly before and after it, and its host time is
   reported as measured ÷ reference, scaled by how long the kernel takes
   on the reference host.  A drift slower than one bracket cancels.

   The kernel is itself a tiny instruction-set interpreter: a fixed
   pseudo-random program of 4096 words over 16 registers and a 1 MiB
   memory, run once dispatched by a match on a 4-bit opcode and once
   dispatched through an array of closures.  Host noise here
   (a co-scheduled neighbour, frequency changes) slows code by how much
   it leans on branch prediction, indirect jumps and the caches, and an
   interpreter leans on them as the simulator does.  Across processes
   the two halves' summed time follows the simulator's with correlation
   0.99 and elasticity 1.0-1.2, where a pointer chase or a memory stream
   follow it at 0.8-0.9 (see NOTES.md).  The
   kernel allocates nothing, so it cannot change the simulator's heap or
   GC schedule, and an allocation regression in the simulator stays
   visible. *)

(* Host time is the thread's CPU time (cpuclock.c), not wall time: a
   stretch in which the hypervisor ran another guest on this CPU (about
   3% of a run here, in bursts of milliseconds) is no cost of the code,
   and landing on single units it moved op_us_p99 by tens of percent. *)
external thread_cpu_ns : unit -> (int64[@unboxed])
  = "perfbench_thread_cpu_ns_byte" "perfbench_thread_cpu_ns"
  [@@noalloc]

let now_ns () = Int64.to_int (thread_cpu_ns ())

let prog =
  let rng = Random.State.make [| 3 |] in
  Array.init 4096 (fun _ -> Random.State.bits rng)

let regs = Array.make 16 1
let mem = Bytes.make (1 lsl 20) '\001'

(* The masks are read from the tables, not folded in as constants: a
   constant-folded variant tracked the simulator worse (elasticity 1.4
   against 1.1). *)
let interp prog mem =
  let pm = Array.length prog - 1 and mm = Bytes.length mem - 1 in
  let pc = ref 0 in
  for _ = 1 to 60_000 do
    let w = Array.unsafe_get prog !pc in
    let a = (w lsr 4) land 15 and b = (w lsr 8) land 15 and c = (w lsr 12) land 15 in
    let ra = Array.unsafe_get regs a and rb = Array.unsafe_get regs b in
    let imm = w lsr 16 in
    (match w land 15 with
     | 0 -> Array.unsafe_set regs c (ra + rb)
     | 1 -> Array.unsafe_set regs c (ra - rb)
     | 2 -> Array.unsafe_set regs c (ra lxor rb)
     | 3 -> Array.unsafe_set regs c ((ra land rb) lor 1)
     | 4 -> Array.unsafe_set regs c ((ra * 3) + 1)
     | 5 -> Array.unsafe_set regs c (Char.code (Bytes.unsafe_get mem ((ra + imm) land mm)))
     | 6 -> Bytes.unsafe_set mem ((rb + imm) land mm) (Char.unsafe_chr (ra land 255))
     | 7 -> Array.unsafe_set regs c (ra lsl 1)
     | 8 -> Array.unsafe_set regs c (ra lsr 1)
     | 9 -> if ra land 1 = 0 then pc := (!pc + (w lsr 20)) land pm
     | 10 -> Array.unsafe_set regs c (if ra > rb then ra else rb)
     | 11 -> Array.unsafe_set regs c (ra lor imm)
     | 12 -> Array.unsafe_set regs c (((ra * 31) + rb) land 0xffffff)
     | 13 -> if rb land 3 = 0 then pc := (!pc + 1) land pm
     | 14 ->
       Array.unsafe_set regs c (Char.code (Bytes.unsafe_get mem ((rb * 64) land mm)) + ra)
     | _ -> Array.unsafe_set regs c (ra + 7));
    pc := (!pc + 1) land pm
  done

(* The same instruction set dispatched through an array of closures,
   as the simulator's OCaml code calls through closures and records. *)
type machine = { r : int array; m : Bytes.t; mutable pc : int }

let cm = { r = Array.make 16 1; m = Bytes.make (1 lsl 20) '\001'; pc = 0 }

let handlers : (machine -> int -> unit) array =
  let mm = (1 lsl 20) - 1 in
  let get c w shift = Array.unsafe_get c.r ((w lsr shift) land 15) in
  let set c w v = Array.unsafe_set c.r ((w lsr 12) land 15) v in
  [|
    (fun c w -> set c w (get c w 4 + get c w 8));
    (fun c w -> set c w (get c w 4 - get c w 8));
    (fun c w -> set c w (get c w 4 lxor get c w 8));
    (fun c w -> set c w ((get c w 4 land get c w 8) lor 1));
    (fun c w -> set c w ((get c w 4 * 3) + 1));
    (fun c w -> set c w (Char.code (Bytes.unsafe_get c.m ((get c w 4 + (w lsr 16)) land mm))));
    (fun c w ->
      Bytes.unsafe_set c.m ((get c w 8 + (w lsr 16)) land mm)
        (Char.unsafe_chr (get c w 4 land 255)));
    (fun c w -> set c w (get c w 4 lsl 1));
    (fun c w -> set c w (get c w 4 lsr 1));
    (fun c w -> if get c w 4 land 1 = 0 then c.pc <- (c.pc + (w lsr 20)) land 4095);
    (fun c w ->
      let a = get c w 4 and b = get c w 8 in
      set c w (if a > b then a else b));
    (fun c w -> set c w (get c w 4 lor (w lsr 16)));
    (fun c w -> set c w (((get c w 4 * 31) + get c w 8) land 0xffffff));
    (fun c w -> if get c w 8 land 3 = 0 then c.pc <- (c.pc + 1) land 4095);
    (fun c w -> set c w (Char.code (Bytes.unsafe_get c.m ((get c w 8 * 64) land mm)) + get c w 4));
    (fun c w -> set c w (get c w 4 + 7));
  |]

let closures () =
  for _ = 1 to 60_000 do
    let w = Array.unsafe_get prog cm.pc in
    (Array.unsafe_get handlers (w land 15)) cm w;
    cm.pc <- (cm.pc + 1) land 4095
  done

let kernel () =
  interp prog mem;
  closures ()

(* The kernel's time on the reference host, a 2-core x86-64 VM whose
   own kernel time moves between about 450 and 900 us as its load
   changes; one reference second is the time that host would have taken
   at a kernel time of exactly this. *)
let reference_ns = 800_000.

(* ns of one kernel run.  An untimed run first brings the tables back
   into cache, so the timed one does not depend on how much of the cache
   the simulator's last slice displaced. *)
let run () =
  kernel ();
  let t0 = now_ns () in
  kernel ();
  now_ns () - t0

(* A sequence of brackets: [open_ ()] runs the kernel once, then every
   [close b ns] charges [ns] of measured host time to the stretch that
   just ended and runs the kernel again, which also opens the next
   stretch.  The slowdown of one stretch is the mean of its two kernel
   times over [reference_ns]. *)
type t = {
  mutable last : int;         (* the latest kernel time, ns *)
  mutable measured : float;   (* Σ measured host ns *)
  mutable reference : float;  (* Σ bracketing kernel ns, one mean per stretch *)
  mutable stretches : int;
}

let open_ () = { last = run (); measured = 0.; reference = 0.; stretches = 0 }

(* Closes a stretch of [ns] measured host ns and returns its slowdown
   against the reference host. *)
let close b ns =
  let after = run () in
  let r = float_of_int (b.last + after) /. 2. in
  b.last <- after;
  b.measured <- b.measured +. float_of_int ns;
  b.reference <- b.reference +. r;
  b.stretches <- b.stretches + 1;
  r /. reference_ns

(* Mean slowdown against the reference host over the brackets. *)
let slowdown b =
  if b.stretches = 0 then 1.
  else b.reference /. float_of_int b.stretches /. reference_ns

(* Σmeasured ÷ Σreference, scaled to reference-host ns. *)
let ref_ns b = b.measured /. slowdown b
