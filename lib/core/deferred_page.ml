(* The deferred access page (Section 6.1).

   A page of normal memory, named by VNCR_EL2.BADDR, in which the hardware
   stores the values of VM system registers while NEVE is enabled.  Each
   register has a well-defined 8-byte slot (Arm.Sysreg.vncr_offset).

   The host hypervisor:
   - populates the page with the virtual-EL2 register values before running
     the guest hypervisor;
   - reads the page when it needs those values (e.g. on a trapped eret, to
     load the nested VM's state into hardware);
   - refreshes cached copies (trap-on-write registers) after emulating a
     trapped write. *)

module Sysreg = Arm.Sysreg
module Memory = Arm.Memory

type t = {
  base : int64;          (* physical address, page-aligned *)
  mem : Memory.t;
}

exception Unmapped_register of Sysreg.t

let create mem ~base =
  if Int64.logand base 0xfffL <> 0L then
    invalid_arg "Deferred_page.create: base must be page-aligned";
  Memory.zero_range mem ~start:base ~len:(Int64.of_int Sysreg.page_size);
  { base; mem }

let slot_addr t r =
  match Sysreg.vncr_offset r with
  | Some off -> Int64.add t.base (Int64.of_int off)
  | None -> raise (Unmapped_register r)

let has_slot r = Sysreg.vncr_offset r <> None

let read t r = Memory.read64 t.mem (slot_addr t r)
let write t r v = Memory.write64 t.mem (slot_addr t r) v

(* The layout as a flat (register, page offset) array: populate/drain run
   on every virtual-EL2 entry and trapped eret, so they iterate this
   instead of re-deriving each slot offset from the layout list. *)
let layout_len = List.length Sysreg.vncr_layout

let layout_slots : (Sysreg.t * int64) array =
  Array.of_list
    (List.map
       (fun r ->
         match Sysreg.vncr_offset r with
         | Some off -> (r, Int64.of_int off)
         | None -> assert false)
       Sysreg.vncr_layout)

(* Populate the page from a register-valued function (typically the
   virtual-EL2 state the host hypervisor maintains for the vCPU). *)
let populate t ~read_virtual =
  for i = 0 to layout_len - 1 do
    let r, off = Array.unsafe_get layout_slots i in
    Memory.write64 t.mem (Int64.add t.base off) (read_virtual r)
  done;
  if !Trace.on then
    Trace.emit ~a0:(Int64.of_int layout_len) ~a1:t.base Trace.Page_populate

(* Drain the page back into a register sink (typically the virtual-EL2
   state), e.g. when the guest hypervisor is descheduled or erets into the
   nested VM and the host needs the authoritative values. *)
let drain t ~write_virtual =
  for i = 0 to layout_len - 1 do
    let r, off = Array.unsafe_get layout_slots i in
    write_virtual r (Memory.read64 t.mem (Int64.add t.base off))
  done;
  if !Trace.on then
    Trace.emit ~a0:(Int64.of_int layout_len) ~a1:t.base Trace.Page_drain

(* The same two loops over the page's bytes, for the host's per-exit
   path: registers come from (and go back to) two register files — the
   EL2-level slots from [el2], the rest from [el1] — instead of through a
   per-slot closure, and the page is looked up once.  Stores go through
   [Memory.write64] per slot, in layout order, whenever a write observer
   is attached, so it sees every stored word in order; otherwise the
   order of the raw stores is unobservable (each slot is written
   once). *)
type slots = {
  el2_regs : int array;  (* dense register indices, EL2-level slots *)
  el2_offs : int array;  (* their byte offsets in the page *)
  el1_regs : int array;  (* the same for the EL1/EL0-level slots *)
  el1_offs : int array;
}

let slot_is_el2 r = Sysreg.min_el r = Arm.Pstate.EL2

let slots keep =
  let kept = Array.map (fun (r, _) -> keep r) layout_slots in
  let pick el2 =
    let n = ref 0 in
    Array.iteri
      (fun k (r, _) -> if kept.(k) && slot_is_el2 r = el2 then incr n)
      layout_slots;
    let regs = Array.make !n 0 and offs = Array.make !n 0 in
    let j = ref 0 in
    Array.iteri
      (fun k (r, off) ->
        if kept.(k) && slot_is_el2 r = el2 then begin
          regs.(!j) <- Sysreg.index r;
          offs.(!j) <- Int64.to_int off;
          incr j
        end)
      layout_slots;
    (regs, offs)
  in
  let el2_regs, el2_offs = pick true and el1_regs, el1_offs = pick false in
  { el2_regs; el2_offs; el1_regs; el1_offs }

let all_slots = slots (fun _ -> true)

let populate_files t ~el2 ~el1 =
  if Memory.unobserved t.mem then begin
    let pg = Memory.page_for_store t.mem t.base in
    let s = all_slots in
    Arm.Sysreg_file.to_page el2 ~regs:s.el2_regs ~offs:s.el2_offs pg;
    Arm.Sysreg_file.to_page el1 ~regs:s.el1_regs ~offs:s.el1_offs pg
  end
  else
    Array.iter
      (fun (r, off) ->
        Memory.write64 t.mem (Int64.add t.base off)
          (Arm.Sysreg_file.read (if slot_is_el2 r then el2 else el1) r))
      layout_slots;
  if !Trace.on then
    Trace.emit ~a0:(Int64.of_int layout_len) ~a1:t.base Trace.Page_populate

let drain_files t s ~el2 ~el1 =
  let pg = Memory.page_of t.mem t.base in
  Arm.Sysreg_file.of_page el2 ~checked:false ~regs:s.el2_regs ~offs:s.el2_offs pg;
  Arm.Sysreg_file.of_page el1 ~checked:false ~regs:s.el1_regs ~offs:s.el1_offs pg;
  if !Trace.on then
    Trace.emit ~a0:(Int64.of_int layout_len) ~a1:t.base Trace.Page_drain

(* Registers the host must push into hardware EL1 state when entering the
   nested VM: the Table 3 "VM Execution Control" subset that lives in the
   page but is real EL1 machine state for the nested VM. *)
let vm_execution_state = Sysreg.table3_vm_execution_control

let vncr_value t ~enable = Vncr.encode (Vncr.v ~baddr:t.base ~enable)

let pp ppf t = Fmt.pf ppf "deferred-page@0x%Lx" t.base
