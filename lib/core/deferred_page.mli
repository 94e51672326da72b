(** The deferred access page (paper Section 6.1).

    A page of normal memory, named by {!Vncr} BADDR, in which NEVE-enabled
    hardware stores the values of VM system registers instead of trapping.
    Every page-resident register has a fixed 8-byte slot
    ({!Arm.Sysreg.vncr_offset}).

    The host hypervisor populates the page with virtual-EL2 register
    values before running a guest hypervisor, reads it back when it needs
    those values (e.g. on a trapped eret, to load the nested VM's state
    into hardware), and refreshes the cached copies of trap-on-write
    registers after emulating a trapped write. *)

type t = {
  base : int64;       (** physical address, page-aligned *)
  mem : Arm.Memory.t;
}

exception Unmapped_register of Arm.Sysreg.t
(** Raised when accessing a register with no page slot (e.g. a
    redirect-class register, which lives in its EL1 twin instead). *)

val create : Arm.Memory.t -> base:int64 -> t
(** Allocate (zero) a deferred access page at [base].
    @raise Invalid_argument if [base] is not page-aligned. *)

val slot_addr : t -> Arm.Sysreg.t -> int64
(** Physical address of a register's slot.
    @raise Unmapped_register if the register has no slot. *)

val has_slot : Arm.Sysreg.t -> bool

val read : t -> Arm.Sysreg.t -> int64
val write : t -> Arm.Sysreg.t -> int64 -> unit

val layout_len : int
(** Number of slots in {!Arm.Sysreg.vncr_layout}, precomputed for the
    per-transition copy-cost charges. *)

val populate : t -> read_virtual:(Arm.Sysreg.t -> int64) -> unit
(** Fill every slot from a register-valued function (typically the
    vCPU's virtual state), before entering the guest hypervisor. *)

val drain : t -> write_virtual:(Arm.Sysreg.t -> int64 -> unit) -> unit
(** Read every slot back into a register sink, when the host needs the
    authoritative values (trapped eret, vCPU descheduling). *)

(** A subset of the layout's slots split by the register file backing
    them: EL2-level registers and EL1/EL0-level ones, each as parallel
    arrays of dense register indices and page byte offsets. *)
type slots = {
  el2_regs : int array;
  el2_offs : int array;
  el1_regs : int array;
  el1_offs : int array;
}

val slots : (Arm.Sysreg.t -> bool) -> slots
(** The slots whose register satisfies the predicate. *)

val populate_files : t -> el2:Arm.Sysreg_file.t -> el1:Arm.Sysreg_file.t -> unit
(** {!populate} from two register files: EL2-level slots from [el2],
    the rest from [el1].  The page is looked up once; with a write
    observer attached, every slot is stored through
    {!Arm.Memory.write64} in layout order. *)

val drain_files :
  t -> slots -> el2:Arm.Sysreg_file.t -> el1:Arm.Sysreg_file.t -> unit
(** {!drain} of the given slots into two register files, as unchecked
    {!Arm.Sysreg_file.hw_write}s. *)

val vm_execution_state : Arm.Sysreg.t list
(** The Table 3 "VM Execution Control" subset: page-resident values that
    are real EL1 machine state for the nested VM and must be pushed into
    hardware before it runs. *)

val vncr_value : t -> enable:bool -> int64
(** The VNCR_EL2 encoding pointing at this page. *)

val pp : Format.formatter -> t -> unit
