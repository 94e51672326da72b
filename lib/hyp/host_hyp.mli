(** The host hypervisor (L0): a KVM/ARM-shaped hypervisor owning EL2.

    It multiplexes one virtual EL1 context and one virtual EL2 context
    per vCPU onto the hardware (paper Section 4): while the guest
    hypervisor runs, the hardware EL1 registers hold its virtual-EL2
    execution mapping; when it erets into its nested VM, the host loads
    the nested VM's EL1 state instead.  Every trap from EL1 runs the full
    non-VHE KVM exit path (save guest EL1 state, restore host state,
    dispatch, reverse) — why each trap costs thousands of cycles and exit
    multiplication hurts.

    NEVE changes only the boundaries: the host populates the deferred
    access page before running the guest hypervisor and drains it on the
    trapped eret; the handler sees ~9x fewer traps. *)

module Sysreg = Arm.Sysreg
module Cpu = Arm.Cpu
module Exn = Arm.Exn

type scenario = Single_vm | Nested

(** A compiled l0 exit path: every register's EL2 MRS/MSR route
    resolved under one raw HCR_EL2 value and feature record, and the
    world-switch copy loops resolved to (register, context-page offset)
    arrays.  Replaying it is observably identical to interpreting the
    path through {!Cpu.exec} — same state writes in the same order, meter
    charges, copy counts, PC and scratch-register end state — without
    the per-access routing and allocation. *)
type l0_plan

type t = {
  cpu : Cpu.t;
  config : Config.t;
  scenario : scenario;
  expose : Expose.Policy.t;
      (** OoH per-feature grant set; the routing grant on the CPU is
          armed only while the guest hypervisor is in virtual EL2 *)
  vcpu : Vcpu.t;
  page : Core.Deferred_page.t;
  l0_ctx : int64;       (** the host's own saved EL1 context *)
  guest_stash : int64;  (** where l0_enter parks the guest's EL1 state *)
  mutable shadow_vttbr : int64;
  mutable on_vel2_entry : (Vcpu.nested_exit -> unit) option;
      (** hook running the guest hypervisor's exit handler *)
  mutable in_l1 : bool;
      (** inside the guest hypervisor's handling: vEL1 hvc/SGI activity
          is the L1 kernel's own, not a fresh nested exit *)
  mutable exits : int;
  mutable undef_injected : int;
      (** UNDEFs delivered into the guest for malformed trapped
          accesses *)
  mutable pending_vserror : int64 option;
      (** FEAT_RAS containment: syndrome of a physical SError absorbed by
          the host, awaiting re-injection as a virtual SError.  The field
          is the source of truth between containment and delivery — world
          switches rewrite the transient HCR_EL2.VSE bit. *)
  mutable serror_contained : int;  (** physical SErrors absorbed by L0 *)
  mutable serror_injected : int;
      (** virtual SErrors delivered into the guest *)
  mutable send_ipi : (target:int -> intid:int -> unit) option;
  mutable pending_irq : int option;
  mutable shadow : (Mmu.Shadow.t * Mmu.Stage2.t * Mmu.Stage2.t) option;
      (** shadow stage-2: (shadow, guest stage-2, host stage-2) *)
  mutable l2_is_hyp : bool;
      (** recursive virtualization: the nested VM is itself a hypervisor,
          run with the NV bits armed; its hypervisor instructions are
          forwarded to the guest hypervisor (Section 6.2) *)
  mutable l2_vncr : int64 option;
      (** machine-physical VNCR to program while the L2 hypervisor runs:
          L1's virtual VNCR with a translated BADDR *)
  mutable l0_plans : l0_plan list;
      (** compiled exit-path plans, one per (HCR, features) pair seen *)
  mutable l0_cur : l0_plan;  (** the plan used last *)
  nested_hcr : int64;
      (** HCR_EL2 while a guest hypervisor runs: the configuration's
          target value, or {!basic_hcr} on paravirtualized hardware *)
  exposed : int array;  (** dense indices of the granted registers *)
  drain_slots : Core.Deferred_page.slots;
      (** deferred-page slots the NEVE drain writes back: all but the
          twin-backed and the exposed registers' *)
}

val table : t -> Cost.table
val basic_hcr : int64
val hcr_for : t -> vel2:bool -> int64

val vel2_read : ?from_stash:bool -> t -> Sysreg.t -> int64
(** Read a virtual-EL2 register from wherever it currently lives:
    hardware EL1 twin, the deferred access page, or the software file.
    [from_stash] reads twin-backed registers from the stash after
    l0_enter switched the hardware away. *)

val vel2_write : ?to_hw:bool -> t -> Sysreg.t -> int64 -> unit

val l0_enter : t -> unit
(** The host's exit path, run on every trap: save the interrupted EL1
    context to the stash, restore the host's EL1 world. *)

val l0_exit : t -> unit
(** Reverse of {!l0_enter}: restore the stashed context and re-arm the
    trap controls. *)

val stash_read : t -> Sysreg.t -> int64

val inject_undef : t -> unit
(** Deliver an UNDEF into the interrupted guest context (KVM's
    kvm_inject_undefined): write the guest's EL1 exception bank in the
    stash, unwind through {!l0_exit}, and eret onto the guest's EL1
    vector.  Used for guest-triggerable nonsense — unknown trapped
    encodings, out-of-registry hvc operands — instead of crashing the
    simulation. *)

val inject_vel2 : t -> Vcpu.nested_exit -> unit
(** Switch the vCPU to "guest hypervisor running", deliver a virtual EL2
    exception describing the exit, populate the NEVE page, and run the
    [on_vel2_entry] hook (unless this is the guest hypervisor's own
    kernel-to-lowvisor transition). *)

val emulate_eret : t -> unit
(** The guest hypervisor executed eret: fold its execution mapping back
    into the virtual EL2 file, drain the NEVE page, load the virtual EL1
    context into hardware, program the hardware vGIC and shadow stage-2,
    and enter the nested VM. *)

val emulate_sysreg :
  t -> access:Sysreg.access -> rt:int -> is_read:bool -> bool
(** Emulate one trapped access against the virtual state; true when the
    emulation switched context (nested-VM SGI forwarding), telling the
    caller not to unwind. *)

val deliver_pending_vserror : t -> bool
(** Deliver a pending virtual SError at an operation boundary, re-arming
    the architectural VSE bit from [pending_vserror] if a world switch
    rewrote it.  Returns whether the SError was taken; it stays pending
    while the vCPU sits at EL2. *)

val pend_vserror : t -> syndrome:int64 -> unit
(** Pend a virtual SError from outside the trap path (supervision and
    recovery campaigns): records the syndrome and arms HCR_EL2.VSE +
    VSESR_EL2, so a snapshot taken before delivery carries the pending
    error. *)

val kill_l2 : t -> resume_pc:int64 -> unit
(** Tear down the nested VM but keep the guest hypervisor runnable
    (the supervision layer's graceful-degradation policy): park the vCPU
    back in virtual EL2 at [resume_pc], discarding nested-VM run state.
    Register pokes, not guest instructions — the caller accounts the
    policy's recovery cost. *)

val handler : t -> Cpu.t -> Exn.entry -> unit
(** The EL2 exception handler installed on the CPU. *)

val create :
  ?id:int -> ?expose:Expose.Policy.t -> Cpu.t -> Config.t -> scenario -> t
(** [expose] (default {!Expose.Policy.none}) is the OoH per-feature
    grant set L0 hands the guest hypervisor: granted facilities' virtual
    EL2 accesses run trap-free against hardware while the guest
    hypervisor is in virtual EL2, with the hardware state folded back
    into the virtual-EL2 file on the trapped eret. *)

val start_guest_hypervisor : t -> unit
(** Put the machine in "guest hypervisor running in virtual EL2" state,
    ready for the first nested launch. *)

val start_vm : t -> unit
(** Put the machine in "plain VM running" state (Table 1's VM column). *)

val pp : Format.formatter -> t -> unit
