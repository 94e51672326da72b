(** World-switch code, shared between the host hypervisor (executing at
    EL2) and the guest hypervisor (executing at EL1 through the access
    funnel, where the architecture routes — and possibly traps — every
    access).

    The functions move register state between the hardware and a context
    save area, following KVM/ARM's __sysreg_save/restore structure.  What
    traps is decided entirely by who executes them and under which
    configuration — the code is identical, which is the point. *)

module Sysreg = Arm.Sysreg

(** How the executing hypervisor touches the world. *)
type ops = {
  rd : Sysreg.access -> int64;
  wr : Sysreg.access -> int64 -> unit;
  ld : int64 -> int64;
  st : int64 -> int64 -> unit;
}

val tampered_ops : ops -> tamper:(int64 -> int64) -> ops
(** Fault-injection wrapper: every value read through [rd]/[ld] passes
    through [tamper]; writes are untouched, so corruption surfaces as a
    save/restore mismatch for the invariant checker. *)

val slot : int64 -> Sysreg.t -> int64

val reg_copies : unit -> int
(** Monotonic count of register copies performed by the save/restore
    loops on the {e calling domain} since it started.  The world-switch
    tracer takes deltas around enter/exit to attribute a copy count to
    each switch; the counter is domain-local so fleet shards never race
    on it. *)

val add_copies : int -> unit
(** Account [n] copies performed by a compiled save/restore loop that
    bypasses {!save_array}/{!restore_array} (the host's l0 fast path),
    keeping {!reg_copies} deltas identical to the interpreted loops. *)

val own_el2_access : vhe:bool -> Sysreg.t -> Sysreg.access
(** How a hypervisor reaches its {e own} EL2 register: the E2H-redirected
    EL1 form where one exists for VHE (no trap when deprivileged), the
    EL2 register directly otherwise. *)

val vm_el1_access : vhe:bool -> Sysreg.t -> Sysreg.access
(** How a hypervisor reaches a {e VM's} EL1 register: the [_EL12] alias
    for VHE (plain EL1 accesses are redirected to its own EL2 state),
    direct otherwise. *)

val save_list : ops -> ctx:int64 -> via:(Sysreg.t -> Sysreg.access) ->
  Sysreg.t list -> unit

val restore_list : ops -> ctx:int64 -> via:(Sysreg.t -> Sysreg.access) ->
  Sysreg.t list -> unit

val save_array : ops -> ctx:int64 -> via:(Sysreg.t -> Sysreg.access) ->
  Sysreg.t array -> unit
(** {!save_list} over a precomputed register array (what the per-switch
    entry points use). *)

val restore_array : ops -> ctx:int64 -> via:(Sysreg.t -> Sysreg.access) ->
  Sysreg.t array -> unit

val save_vm_el1 : ops -> vhe:bool -> ctx:int64 -> unit
val restore_vm_el1 : ops -> vhe:bool -> ctx:int64 -> unit
val save_el0 : ops -> ctx:int64 -> unit
val restore_el0 : ops -> ctx:int64 -> unit

val save_host_el1 : ops -> ctx:int64 -> unit
(** Non-VHE only: a VHE hypervisor's host state lives in EL2 registers
    and stays put. *)

val restore_host_el1 : ops -> ctx:int64 -> unit

val save_debug : ops -> ctx:int64 -> unit
(** Breakpoint/watchpoint context, only for debugged VMs. *)

val restore_debug : ops -> ctx:int64 -> unit
val save_pmu : ops -> ctx:int64 -> unit
val restore_pmu : ops -> ctx:int64 -> unit

(** vGIC interface accessors: GICv3 system registers or GICv2's
    memory-mapped GICH frame — identical code paths, different accessor,
    as on real hardware. *)
type gic_ops = {
  gic_rd : Sysreg.t -> int64;
  gic_wr : Sysreg.t -> int64 -> unit;
}

val sysreg_gic : ops -> gic_ops

val save_vgic : ?gic:gic_ops -> ops -> ctx:int64 -> used_lrs:int -> unit
(** Read interface state (only in-use list registers — this matters for
    trap counts) and disable the interface. *)

val restore_vgic : ?gic:gic_ops -> ops -> ctx:int64 -> used_lrs:int -> unit

val vm_timer_access : vhe:bool -> Sysreg.t -> Sysreg.access
(** The VM's EL1 virtual timer: direct for non-VHE, the always-trapping
    [_EL02] forms for VHE (paper Section 7.1). *)

val save_vm_timer : ops -> vhe:bool -> ctx:int64 -> unit
val restore_vm_timer : ops -> vhe:bool -> ctx:int64 -> unit
val write_timer_controls : ops -> vhe:bool -> cntvoff:int64 -> unit

val arm_vhe_hyp_timer : ops -> cval:int64 -> unit
(** The VHE hypervisor's own EL2 virtual timer, programmed through
    E2H-redirected EL1 timer instructions — never traps. *)

val cptr_access : vhe:bool -> Sysreg.access

val cptr_active : int64
val mdcr_active : int64
(** The CPTR and MDCR values {!activate_traps} writes. *)

val activate_traps : ops -> vhe:bool -> hcr:int64 -> unit
val deactivate_traps : ops -> vhe:bool -> unit
val write_stage2 : ops -> vttbr:int64 -> unit
val write_vpidr : ops -> midr:int64 -> mpidr:int64 -> unit
