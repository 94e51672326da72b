(** Exception classes and syndrome (ESR_ELx) encoding.

    Exception-class values follow the ARM ARM.  The classes that matter
    for the paper: trapped MSR/MRS (0x18), HVC (0x16), and the ERET trap
    (0x1a) added by FEAT_NV in ARMv8.3. *)

type ec =
  | EC_unknown
  | EC_wfx
  | EC_svc64
  | EC_hvc64
  | EC_smc64
  | EC_sysreg      (** trapped MSR/MRS/system instruction *)
  | EC_eret        (** FEAT_NV: trapped ERET from EL1 *)
  | EC_iabt_lower
  | EC_dabt_lower  (** stage-2 data abort: MMIO emulation, shadow faults *)
  | EC_serror      (** FEAT_RAS: SError interrupt (physical or virtual) *)
  | EC_irq         (** asynchronous interrupt (software-defined code) *)

val ec_code : ec -> int
val ec_of_code : int -> ec option
val ec_name : ec -> string

val esr : ec:ec -> iss:int -> int64
(** Build an ESR value: EC in [31:26], IL set, ISS in [24:0]. *)

val esr_ec : int64 -> ec option
val esr_iss : int64 -> int

val sysreg_iss : access:Sysreg.access -> rt:int -> is_read:bool -> int
(** ISS for a trapped MSR/MRS per the ARM ARM: direction bit 0, CRm[4:1],
    Rt[9:5], CRn[13:10], Op1[16:14], Op2[19:17], Op0[21:20]. *)

val sysreg_iss_rt : int -> int
(** The Rt field of a trapped-MSR/MRS ISS. *)

val sysreg_iss_is_read : int -> bool
(** The direction bit of a trapped-MSR/MRS ISS: true for MRS. *)

val sysreg_iss_access : int -> Sysreg.access option
(** The register access a trapped-MSR/MRS ISS names: the register with
    exactly its encoding; else, with Op1 replaced by 0, an EL1 register
    reached through its [_EL12] alias; else, with Op1 replaced by 3, an
    EL0 register through its [_EL02] alias (for any Op1); else [None].
    One table lookup; the results are preallocated, so it allocates
    nothing. *)

val hvc_iss : int -> int
(** The 16-bit immediate carried by HVC/SVC/SMC. *)

(** A fully-described exception being delivered. *)
type entry = {
  target : Pstate.el;        (** exception level taking the exception *)
  ec : ec;
  iss : int;
  fault_addr : int64 option; (** FAR/HPFAR material for aborts *)
}

val pp_entry : Format.formatter -> entry -> unit

val entry_label : entry -> string
(** Compact ["EC->EL iss=0x.."] form for trace-event details.  Allocates;
    callers guard with [if !Trace.on then ...]. *)
