(* Exception classes and syndrome (ESR_ELx) encoding.

   The exception-class values follow the ARM ARM; the ones that matter for
   the paper are trapped MSR/MRS (0x18), HVC (0x16), and the ERET trap
   (0x1a) added by FEAT_NV in ARMv8.3. *)

type ec =
  | EC_unknown
  | EC_wfx
  | EC_svc64
  | EC_hvc64
  | EC_smc64
  | EC_sysreg          (* trapped MSR/MRS/system instruction *)
  | EC_eret            (* FEAT_NV: trapped ERET from EL1 *)
  | EC_iabt_lower
  | EC_dabt_lower      (* stage-2 data abort: MMIO emulation, shadow faults *)
  | EC_serror          (* FEAT_RAS: SError interrupt (physical or virtual) *)
  | EC_irq             (* not an ESR class: asynchronous interrupt *)

let ec_code = function
  | EC_unknown -> 0x00
  | EC_wfx -> 0x01
  | EC_svc64 -> 0x15
  | EC_hvc64 -> 0x16
  | EC_smc64 -> 0x17
  | EC_sysreg -> 0x18
  | EC_eret -> 0x1a
  | EC_iabt_lower -> 0x20
  | EC_dabt_lower -> 0x24
  | EC_serror -> 0x2f
  | EC_irq -> 0x3f (* software-defined: interrupts have no ESR EC *)

let ec_of_code = function
  | 0x00 -> Some EC_unknown
  | 0x01 -> Some EC_wfx
  | 0x15 -> Some EC_svc64
  | 0x16 -> Some EC_hvc64
  | 0x17 -> Some EC_smc64
  | 0x18 -> Some EC_sysreg
  | 0x1a -> Some EC_eret
  | 0x20 -> Some EC_iabt_lower
  | 0x24 -> Some EC_dabt_lower
  | 0x2f -> Some EC_serror
  | 0x3f -> Some EC_irq
  | _ -> None

let ec_name = function
  | EC_unknown -> "UNKNOWN"
  | EC_wfx -> "WFx"
  | EC_svc64 -> "SVC64"
  | EC_hvc64 -> "HVC64"
  | EC_smc64 -> "SMC64"
  | EC_sysreg -> "SYSREG"
  | EC_eret -> "ERET"
  | EC_iabt_lower -> "IABT"
  | EC_dabt_lower -> "DABT"
  | EC_serror -> "SERROR"
  | EC_irq -> "IRQ"

(* ESR layout: EC in [31:26], IL in [25], ISS in [24:0]. *)
let esr ~ec ~iss =
  Int64.logor
    (Int64.shift_left (Int64.of_int (ec_code ec)) 26)
    (Int64.logor 0x0200_0000L (Int64.of_int (iss land 0x1ff_ffff)))

let esr_ec v =
  ec_of_code (Int64.to_int (Int64.logand (Int64.shift_right_logical v 26) 0x3fL))

let esr_iss v = Int64.to_int (Int64.logand v 0x1ff_ffffL)

(* ISS encoding for a trapped MSR/MRS, per the ARM ARM:
   bit 0: direction (1 = read/MRS), [4:1]=CRm, [9:5]=Rt, [13:10]=CRn,
   [16:14]=Op1, [19:17]=Op2, [21:20]=Op0. *)
let sysreg_iss ~(access : Sysreg.access) ~rt ~is_read =
  let op0, op1, crn, crm, op2 = Sysreg.access_enc access in
  (if is_read then 1 else 0)
  lor (crm lsl 1)
  lor ((rt land 0x1f) lsl 5)
  lor (crn lsl 10)
  lor (op1 lsl 14)
  lor (op2 lsl 17)
  lor (op0 lsl 20)

let sysreg_iss_rt iss = (iss lsr 5) land 0x1f
let sysreg_iss_is_read iss = iss land 1 = 1

(* The register a trapped MSR/MRS names is a function of the ISS's five
   encoding fields alone.  They pack into a 16-bit key — the ISS with Rt
   and the direction bit squeezed out: CRm[3:0], CRn[7:4], Op1[10:8],
   Op2[13:11], Op0[15:14] — looked up in a small open-addressed table
   built once from the register database: [reg_keys] holds the keys
   (0 = empty slot; every register has Op0 >= 2, so no key is 0),
   [reg_slots] the dense index + 1 of the register with that encoding.
   Both are [Bytes] (opaque to the GC) and the lookup returns
   preallocated [Some access] values, so a decode allocates nothing. *)
let iss_key iss = ((iss lsr 6) land 0xfff0) lor ((iss lsr 1) land 0xf)

let enc_key (op0, op1, crn, crm, op2) =
  (op0 lsl 14) lor (op2 lsl 11) lor (op1 lsl 8) lor (crn lsl 4) lor crm

let with_op1 key op1 = (key land lnot (7 lsl 8)) lor (op1 lsl 8)

let table_bits = 9
let table_mask = (1 lsl table_bits) - 1
let hash key = ((key * 0x9e37) lsr 7) land table_mask

(* domain-safety: allowlisted global — built at module load from the
   immutable register database, read-only afterwards. *)
let reg_keys, reg_slots =
  assert (Sysreg.count < 256 && Sysreg.count < 1 lsl table_bits);
  let keys = Bytes.make (2 lsl table_bits) '\000' in
  let slots = Bytes.make (1 lsl table_bits) '\000' in
  List.iter
    (fun r ->
      let key = enc_key (Sysreg.enc r) in
      let rec place h =
        let k = Bytes.get_uint16_le keys (2 * h) in
        if k = 0 || k = key then begin
          (* a duplicate encoding keeps the later register, as [of_enc] *)
          Bytes.set_uint16_le keys (2 * h) key;
          Bytes.set_uint8 slots h (Sysreg.index r + 1)
        end
        else place ((h + 1) land table_mask)
      in
      place (hash key))
    Sysreg.all;
  (keys, slots)

(* Dense index + 1 of the register encoded by [key], 0 for none. *)
let find_reg key =
  let rec probe h =
    let k = Bytes.get_uint16_le reg_keys (2 * h) in
    if k = key then Bytes.get_uint8 reg_slots h
    else if k = 0 then 0
    else probe ((h + 1) land table_mask)
  in
  probe (hash key)

(* [Some access] for every (register, alias) a decode can return, at
   3 * dense index + alias; only registers with Op1=0 are reachable
   through the _EL12 fallback and only those with Op1=3 through _EL02.
   domain-safety: allowlisted global — built at module load, read-only
   afterwards. *)
let trapped_accesses : Sysreg.access option array =
  Array.init (3 * Sysreg.count) (fun c ->
      let r = Sysreg.of_index (c / 3) in
      let _, op1, _, _, _ = Sysreg.enc r in
      match c mod 3 with
      | 0 -> Some (Sysreg.direct r)
      | 1 when op1 = 0 -> Some (Sysreg.el12 r)
      | 2 when op1 = 3 -> Some (Sysreg.el02 r)
      | _ -> None)

(* Resolution order: the register with exactly this encoding (direct);
   else the Op1=0 register reached through its _EL12 alias; else the
   Op1=3 register through its _EL02 alias — for any Op1, not only the
   architectural Op1=5 alias space. *)
let sysreg_iss_access iss =
  let key = iss_key iss in
  let d = find_reg key in
  if d <> 0 then Array.unsafe_get trapped_accesses (3 * (d - 1))
  else
    let d = find_reg (with_op1 key 0) in
    if d <> 0 then Array.unsafe_get trapped_accesses ((3 * (d - 1)) + 1)
    else
      let d = find_reg (with_op1 key 3) in
      if d <> 0 then Array.unsafe_get trapped_accesses ((3 * (d - 1)) + 2)
      else None

(* ISS for HVC/SVC/SMC carries the 16-bit immediate. *)
let hvc_iss imm = imm land 0xffff

(* A fully-described exception being delivered. *)
type entry = {
  target : Pstate.el;     (* EL taking the exception *)
  ec : ec;
  iss : int;
  (* Fault address for aborts (FAR/HPFAR material). *)
  fault_addr : int64 option;
}

let pp_entry ppf e =
  Fmt.pf ppf "%s -> %s (iss=0x%x%a)" (ec_name e.ec)
    (Pstate.el_name e.target) e.iss
    Fmt.(option (fun ppf a -> pf ppf ", far=0x%Lx" a))
    e.fault_addr

(* Compact one-line form for trace events (class, target EL, syndrome).
   Only built when tracing is on — callers guard the allocation. *)
let entry_label e =
  Printf.sprintf "%s->%s iss=0x%x" (ec_name e.ec) (Pstate.el_name e.target)
    e.iss
