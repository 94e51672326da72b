(* Tests for the ARM architecture model: PSTATE, HCR, the system-register
   database, syndrome encoding, and A64 instruction encoding. *)

module Sysreg = Arm.Sysreg
module Pstate = Arm.Pstate
module Hcr = Arm.Hcr
module Exn = Arm.Exn
module Insn = Arm.Insn
module Encode = Arm.Encode

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- PSTATE --- *)

let pstate_gen =
  QCheck.Gen.(
    let* el = oneofl [ Pstate.EL0; Pstate.EL1; Pstate.EL2 ] in
    let* sp_sel = bool in
    let* irq_masked = bool in
    let* fiq_masked = bool in
    let* nzcv = int_bound 15 in
    return
      {
        Pstate.el;
        sp_sel = (if el = Pstate.EL0 then false else sp_sel);
        irq_masked;
        fiq_masked;
        nzcv;
      })

let pstate_arb = QCheck.make ~print:(Fmt.str "%a" Pstate.pp) pstate_gen

let test_spsr_roundtrip =
  QCheck.Test.make ~count:500 ~name:"pstate: SPSR encode/decode roundtrip"
    pstate_arb (fun p -> Pstate.of_spsr (Pstate.to_spsr p) = p)

let test_currentel_bits () =
  check Alcotest.int64 "EL0" 0L (Pstate.currentel_bits Pstate.EL0);
  check Alcotest.int64 "EL1" 4L (Pstate.currentel_bits Pstate.EL1);
  check Alcotest.int64 "EL2" 8L (Pstate.currentel_bits Pstate.EL2)

let test_el_order () =
  check Alcotest.bool "EL0 < EL1" true (Pstate.compare_el Pstate.EL0 Pstate.EL1 < 0);
  check Alcotest.bool "EL1 < EL2" true (Pstate.compare_el Pstate.EL1 Pstate.EL2 < 0)

(* --- HCR --- *)

let hcr_bits_gen =
  QCheck.Gen.(
    let* bits =
      flatten_l
        (List.map
           (fun b -> map (fun on -> (b, on)) bool)
           [ Hcr.vm; Hcr.imo; Hcr.fmo; Hcr.twi; Hcr.tsc; Hcr.tvm; Hcr.tge;
             Hcr.trvm; Hcr.e2h; Hcr.nv; Hcr.nv1; Hcr.nv2 ])
    in
    return
      (List.fold_left (fun acc (b, on) -> if on then Hcr.set acc b else acc) 0L bits))

let test_hcr_roundtrip =
  QCheck.Test.make ~count:500 ~name:"hcr: encode/decode roundtrip"
    (QCheck.make ~print:Int64.to_string hcr_bits_gen) (fun v ->
      Hcr.encode (Hcr.decode v) = v)

let test_hcr_positions () =
  (* the bits the paper's mechanisms hinge on, per the ARM ARM *)
  check Alcotest.int64 "TGE is bit 27" (Int64.shift_left 1L 27) Hcr.tge;
  check Alcotest.int64 "TVM is bit 26" (Int64.shift_left 1L 26) Hcr.tvm;
  check Alcotest.int64 "E2H is bit 34" (Int64.shift_left 1L 34) Hcr.e2h;
  check Alcotest.int64 "NV is bit 42" (Int64.shift_left 1L 42) Hcr.nv;
  check Alcotest.int64 "NV1 is bit 43" (Int64.shift_left 1L 43) Hcr.nv1;
  check Alcotest.int64 "NV2 is bit 45" (Int64.shift_left 1L 45) Hcr.nv2

(* --- system-register database --- *)

let test_encodings_unique () =
  let seen = Hashtbl.create 128 in
  List.iter
    (fun r ->
      let e = Sysreg.enc r in
      (match Hashtbl.find_opt seen e with
       | Some other ->
         Alcotest.failf "duplicate encoding for %s and %s" (Sysreg.name r)
           (Sysreg.name other)
       | None -> ());
      Hashtbl.replace seen e r)
    Sysreg.all

let test_of_enc_inverse () =
  List.iter
    (fun r ->
      match Sysreg.of_enc (Sysreg.enc r) with
      | Some r' when r' = r -> ()
      | _ -> Alcotest.failf "of_enc broken for %s" (Sysreg.name r))
    Sysreg.all

let test_names_unique () =
  let names = List.map Sysreg.name Sysreg.all in
  check Alcotest.int "no duplicate names"
    (List.length names)
    (List.length (List.sort_uniq String.compare names))

let test_table3_contents () =
  (* the paper's Table 3 lists 27 rows; TPIDR_EL2 appears twice, so the
     distinct register set has 26 members *)
  check Alcotest.int "Table 3 distinct registers" 26
    (List.length Sysreg.table3);
  check Alcotest.int "paper's row count including the TPIDR_EL2 repeat" 27
    (List.length Sysreg.table3 + 1);
  List.iter
    (fun r ->
      check Alcotest.bool
        (Sysreg.name r ^ " classified as VM register")
        true
        (Sysreg.neve_class r = Sysreg.NV_vm_reg))
    Sysreg.table3

let test_table4_contents () =
  (* row count discrepancy: see EXPERIMENTS.md "Tables 2-5" *)
  check Alcotest.int "Table 4 rows" 18 (List.length Sysreg.table4);
  check Alcotest.int "redirect group" 10 (List.length Sysreg.table4_redirect);
  check Alcotest.int "VHE redirect group" 2
    (List.length Sysreg.table4_redirect_vhe);
  check Alcotest.int "trap-on-write group" 4
    (List.length Sysreg.table4_trap_on_write);
  check Alcotest.int "redirect-or-trap group" 2
    (List.length Sysreg.table4_redirect_or_trap);
  (* each redirect target is the _EL1 register of the same name *)
  List.iter
    (fun r ->
      match Sysreg.neve_class r with
      | Sysreg.NV_redirect tgt | Sysreg.NV_redirect_vhe tgt ->
        let base n = Filename.chop_suffix n "_EL2" in
        check Alcotest.string
          (Sysreg.name r ^ " redirects to its _EL1 twin")
          (base (Sysreg.name r) ^ "_EL1")
          (Sysreg.name tgt)
      | _ -> ())
    (Sysreg.table4_redirect @ Sysreg.table4_redirect_vhe)

let test_table5_contents () =
  (* 6 single registers + 4 AP0R + 4 AP1R + 16 LR *)
  check Alcotest.int "Table 5 rows" 30 (List.length Sysreg.table5);
  List.iter
    (fun r ->
      check Alcotest.bool (Sysreg.name r ^ " traps on write") true
        (Sysreg.neve_class r = Sysreg.NV_trap_on_write);
      check Alcotest.bool (Sysreg.name r ^ " is a GIC register") true
        (Sysreg.is_gic_ich r))
    Sysreg.table5

let test_vncr_offsets () =
  let offsets = List.filter_map Sysreg.vncr_offset Sysreg.all in
  check Alcotest.int "every page-resident register has a unique offset"
    (List.length offsets)
    (List.length (List.sort_uniq Int.compare offsets));
  List.iter
    (fun off ->
      check Alcotest.bool "offset is 8-byte aligned" true (off mod 8 = 0);
      check Alcotest.bool "offset fits in the page" true
        (off >= 0 && off + 8 <= Sysreg.page_size))
    offsets;
  (* every Table 3 register must have a slot; redirect registers must not *)
  List.iter
    (fun r ->
      check Alcotest.bool (Sysreg.name r ^ " has a slot") true
        (Sysreg.vncr_offset r <> None))
    Sysreg.table3;
  List.iter
    (fun r ->
      check Alcotest.bool (Sysreg.name r ^ " has no slot") true
        (Sysreg.vncr_offset r = None))
    Sysreg.table4_redirect

let test_min_el_sanity () =
  List.iter
    (fun r ->
      let n = Sysreg.name r in
      let el = Sysreg.min_el r in
      if Filename.check_suffix n "_EL2" then
        check Alcotest.bool (n ^ " is EL2") true (el = Pstate.EL2))
    Sysreg.all

let test_alias_encoding () =
  (* _EL12/_EL02 forms use op1=5 and are distinct from the direct form *)
  let a = Sysreg.el12 Sysreg.SCTLR_EL1 in
  let _, op1, _, _, _ = Sysreg.access_enc a in
  check Alcotest.int "EL12 op1" 5 op1;
  check Alcotest.string "EL12 name" "SCTLR_EL12" (Sysreg.access_name a);
  let b = Sysreg.el02 Sysreg.CNTV_CTL_EL0 in
  check Alcotest.string "EL02 name" "CNTV_CTL_EL02" (Sysreg.access_name b)

(* --- exception syndromes --- *)

let test_esr_roundtrip () =
  List.iter
    (fun ec ->
      let esr = Exn.esr ~ec ~iss:0x1234 in
      check Alcotest.bool (Exn.ec_name ec ^ " ec roundtrip") true
        (Exn.esr_ec esr = Some ec);
      check Alcotest.int (Exn.ec_name ec ^ " iss roundtrip") 0x1234
        (Exn.esr_iss esr))
    [ Exn.EC_wfx; Exn.EC_svc64; Exn.EC_hvc64; Exn.EC_smc64; Exn.EC_sysreg;
      Exn.EC_eret; Exn.EC_iabt_lower; Exn.EC_dabt_lower ]

let sysreg_arb =
  QCheck.make
    ~print:(fun r -> Sysreg.name r)
    QCheck.Gen.(oneofl Sysreg.all)

let test_sysreg_iss_roundtrip =
  QCheck.Test.make ~count:500 ~name:"exn: trapped-access ISS roundtrip"
    QCheck.(triple sysreg_arb (int_bound 30) bool)
    (fun (reg, rt, is_read) ->
      let access = Sysreg.direct reg in
      let iss = Exn.sysreg_iss ~access ~rt ~is_read in
      Exn.sysreg_iss_access iss = Some access
      && Exn.sysreg_iss_rt iss = rt
      && Exn.sysreg_iss_is_read iss = is_read)

(* --- A64 encoding --- *)

let test_encode_roundtrip_all_sysregs () =
  List.iter
    (fun r ->
      let mrs = Insn.Mrs (3, Sysreg.direct r) in
      if not (Encode.roundtrips mrs) then
        Alcotest.failf "MRS roundtrip failed for %s" (Sysreg.name r);
      let msr = Insn.Msr (Sysreg.direct r, Insn.Reg 4) in
      if not (Encode.roundtrips msr) then
        Alcotest.failf "MSR roundtrip failed for %s" (Sysreg.name r))
    Sysreg.all

let test_encode_roundtrip_misc () =
  List.iter
    (fun i ->
      check Alcotest.bool (Insn.to_string i ^ " roundtrips") true
        (Encode.roundtrips i))
    [ Insn.Hvc 0; Insn.Hvc 0xffff; Insn.Svc 7; Insn.Smc 1; Insn.Eret;
      Insn.Nop; Insn.Isb; Insn.Dsb;
      Insn.Ldr (5, Insn.Based (28, 0x18L));
      Insn.Str (0, Insn.Based (1, 0x7f8L));
      Insn.Mov (9, Insn.Imm 0xbeefL) ]

let test_encode_el12_roundtrip () =
  List.iter
    (fun r ->
      let i = Insn.Mrs (7, Sysreg.el12 r) in
      if not (Encode.roundtrips i) then
        Alcotest.failf "EL12 roundtrip failed for %s" (Sysreg.name r))
    Hyp.Reglists.el12_capable

let test_decode_unknown () =
  match Encode.decode 0x12345678 with
  | Encode.D_unknown w -> check Alcotest.int "word preserved" 0x12345678 w
  | Encode.D_insn i -> Alcotest.failf "decoded garbage as %s" (Insn.to_string i)

let test_hvc_encoding_value () =
  (* hvc #0 is 0xd4000002 per the ARM ARM *)
  check Alcotest.int "hvc #0" 0xd4000002 (Encode.encode (Insn.Hvc 0));
  check Alcotest.int "eret" 0xd69f03e0 (Encode.encode Insn.Eret);
  check Alcotest.int "nop" 0xd503201f (Encode.encode Insn.Nop)

(* --- the dense register index --- *)

let test_index_bijective () =
  check Alcotest.int "count = |all|" Sysreg.count (List.length Sysreg.all);
  let seen = Array.make Sysreg.count false in
  List.iter
    (fun r ->
      let i = Sysreg.index r in
      if i < 0 || i >= Sysreg.count then
        Alcotest.failf "%s: index %d out of range" (Sysreg.name r) i;
      if seen.(i) then Alcotest.failf "%s: index %d collides" (Sysreg.name r) i;
      seen.(i) <- true;
      if Sysreg.of_index i <> r then
        Alcotest.failf "%s: of_index does not invert index" (Sysreg.name r))
    Sysreg.all;
  Array.iteri
    (fun i covered ->
      if not covered then Alcotest.failf "index %d names no register" i)
    seen

let test_index_vncr_agreement () =
  List.iter
    (fun r ->
      check Alcotest.bool (Sysreg.name r)
        (Sysreg.vncr_offset r <> None)
        (Sysreg.has_vncr_offset r))
    Sysreg.all

(* --- the array-backed register file, against a naive model ---

   The model is the obvious hashtable implementation (what the file
   replaced); a long deterministic op sequence must be observationally
   identical through read and dump. *)

module SF = Arm.Sysreg_file

let test_sysreg_file_model () =
  let file = SF.create () in
  let model = Hashtbl.create 256 in
  let dirty = Hashtbl.create 256 in
  let model_reset () =
    Hashtbl.reset model;
    Hashtbl.reset dirty;
    List.iter (fun r -> Hashtbl.replace model r (SF.reset_value r)) Sysreg.all
  in
  let model_dump () =
    List.filter_map
      (fun r ->
        let v = Hashtbl.find model r in
        if Hashtbl.mem dirty r && v <> 0L then Some (r, v) else None)
      Sysreg.all
  in
  model_reset ();
  let state = ref 123456789 in
  let rand n =
    state := ((!state * 1103515245) + 12345) land 0x3fff_ffff;
    !state mod n
  in
  for _ = 1 to 20_000 do
    let r = Sysreg.of_index (rand Sysreg.count) in
    match rand 100 with
    | k when k < 45 ->
      let v = if rand 8 = 0 then 0L else Int64.of_int (1 + rand 1_000_000) in
      SF.write file r v;
      if not (Sysreg.read_only r) then begin
        Hashtbl.replace model r v;
        Hashtbl.replace dirty r ()
      end
    | k when k < 70 ->
      let v = Int64.of_int (rand 1_000_000) in
      SF.hw_write file r v;
      Hashtbl.replace model r v;
      Hashtbl.replace dirty r ()
    | k when k < 96 ->
      check Alcotest.int64 (Sysreg.name r) (Hashtbl.find model r)
        (SF.read file r)
    | 96 ->
      SF.reset file;
      model_reset ()
    | _ ->
      let d = SF.dump file and md = model_dump () in
      check Alcotest.int "dump length" (List.length md) (List.length d);
      List.iter2
        (fun (mr, mv) (fr, fv) ->
          if mr <> fr then
            Alcotest.failf "dump order: model %s, file %s" (Sysreg.name mr)
              (Sysreg.name fr);
          check Alcotest.int64 (Sysreg.name mr) mv fv)
        md d
  done

let test_copy_indices_matches_copy () =
  let src = SF.create () and a = SF.create () and b = SF.create () in
  List.iteri
    (fun i r -> SF.hw_write src r (Int64.of_int ((i * 37) + 1)))
    Sysreg.all;
  let regs = Hyp.Reglists.el1_state in
  SF.copy ~src ~dst:a regs;
  SF.copy_indices ~src ~dst:b (Hyp.Reglists.index_array regs);
  List.iter
    (fun r ->
      check Alcotest.int64 (Sysreg.name r) (SF.read a r) (SF.read b r))
    Sysreg.all

let suite =
  [
    ("pstate: CurrentEL bits", `Quick, test_currentel_bits);
    ("pstate: EL ordering", `Quick, test_el_order);
    qtest test_spsr_roundtrip;
    qtest test_hcr_roundtrip;
    ("hcr: architectural bit positions", `Quick, test_hcr_positions);
    ("sysreg: encodings are unique", `Quick, test_encodings_unique);
    ("sysreg: of_enc inverts enc", `Quick, test_of_enc_inverse);
    ("sysreg: names are unique", `Quick, test_names_unique);
    ("sysreg: Table 3 classification", `Quick, test_table3_contents);
    ("sysreg: Table 4 classification", `Quick, test_table4_contents);
    ("sysreg: Table 5 classification", `Quick, test_table5_contents);
    ("sysreg: deferred-page offsets", `Quick, test_vncr_offsets);
    ("sysreg: min_el sanity", `Quick, test_min_el_sanity);
    ("sysreg: alias encodings", `Quick, test_alias_encoding);
    ("exn: ESR roundtrip", `Quick, test_esr_roundtrip);
    qtest test_sysreg_iss_roundtrip;
    ("encode: MRS/MSR roundtrip for every register", `Quick,
     test_encode_roundtrip_all_sysregs);
    ("encode: misc instructions roundtrip", `Quick, test_encode_roundtrip_misc);
    ("encode: _EL12 forms roundtrip", `Quick, test_encode_el12_roundtrip);
    ("encode: unknown words preserved", `Quick, test_decode_unknown);
    ("encode: architectural opcode values", `Quick, test_hvc_encoding_value);
    ("sysreg: dense index is a bijection", `Quick, test_index_bijective);
    ("sysreg: has_vncr_offset agrees with vncr_offset", `Quick,
     test_index_vncr_agreement);
    ("sysreg-file: equivalent to the hashtable model", `Quick,
     test_sysreg_file_model);
    ("sysreg-file: copy_indices == copy", `Quick,
     test_copy_indices_matches_copy);
  ]
