(* Incremental synthesis: stage-key properties, warm reconstruction,
   and a small fixed-seed edit-replay battery.  The artifact store
   itself is covered by test_store.ml. *)

module Stg = Rtcad_stg.Stg
module Stg_io = Rtcad_stg.Stg_io
module Library = Rtcad_stg.Library
module Engine = Rtcad_sg.Engine
module Symbolic = Rtcad_sg.Symbolic
module Emit = Rtcad_synth.Emit
module Flow = Rtcad_core.Flow
module Store = Rtcad_core.Store
module Gen = Rtcad_check.Gen
module Oracle = Rtcad_check.Oracle
module Rng = Rtcad_util.Rng
module Bdd = Rtcad_logic.Bdd
module Netlist = Rtcad_netlist.Netlist

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- stage keys ------------------------------------------------------- *)

let all_keys (k : Flow.keys) =
  [ k.Flow.normalize; k.Flow.encode; k.Flow.reach_key; k.Flow.covers; k.Flow.emit ]

(* Reformatting the .g text — trailing blanks, comment lines, blank
   lines — must not move any stage key (same LCG perturbation the serve
   cache property uses). *)
let perturb seed text =
  let lines = String.split_on_char '\n' text in
  let n = ref seed in
  let next bound =
    n := (!n * 1103515245) + 12345;
    (!n lsr 16) mod bound
  in
  String.concat "\n"
    (List.concat_map
       (fun line ->
         let line = if next 3 = 0 then line ^ "   " else line in
         let extras =
           match next 4 with
           | 0 -> [ "" ]
           | 1 -> [ "# a comment the lexer strips" ]
           | _ -> []
         in
         line :: extras)
       lines)

let spec_pool () = Library.all_named ()

let test_keys_invariant_under_reformatting =
  QCheck.Test.make ~count:40 ~name:"stage keys invariant under reformatting"
    QCheck.(pair (int_range 0 6) (int_range 1 1000))
    (fun (which, seed) ->
      let name, stg = List.nth (spec_pool ()) which in
      (* parse both sides: the printer orders transitions by first
         mention, so a builder STG and its reparse are isomorphic but
         indexed differently (and key differently, by design) *)
      let text = Stg_io.to_string stg in
      let k0 = Flow.stage_keys (Stg_io.parse text) in
      let k1 = Flow.stage_keys (Stg_io.parse (perturb seed text)) in
      if all_keys k0 <> all_keys k1 then
        QCheck.Test.fail_reportf "perturbation moved a stage key for %s" name;
      true)

(* Every semantic edit class moves the keys it must move and no others:
   structural edits move all five; a mode flip spares only [normalize];
   an engine change spares [normalize]; a bound change spares
   [normalize]; a style change moves only [emit]. *)
let test_keys_change_on_semantic_edits () =
  let stg = Library.fifo () in
  let base = Flow.stage_keys stg in
  let distinct_from ?(spare = []) label k =
    List.iter2
      (fun (name, a) b ->
        if List.mem name spare then
          check_string (label ^ ": " ^ name ^ " unchanged") b a
        else if String.equal a b then
          Alcotest.failf "%s: key %s did not change" label name)
      [
        ("normalize", k.Flow.normalize);
        ("encode", k.Flow.encode);
        ("reach", k.Flow.reach_key);
        ("covers", k.Flow.covers);
        ("emit", k.Flow.emit);
      ]
      (all_keys base)
  in
  (* structural edits (duplicate transition / place, rename signal)
     change the canonical text, hence every key *)
  List.iter
    (fun edit ->
      let edited = Gen.apply_edit stg edit in
      distinct_from (Format.asprintf "%a" Gen.pp_edit edit) (Flow.stage_keys edited))
    [ Gen.Add_transition 3; Gen.Add_place 2; Gen.Rename_signal 0 ];
  (* mode flip: same spec text, different derivation *)
  distinct_from ~spare:[ "normalize" ] "mode flip"
    (Flow.stage_keys
       ~mode:(Flow.Rt { user = []; allow_input_first = true; allow_lazy = true })
       stg);
  distinct_from ~spare:[ "normalize" ] "SI mode" (Flow.stage_keys ~mode:Flow.Si stg);
  (* engine change *)
  distinct_from ~spare:[ "normalize" ] "engine"
    (Flow.stage_keys ~engine:Engine.Symbolic stg);
  (* state bound *)
  distinct_from ~spare:[ "normalize" ] "bound" (Flow.stage_keys ~max_states:999 stg);
  (* style: only emission depends on it *)
  distinct_from
    ~spare:[ "normalize"; "encode"; "reach"; "covers" ]
    "style"
    (Flow.stage_keys ~emit_style:(Emit.Domino_cmos { footed = false }) stg)

(* Explicit and symbolic selections must not collide through Auto. *)
let test_keys_auto_resolves () =
  let stg = Library.fifo () in
  let auto = Flow.stage_keys ~engine:Engine.Auto stg in
  let resolved =
    match Engine.select Engine.Auto stg with
    | `Explicit -> Flow.stage_keys ~engine:Engine.Explicit stg
    | `Symbolic -> Flow.stage_keys ~engine:Engine.Symbolic stg
  in
  check "auto key equals resolved engine key" true (all_keys auto = all_keys resolved)

let with_tmpdir = Test_store.with_tmpdir

(* --- warm reconstruction ---------------------------------------------- *)

let flow_fingerprint r =
  Format.asprintf "%a@.%a" Flow.pp_report r Netlist.pp r.Flow.netlist

let test_warm_reconstruction_identical () =
  with_tmpdir @@ fun dir ->
  List.iter
    (fun engine ->
      Symbolic.Seeds.clear ();
      Bdd.clear_caches ();
      let stg = Library.fifo () in
      let store = Store.create ~dir () in
      let cold = Flow.synthesize ~cache:store ~engine stg in
      (* a fresh store instance on the same directory: disk-tier warm *)
      Symbolic.Seeds.clear ();
      Bdd.clear_caches ();
      let warm = Flow.synthesize ~cache:(Store.create ~dir ()) ~engine stg in
      check_string "warm flow byte-identical" (flow_fingerprint cold)
        (flow_fingerprint warm);
      (* and an uncached run agrees too *)
      Symbolic.Seeds.clear ();
      Bdd.clear_caches ();
      let scratch = Flow.synthesize ~engine stg in
      check_string "scratch agrees" (flow_fingerprint cold) (flow_fingerprint scratch))
    [ Engine.Explicit; Engine.Symbolic ]

let test_warm_hit_counters () =
  Symbolic.Seeds.clear ();
  Bdd.clear_caches ();
  let stg = Library.c_element () in
  let store = Store.create () in
  let a = Flow.synthesize ~cache:store ~engine:Engine.Explicit stg in
  let b = Flow.synthesize ~cache:store ~engine:Engine.Explicit stg in
  check_string "second run reconstructs the same flow" (flow_fingerprint a)
    (flow_fingerprint b);
  let st = Store.stats store in
  check "stage artifacts stored" true (st.Store.stores >= 4);
  check "second run hit the store" true (st.Store.hits > 0)

(* --- fixed-seed edit-replay battery ----------------------------------- *)

let test_edit_battery () =
  let rng = Rng.create 42 in
  for i = 1 to 6 do
    Bdd.clear_caches ();
    let base = Gen.gen_plan rng ~max_places:6 in
    let edits = Gen.gen_edits rng (1 + Rng.int rng 2) in
    match Oracle.diff_incremental (Gen.stg_of_plan base) edits with
    | Oracle.Fail f ->
      Alcotest.failf "battery case %d diverged [%s]: %s" i f.Oracle.oracle
        f.Oracle.detail
    | Oracle.Pass | Oracle.Skip _ -> ()
  done

(* The delta seed actually engages on a pure transition addition. *)
let test_delta_seed_engages () =
  Symbolic.Seeds.clear ();
  Bdd.clear_caches ();
  let was_enabled = Rtcad_obs.Obs.enabled () in
  Rtcad_obs.Obs.set_enabled true;
  let stg = Library.fifo () in
  let _ = Symbolic.analyze_cached stg in
  let edited = Gen.apply_edit stg (Gen.Add_transition 1) in
  let sym = Symbolic.analyze_cached edited in
  let seeded =
    Rtcad_obs.Obs.counter (Rtcad_obs.Obs.snapshot ()) "sg.symbolic.seeded"
  in
  Rtcad_obs.Obs.set_enabled was_enabled;
  check "seeded fixpoint used" true (seeded > 0);
  (* exactness: the seeded result equals a from-scratch analysis *)
  Symbolic.Seeds.clear ();
  Bdd.clear_caches ();
  let scratch = Symbolic.analyze edited in
  check_int "same state count" (Symbolic.num_states scratch) (Symbolic.num_states sym)

let suite =
  [
    ( "incremental-keys",
      [
        QCheck_alcotest.to_alcotest test_keys_invariant_under_reformatting;
        Alcotest.test_case "semantic edits move the right keys" `Quick
          test_keys_change_on_semantic_edits;
        Alcotest.test_case "auto engine resolves" `Quick test_keys_auto_resolves;
      ] );
    ( "incremental-flow",
      [
        Alcotest.test_case "warm reconstruction byte-identical" `Quick
          test_warm_reconstruction_identical;
        Alcotest.test_case "hit counters" `Quick test_warm_hit_counters;
        Alcotest.test_case "delta seed engages and stays exact" `Quick
          test_delta_seed_engages;
        Alcotest.test_case "fixed-seed edit battery" `Slow test_edit_battery;
      ] );
  ]
