(* synth_cold: the [rtsyn synth] path through the library, one
   specification per operation, each in a cold forked child (see
   [Common.warm_child]).  Encoding, reachability, pruning, covers and
   conformance do nearly all the work; no cache, daemon or RAPPID code
   runs. *)

open Common
module Stg = Rtcad_stg.Stg
module Stg_io = Rtcad_stg.Stg_io
module Library = Rtcad_stg.Library
module Engine = Rtcad_sg.Engine
module Symbolic = Rtcad_sg.Symbolic
module Sg = Rtcad_sg.Sg
module Flow = Rtcad_core.Flow
module Emit = Rtcad_synth.Emit
module Netlist = Rtcad_netlist.Netlist

type op = {
  name : string;
  text : string;  (** the specification as [.g] text, parsed per operation *)
  mode : Flow.mode;
  engine : Engine.t;
  style : Emit.style;
  heavy : bool;
  ring : int option;
}

let rt = Flow.rt_default

let rt_input_first = Flow.Rt { user = []; allow_input_first = true; allow_lazy = true }

let rt_ring_assumption =
  Flow.Rt
    {
      user = [ (("ri", Stg.Fall), ("li", Stg.Rise)) ];
      allow_input_first = false;
      allow_lazy = true;
    }

let default_style = function
  | Flow.Si -> Emit.Static_cmos
  | Flow.Rt _ -> Emit.Domino_cmos { footed = true }

let op ?(engine = Engine.Auto) ?style ?ring ~heavy name spec mode =
  {
    name;
    text = Stg_io.to_string spec;
    mode;
    engine;
    style = Option.value style ~default:(default_style mode);
    heavy;
    ring;
  }

(* One round of the corpus, with each operation's share of the round.
   The multiplicities place each class's median and tail inside a block
   of repeats of one operation rather than on the edge between two (see
   README.md for the make-up and the resulting sample counts). *)
let corpus () =
  let ring ~heavy ~engine n =
    op ~engine ~ring:n ~heavy (Printf.sprintf "ring%d" n) (Library.ring n) rt
  in
  let controllers =
    [ ("celement", Library.c_element ()); ("pipeline", Library.pipeline_stage ());
      ("selector", Library.selector ()); ("toggle", Library.toggle ());
      ("call", Library.call_element ()) ]
  in
  let heavy =
    [
      (2, op ~heavy:true "fig4_fifo_si" (Library.fifo ()) Flow.Si);
      (2, op ~heavy:true "fig5_fifo_x_rt" (Library.fifo_with_state ()) rt_input_first);
      ( 1,
        op ~heavy:true ~style:(Emit.Domino_cmos { footed = false }) "fig6_fifo_rt"
          (Library.fifo ()) rt_ring_assumption );
    ]
    @ [ (1, ring ~heavy:true ~engine:Engine.Explicit 6);
        (5, ring ~heavy:true ~engine:Engine.Explicit 7);
        (1, ring ~heavy:true ~engine:Engine.Explicit 8) ]
    @ List.map
        (fun (k, n) -> (k, ring ~heavy:true ~engine:Engine.Symbolic n))
        [ (1, 9); (1, 10); (1, 11); (4, 12) ]
  in
  let light =
    List.concat_map
      (fun (name, spec) ->
        [ (2, op ~heavy:false (name ^ "_si") spec Flow.Si);
          ((if name = "celement" then 8 else 1), op ~heavy:false (name ^ "_rt") spec rt) ])
      controllers
    @ List.map
        (fun (k, n) -> (k, ring ~heavy:false ~engine:Engine.Explicit n))
        [ (1, 3); (1, 4); (4, 5) ]
  in
  Array.of_list
    (List.concat_map (fun (k, o) -> List.init k (fun _ -> o)) (heavy @ light))

(* The CLI's output for a successful synthesis. *)
let render (r : Flow.t) =
  Format.asprintf "%a@.@.%a@." Flow.pp_report r Netlist.pp r.Flow.netlist

let synthesize o stg = Flow.synthesize ~mode:o.mode ~engine:o.engine ~emit_style:o.style stg

(* --- checks -------------------------------------------------------------- *)

(* The other engine's count of a ring, memoised per ring size, so each
   run pays for it once.  The explicit engine counts rings up to ring11
   (1.3M states: 3.8 s and 800 MB on one domain); ring12's 4.25M states
   would take about 3 GB, so ring12 is counted by the symbolic engine
   and the closed form only. *)
let other_engine_memo : (int, int) Hashtbl.t = Hashtbl.create 8

let explicit_check_limit = Checks.ring_states 11

let other_engine_states o (r : Flow.t) n =
  match Hashtbl.find_opt other_engine_memo n with
  | Some c -> Some c
  | None ->
    let c =
      if o.engine = Engine.Explicit then
        Some (Symbolic.num_states (Symbolic.analyze r.Flow.stg))
      else if Checks.ring_states n <= explicit_check_limit then
        Some (Sg.num_states (Sg.build ~max_states:explicit_check_limit r.Flow.stg))
      else None
    in
    Option.iter (Hashtbl.add other_engine_memo n) c;
    c

let check o (r : Flow.t) =
  let states = Flow.num_states_full r in
  match o.ring with
  | Some n ->
    let expected = Checks.ring_states n in
    Checks.all
      [
        (fun () -> Checks.expect_states ~what:(o.name ^ " flow") ~expected states);
        (fun () ->
          match other_engine_states o r n with
          | Some c -> Checks.expect_states ~what:(o.name ^ " other engine") ~expected c
          | None -> Ok ());
      ]
  | None -> (
    match Checks.reference r.Flow.stg with
    | Error e -> Error e
    | Ok s ->
      Checks.all
        [
          (fun () ->
            Checks.expect_states ~what:(o.name ^ " vs reference")
              ~expected:s.Rtcad_check.Ref_sg.num_states states);
          (fun () ->
            match o.mode with
            | Flow.Si -> Checks.si_next_state r.Flow.stg r.Flow.netlist s
            | Flow.Rt _ -> Ok ());
        ])

(* --- the run ------------------------------------------------------------- *)

(* Every operation runs in a child forked from the set-up benchmark
   process and warmed by [warm] (see [Common.warm_child]), so it starts
   cold: empty BDD caches and analysis pool, a collected heap.  The child
   times the operation, checks its output and reports back; reference
   results it computed are handed back so later children inherit them. *)

(* A small explicit and a small symbolic synthesis touch every table the
   corpus uses. *)
let warm () =
  ignore (Flow.synthesize ~mode:Flow.Si (Library.c_element ()));
  ignore (Flow.synthesize ~engine:Engine.Symbolic (Library.ring 3))

let min_rounds = 4

(* Set-ups timed before the first round and before each round. *)
let setup_reps = 6

(* Set-up: the corpus, and a child brought up to the point where it
   could start timing (tables allocated, caches dropped).

   Synthesis runs on one domain here.  With two, the flow's many short
   parallel regions (each waits for the second vCPU) put a ring7
   synthesis at 64–82 ms from run to run on a 2-vCPU host, against
   mostly 54–64 ms on one; the serve_mixed daemon and the RAPPID farm
   keep the default pool. *)
let setup () =
  Par.set_jobs 1;
  let c = corpus () in
  ignore (in_child ~warm ignore);
  c

type memo = (string * Rtcad_check.Ref_sg.summary) list * (int * int) list

let memo () : memo =
  ( Hashtbl.fold (fun k v acc -> (k, v) :: acc) Checks.ref_memo [],
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) other_engine_memo [] )

let adopt ((refs, others) : memo) =
  List.iter (fun (k, v) -> Hashtbl.replace Checks.ref_memo k v) refs;
  List.iter (fun (k, v) -> Hashtbl.replace other_engine_memo k v) others

type plain = { p_ms : float; p_verdict : (unit, string) Stdlib.result; p_rss : float; p_memo : memo }

let plain_op o () =
  let t0 = now () in
  let r =
    match synthesize o (Stg_io.parse o.text) with
    | r -> ignore (render r); Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  let ms = (now () -. t0) *. 1e3 in
  (* before the check, whose reference explorations are not the work measured *)
  let rss = self_peak_rss_mb () in
  let verdict = match r with Ok r -> check o r | Error e -> Error e in
  { p_ms = ms; p_verdict = verdict; p_rss = rss; p_memo = memo () }

let min_samples ops =
  let heavy = Array.fold_left (fun n (o : op) -> if o.heavy then n + 1 else n) 0 ops in
  (min_rounds * heavy, min_rounds * (Array.length ops - heavy))

let run_plain ~seed ~seconds =
  let sample_setup, setup_s = setup_sampler (fun () -> ignore (setup ())) in
  sample_setup setup_reps;
  let ops = setup () in
  let rng = Random.State.make [| seed |] in
  let samples = ref [] and rss = ref 0.0 and busy = ref 0.0 in
  let rounds =
    run_rounds ~min_rounds ~seconds (fun _ ->
        sample_setup setup_reps;
        Array.iter
          (fun o ->
            let error, ms =
              match in_child ~warm (plain_op o) with
              | Ok p ->
                adopt p.p_memo;
                rss := Float.max !rss p.p_rss;
                ((match p.p_verdict with Ok () -> None | Error e -> Some e), p.p_ms)
              | Error e -> (Some e, 0.0)
            in
            busy := !busy +. (ms /. 1e3);
            samples := { name = o.name; heavy = o.heavy; ms; error } :: !samples)
          (shuffle rng ops))
  in
  log "synth_cold: %d rounds, %.3f s timed" rounds !busy;
  summarize ~workload:"synth_cold" ~setup_s:(setup_s ()) ~busy_s:!busy ~rss_mb:!rss
    ~min_samples:(min_samples ops) !samples

(* The traced run: every operation runs twice, each in its own child,
   once as the plain flow call (timed whole) and once through
   [Flowparts] (timed layer by layer).  Per-layer figures are means per
   operation. *)

type flow_side = { f_parse : float; f_flow : float; f_netlist : string; f_minor : float; f_major : float }

let flow_side o () =
  let spec, parse_s = time (fun () -> Stg_io.parse o.text) in
  let mi0, ma0 = gc_words () in
  let r, flow_s = time (fun () -> synthesize o spec) in
  let mi1, ma1 = gc_words () in
  {
    f_parse = parse_s;
    f_flow = flow_s;
    f_netlist = Format.asprintf "%a" Netlist.pp r.Flow.netlist;
    f_minor = mi1 -. mi0;
    f_major = ma1 -. ma0;
  }

let parts_side o () =
  let t = Flowparts.create () in
  let (nl, stg), parts_s =
    time (fun () ->
        Flowparts.synthesize t ~mode:o.mode ~engine:o.engine ~style:o.style (Stg_io.parse o.text))
  in
  (* Inside the flow the fixpoint is one the encoding search already
     pooled; the symbolic figures time it alone, from empty caches. *)
  let sym_s =
    if o.engine = Engine.Symbolic then begin
      Rtcad_logic.Bdd.clear_caches ();
      Symbolic.Seeds.clear ();
      let sym, dt = time (fun () -> Symbolic.analyze stg) in
      t.Flowparts.image_ops <- Symbolic.num_image_ops sym;
      t.Flowparts.peak_nodes <- Symbolic.peak_nodes sym;
      dt
    end
    else 0.0
  in
  (t, parts_s, sym_s, Format.asprintf "%a" Netlist.pp nl)

let run_traced ~seed ~seconds =
  let ops = setup () in
  let rng = Random.State.make [| seed |] in
  let n = ref 0 and failed = ref 0 in
  let acc = Hashtbl.create 32 in
  let add k v = Hashtbl.replace acc k (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc k)) in
  let peak = ref 0 in
  let plain_s = ref 0.0 and traced_s = ref 0.0 in
  let traced_round _ =
    Array.iter
      (fun o ->
        incr n;
        match (in_child ~warm (flow_side o), in_child ~warm (parts_side o)) with
        | Ok f, Ok (t, parts_s, sym_s, nl) when nl = f.f_netlist ->
          plain_s := !plain_s +. f.f_flow;
          traced_s := !traced_s +. parts_s;
          add "stg.parse_ms" (f.f_parse *. 1e3);
          add "stg.contract_ms" (t.Flowparts.contract *. 1e3);
          add "csc.resolve_ms" (t.Flowparts.csc *. 1e3);
          add "csc.insertions" (float_of_int t.Flowparts.insertions);
          add "sg.build_ms" (t.Flowparts.sg_build *. 1e3);
          add "sg.states" (float_of_int t.Flowparts.states);
          add "symbolic.analyze_ms" (sym_s *. 1e3);
          add "symbolic.image_ops" (float_of_int t.Flowparts.image_ops);
          peak := max !peak t.Flowparts.peak_nodes;
          add "rt.generate_ms" (t.Flowparts.generate *. 1e3);
          add "rt.prune_ms" (t.Flowparts.prune *. 1e3);
          add "rt.assumptions" (float_of_int t.Flowparts.assumptions);
          add "synth.covers_ms" (t.Flowparts.covers *. 1e3);
          add "synth.literals" (float_of_int t.Flowparts.literals);
          add "synth.emit_ms" (t.Flowparts.emit *. 1e3);
          add "netlist.gates" (float_of_int t.Flowparts.gates);
          add "verify.conformance_ms" (t.Flowparts.conformance *. 1e3);
          add "verify.configurations" (float_of_int t.Flowparts.configurations);
          add "flow.synthesize_ms" (f.f_flow *. 1e3);
          add "flow.unattributed_ms" ((f.f_flow -. Flowparts.layer_sum t) *. 1e3);
          add "gc.minor_mwords" (f.f_minor /. 1e6);
          add "gc.major_mwords" (f.f_major /. 1e6)
        | Ok _, Ok _ ->
          incr failed;
          log "synth_cold: %s: layer-by-layer flow emitted a different netlist" o.name
        | Error e, _ | _, Error e ->
          incr failed;
          log "synth_cold: %s failed: %s" o.name e)
      (shuffle rng ops)
  in
  ignore (run_rounds ~min_rounds:1 ~seconds traced_round);
  let ok = float_of_int (max 1 (!n - !failed)) in
  let per_op =
    List.filter_map
      (fun (name, unit_) ->
        Option.map (fun v -> m name unit_ (v /. ok)) (Hashtbl.find_opt acc name))
      (Layer_metrics.declared ())
  in
  {
    correct = !failed = 0;
    attempted = !n;
    failed = !failed;
    metrics =
      per_op
      @ [ m "symbolic.peak_nodes" "count" (float_of_int !peak);
          m "trace.overhead_pct" "%" (100.0 *. ((!traced_s /. !plain_s) -. 1.0)) ];
  }
