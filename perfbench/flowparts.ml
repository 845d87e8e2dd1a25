(* The Figure-2 flow, called layer by layer through each layer's public
   functions so that every call can be timed from here.  It follows the
   order and arguments of [Rtcad_core.Flow.synthesize] (uncached), so the
   netlist it emits must equal the flow's own; the benchmark checks that
   on every traced operation.  Whatever the flow spends outside these
   calls is what [flow.unattributed_ms] reports. *)

module Stg = Rtcad_stg.Stg
module Petri = Rtcad_stg.Petri
module Transform = Rtcad_stg.Transform
module Sg = Rtcad_sg.Sg
module Engine = Rtcad_sg.Engine
module Symbolic = Rtcad_sg.Symbolic
module Encoding = Rtcad_sg.Encoding
module Csc = Rtcad_sg.Csc
module Props = Rtcad_sg.Props
module Bdd = Rtcad_logic.Bdd
module Assumption = Rtcad_rt.Assumption
module Generate = Rtcad_rt.Generate
module Prune = Rtcad_rt.Prune
module Timed_sim = Rtcad_rt.Timed_sim
module Nextstate = Rtcad_synth.Nextstate
module Implement = Rtcad_synth.Implement
module Lazy_cover = Rtcad_synth.Lazy_cover
module Emit = Rtcad_synth.Emit
module Conformance = Rtcad_verify.Conformance
module Netlist = Rtcad_netlist.Netlist
module Flow = Rtcad_core.Flow
module Par = Rtcad_par.Par

(* Seconds spent in each layer, and the work counts it reported, for one
   synthesis. *)
type t = {
  mutable contract : float;
  mutable csc : float;
  mutable sg_build : float;
  mutable symbolic : float;
  mutable generate : float;
  mutable prune : float;
  mutable covers : float;
  mutable emit : float;
  mutable conformance : float;
  mutable insertions : int;
  mutable states : int;
  mutable image_ops : int;
  mutable peak_nodes : int;
  mutable assumptions : int;
  mutable literals : int;
  mutable gates : int;
  mutable configurations : int;
}

let create () =
  {
    contract = 0.0; csc = 0.0; sg_build = 0.0; symbolic = 0.0; generate = 0.0;
    prune = 0.0; covers = 0.0; emit = 0.0; conformance = 0.0; insertions = 0;
    states = 0; image_ops = 0; peak_nodes = 0; assumptions = 0; literals = 0;
    gates = 0; configurations = 0;
  }

let layer_sum t =
  t.contract +. t.csc +. t.sg_build +. t.symbolic +. t.generate +. t.prune
  +. t.covers +. t.emit +. t.conformance

let timed add f =
  let r, dt = Common.time f in
  add dt;
  r

let user_assumptions stg user =
  List.concat_map (fun (a, b) -> Assumption.of_edges stg a b) user

(* Assumption generation from concurrent pairs, at full strength or at
   the reduced strength the encoding search uses per candidate. *)
let assumptions_of_pairs ~fast ~mode stg pairs =
  match mode with
  | Flow.Si -> []
  | Flow.Rt { user; allow_input_first; _ } ->
    let automatic =
      if fast then
        let nt = Petri.num_transitions (Stg.net stg) in
        Generate.automatic_of_pairs ~allow_input_first ~runs:2 ~steps:(20 * nt) stg
          pairs
      else Generate.automatic_of_pairs ~allow_input_first stg pairs
    in
    user_assumptions stg user @ automatic

let choose ~mode ~monotonic ~lazy_of (spec : Nextstate.spec) =
  let complex = Implement.synthesize spec Implement.Complex_gate in
  let gc = Implement.synthesize spec Implement.Generalized_c in
  let lazy_candidates =
    match mode with
    | Flow.Rt { allow_lazy = true; _ } -> lazy_of gc
    | Flow.Si | Flow.Rt _ -> []
  in
  let acceptable (impl, _) =
    match mode with
    | Flow.Si -> Implement.respects_spec spec impl && monotonic impl
    | Flow.Rt _ -> (
      match impl with
      | Implement.Complex _ -> Implement.respects_spec spec impl
      | Implement.Gc _ -> true)
  in
  match
    List.sort
      (fun (a, _) (b, _) ->
        Int.compare (Implement.literal_cost a) (Implement.literal_cost b))
      (List.filter acceptable ([ (complex, []); (gc, []) ] @ lazy_candidates))
  with
  | [] -> failwith "no acceptable implementation"
  | best :: _ -> best

let finish t ~mode ~style ~stg ~assumptions chosen =
  t.literals <-
    List.fold_left (fun acc (_, (impl, _)) -> acc + Implement.literal_cost impl) 0 chosen;
  let netlist =
    timed
      (fun dt -> t.emit <- dt)
      (fun () ->
        Emit.emit ~style stg
          (List.map (fun ((s : Nextstate.spec), (impl, _)) -> (s.Nextstate.signal, impl))
             chosen))
  in
  t.gates <- Netlist.gate_count netlist;
  (match
     timed
       (fun dt -> t.conformance <- dt)
       (fun () ->
         Conformance.check
           ~constraints:(match mode with Flow.Si -> [] | Flow.Rt _ -> assumptions)
           ~circuit:netlist ~spec:stg ())
   with
  | exception Conformance.Bound_exceeded n -> t.configurations <- n
  | r ->
    t.configurations <- r.Conformance.configurations;
    if not r.Conformance.ok then failwith "conformance self-check failed");
  (netlist, stg)

let explicit t ~mode ~engine ~style stg0 =
  let csc_mode =
    match mode with Flow.Si -> Csc.Speed_independent | Flow.Rt _ -> Csc.Timing_aware
  in
  let view =
    match mode with
    | Flow.Si -> None
    | Flow.Rt _ ->
      Some
        (fun sg ->
          let stg = Sg.stg sg in
          (Prune.apply_consistent sg
             (assumptions_of_pairs ~fast:true ~mode stg (Timed_sim.concurrent_pairs sg)))
            .Prune.pruned)
  in
  let stg, ins =
    match
      timed (fun dt -> t.csc <- dt) (fun () ->
          Csc.resolve_all ~mode:csc_mode ~engine ?view stg0)
    with
    | Some r -> r
    | None -> failwith "state encoding failed"
  in
  t.insertions <- List.length ins;
  let sg_full = timed (fun dt -> t.sg_build <- dt) (fun () -> Engine.build ~engine stg) in
  t.states <- Sg.num_states sg_full;
  let assumptions =
    timed (fun dt -> t.generate <- dt) (fun () ->
        match mode with
        | Flow.Si -> []
        | Flow.Rt _ ->
          assumptions_of_pairs ~fast:false ~mode stg (Timed_sim.concurrent_pairs sg_full))
  in
  t.assumptions <- List.length assumptions;
  let sg =
    match mode with
    | Flow.Si -> sg_full
    | Flow.Rt _ ->
      timed (fun dt -> t.prune <- dt) (fun () ->
          (Prune.apply_consistent sg_full assumptions).Prune.pruned)
  in
  if Encoding.has_csc sg then failwith "CSC conflicts remain";
  (match mode with
  | Flow.Si -> if not (Props.is_output_persistent sg) then failwith "not output-persistent"
  | Flow.Rt _ -> ());
  Petri.prepare (Stg.net stg);
  let chosen =
    timed (fun dt -> t.covers <- dt) (fun () ->
        Par.map_list
          (fun u ->
            Bdd.restore_order ();
            let spec = Nextstate.of_sg sg u in
            ( spec,
              choose ~mode
                ~monotonic:(fun impl -> Implement.monotonic sg spec impl)
                ~lazy_of:(fun gc ->
                  let r = Lazy_cover.relax sg spec gc in
                  if r.Lazy_cover.constraints = [] then []
                  else [ (r.Lazy_cover.impl, r.Lazy_cover.constraints) ])
                spec ))
          (Stg.non_input_signals (Sg.stg sg)))
  in
  finish t ~mode ~style ~stg ~assumptions chosen

let symbolic t ~mode ~style stg0 =
  let csc_mode =
    match mode with Flow.Si -> Csc.Speed_independent | Flow.Rt _ -> Csc.Timing_aware
  in
  let sym_view =
    match mode with
    | Flow.Si -> None
    | Flow.Rt _ ->
      Some
        (fun sym ->
          let stg = Symbolic.stg sym in
          let r =
            Prune.apply_consistent_sym sym
              (assumptions_of_pairs ~fast:true ~mode stg (Symbolic.concurrent_pairs sym))
          in
          (Symbolic.view_deadlock_free r.Prune.view, Symbolic.view_has_csc r.Prune.view))
  in
  let stg, ins =
    match
      timed (fun dt -> t.csc <- dt) (fun () ->
          Csc.resolve_all ~mode:csc_mode ~engine:Engine.Symbolic ?sym_view stg0)
    with
    | Some r -> r
    | None -> failwith "state encoding failed"
  in
  t.insertions <- List.length ins;
  let sym = timed (fun dt -> t.symbolic <- dt) (fun () -> Symbolic.analyze_cached stg) in
  t.image_ops <- Symbolic.num_image_ops sym;
  t.peak_nodes <- Symbolic.peak_nodes sym;
  let assumptions =
    timed (fun dt -> t.generate <- dt) (fun () ->
        match mode with
        | Flow.Si -> []
        | Flow.Rt _ ->
          assumptions_of_pairs ~fast:false ~mode stg (Symbolic.concurrent_pairs sym))
  in
  t.assumptions <- List.length assumptions;
  let view =
    match mode with
    | Flow.Si -> Symbolic.unrestricted sym
    | Flow.Rt _ ->
      timed (fun dt -> t.prune <- dt) (fun () ->
          (Prune.apply_consistent_sym sym assumptions).Prune.view)
  in
  if Symbolic.view_has_csc view then failwith "CSC conflicts remain";
  (match mode with
  | Flow.Si -> if not (Symbolic.is_output_persistent sym) then failwith "not output-persistent"
  | Flow.Rt _ -> ());
  Petri.prepare (Stg.net stg);
  Bdd.restore_order ();
  let chosen =
    timed (fun dt -> t.covers <- dt) (fun () ->
        List.map
          (fun u ->
            let spec = Nextstate.of_view view u in
            ( spec,
              choose ~mode
                ~monotonic:(fun impl ->
                  Implement.monotonic_with
                    ~rises:(Symbolic.excitation_regions view u Stg.Rise)
                    ~falls:(Symbolic.excitation_regions view u Stg.Fall)
                    impl)
                ~lazy_of:(fun _ -> [])
                spec ))
          (Stg.non_input_signals stg))
  in
  finish t ~mode ~style ~stg ~assumptions chosen

(* The whole flow on a parsed specification; returns the netlist and
   the encoded specification. *)
let synthesize t ~mode ~engine ~style spec =
  let stg0 =
    timed (fun dt -> t.contract <- dt) (fun () ->
        Transform.contract_dummies ~strict:false spec)
  in
  match Engine.select engine stg0 with
  | `Symbolic -> symbolic t ~mode ~style stg0
  | `Explicit -> explicit t ~mode ~engine ~style stg0
