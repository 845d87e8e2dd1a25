(* paper_models: the architecture and gate-level models of the paper's
   tables, in-process.  Heavy: a 10M-instruction RAPPID decode over the
   sharded farm (Figure 1), cycling through the instruction-mix
   profiles.  Light: one Table-2 row (timed gate-level simulation plus
   stuck-at coverage of one FIFO variant) or one Table-1 comparison
   against the clocked decoder on 200k instructions.  No synthesis runs
   in a timed operation; the FIFO variants are built in setup. *)

open Common
module Workload = Rtcad_rappid.Workload
module Rappid = Rtcad_rappid.Rappid
module Clocked = Rtcad_rappid.Clocked
module Metrics = Rtcad_rappid.Metrics
module Fifo_impls = Rtcad_core.Fifo_impls
module Table2 = Rtcad_core.Table2
module Harness = Rtcad_core.Harness
module Netlist = Rtcad_netlist.Netlist
module Sim = Rtcad_netlist.Sim
module Faults = Rtcad_netlist.Faults

let farm_instructions = 10_000_000
let farm_shards = 4
let compare_instructions = 200_000

type op =
  | Decode of Workload.profile
  | Row of Fifo_impls.variant
  | Compare of Workload.profile

let op_name = function
  | Decode p -> "decode_" ^ p.Workload.name
  | Row v -> "table2_" ^ v.Fifo_impls.name
  | Compare p -> "table1_" ^ p.Workload.name

let is_heavy = function Decode _ -> true | Row _ | Compare _ -> false

(* One round, with each operation's multiplicity.  Decode times differ
   by profile (the number of cache lines per instruction varies), so the
   heavy median sits in the middle of the [typical] block and the tail in
   the [uniform] one.  The light median sits in the block of RT-BM
   Table-2 rows, the light tail among the Table-1 comparisons.  README.md lists the resulting sample counts. *)
let setup () =
  let variants = Fifo_impls.all () in
  let profile name = Option.get (Workload.profile_named name) in
  let times k o = List.init k (fun _ -> o) in
  Array.of_list
    (times 1 (Decode (profile "short"))
    @ times 1 (Decode (profile "long"))
    @ times 3 (Decode (profile "typical"))
    @ times 3 (Decode (profile "uniform"))
    @ List.concat_map
        (fun v -> times (if v.Fifo_impls.name = "RT-BM" then 6 else 1) (Row v))
        variants
    @ times 3 (Compare (profile "typical")))

(* --- checks ------------------------------------------------------------ *)

let check_farm (f : Rappid.farm) =
  let s = f.Rappid.f_stats in
  let total = s.Rappid.s_result.Rappid.instructions in
  Checks.all
    [
      (fun () ->
        if total = farm_instructions then Ok ()
        else Checks.fail "decoded %d instructions of %d" total farm_instructions);
      (fun () ->
        let sum = Array.fold_left ( + ) 0 f.Rappid.f_shard_instructions in
        if sum = total then Ok () else Checks.fail "shards sum to %d, farm total %d" sum total);
      (fun () ->
        if s.Rappid.s_p50_ps <= s.Rappid.s_p95_ps && s.Rappid.s_p95_ps <= s.Rappid.s_p99_ps
        then Ok ()
        else
          Checks.fail "latency percentiles out of order: %g %g %g" s.Rappid.s_p50_ps
            s.Rappid.s_p95_ps s.Rappid.s_p99_ps);
    ]

let check_compare (c : Metrics.comparison) =
  if c.Metrics.rappid.Rappid.gips > c.Metrics.clocked.Rappid.gips then Ok ()
  else
    Checks.fail "RAPPID %.3f instr/ns does not beat the clocked %.3f"
      c.Metrics.rappid.Rappid.gips c.Metrics.clocked.Rappid.gips

(* Table 2's orderings: SI > RT-BM > RT > Pulse on worst delay, average
   delay and energy per cycle. *)
let check_rows (rows : Table2.row list) =
  let order = [ "SI"; "RT-BM"; "RT"; "Pulse" ] in
  match List.map (fun n -> List.find (fun r -> r.Table2.name = n) rows) order with
  | exception Not_found -> Checks.fail "a Table-2 row is missing"
  | ranked ->
    let decreasing what f =
      let rec go = function
        | a :: (b :: _ as rest) ->
          if f a > f b then go rest
          else Checks.fail "Table 2 %s: %s %.1f not above %s %.1f" what a.Table2.name (f a)
              b.Table2.name (f b)
        | _ -> Ok ()
      in
      go ranked
    in
    Checks.all
      [
        (fun () -> decreasing "worst delay" (fun r -> r.Table2.worst_delay_ps));
        (fun () -> decreasing "average delay" (fun r -> r.Table2.avg_delay_ps));
        (fun () -> decreasing "energy" (fun r -> r.Table2.energy_per_cycle_pj));
      ]

(* --- operations -------------------------------------------------------- *)

type out = Farm of Rappid.farm | Table2_row of Table2.row | Table1 of Metrics.comparison

let execute ~seed = function
  | Decode p ->
    Farm (Rappid.run_farm ~shards:farm_shards ~seed p ~instructions:farm_instructions)
  | Row v -> Table2_row (Table2.measure v)
  | Compare p ->
    Table1 (Metrics.compare (Workload.generate ~seed p ~instructions:compare_instructions))

let min_rounds = 5

(* Set-ups timed before the first round.  Not between rounds, as the
   other workloads do: set-up runs in this process, and its garbage
   would raise the peak RSS of the operations. *)
let setup_reps = 31

(* A round's verdicts: the Table-2 ordering spans all four rows, so a
   violated ordering fails each row of the round. *)
let round_verdicts outs =
  let rows = List.filter_map (function Ok (Table2_row r) -> Some r | _ -> None) outs in
  let rows_ok = check_rows rows in
  List.map
    (function
      | Error e -> Error e
      | Ok (Farm f) -> check_farm f
      | Ok (Table1 c) -> check_compare c
      | Ok (Table2_row _) -> rows_ok)
    outs

let run_plain ~seed ~seconds =
  let sample_setup, setup_s = setup_sampler (fun () -> ignore (setup ())) in
  sample_setup setup_reps;
  let ops = setup () in
  let rng = Random.State.make [| seed |] in
  let samples = ref [] and busy = ref 0.0 in
  let round _ =
    let timed =
      Array.to_list
        (Array.map
           (fun o ->
             (* each operation starts from a collected heap *)
             Gc.compact ();
             let stream_seed = Random.State.bits rng in
             let r, dt =
               time (fun () ->
                   match execute ~seed:stream_seed o with
                   | r -> Ok r
                   | exception e -> Error (Printexc.to_string e))
             in
             busy := !busy +. dt;
             (o, r, dt))
           (shuffle rng ops))
    in
    List.iter2
      (fun (o, _, dt) v ->
        let error = match v with Ok () -> None | Error e -> Some e in
        samples := { name = op_name o; heavy = is_heavy o; ms = dt *. 1e3; error } :: !samples)
      timed
      (round_verdicts (List.map (fun (_, r, _) -> r) timed))
  in
  let rounds = run_rounds ~min_rounds ~seconds round in
  log "paper_models: %d rounds, %.3f s timed" rounds !busy;
  let heavy = Array.fold_left (fun n o -> if is_heavy o then n + 1 else n) 0 ops in
  summarize ~workload:"paper_models" ~setup_s:(setup_s ()) ~busy_s:!busy ~rss_mb:(self_peak_rss_mb ())
    ~min_samples:(min_rounds * heavy, min_rounds * (Array.length ops - heavy))
    !samples

(* --- the traced run ------------------------------------------------------ *)

(* One Table-2 row with its two layers timed apart, as [Table2.measure]
   composes them. *)
let traced_row acc (v : Fifo_impls.variant) =
  let env = Table2.env_for v in
  let nl = v.Fifo_impls.netlist in
  let (stimulus, horizon), sim_s =
    time (fun () ->
        if v.Fifo_impls.pulse then begin
          let period = Harness.pulse_min_period ~cycles:40 nl in
          ignore (Harness.measure_pulse ~period_ps:period ~cycles:200 nl);
          ((fun sim -> Harness.pulse_stimulus ~period_ps:(period *. 1.5) ~cycles:12 sim), 80_000.0)
        end
        else begin
          ignore (Harness.measure_fourphase ~env ~cycles:200 nl);
          ((fun sim -> Harness.fourphase_stimulus ~env ~cycles:12 sim), 120_000.0)
        end)
  in
  let report, cov_s = time (fun () -> Faults.coverage ~stimulus ~horizon nl) in
  acc "faults.coverage_ms" (cov_s *. 1e3);
  acc "faults.count" (float_of_int report.Faults.total);
  (* the fault-free run the coverage pass repeats once per fault *)
  let events, run_s =
    time (fun () ->
        let sim = Sim.create nl in
        Sim.settle sim ();
        stimulus sim;
        Sim.run sim ~until:horizon;
        Sim.total_transitions sim)
  in
  acc "sim.events" (float_of_int events);
  acc "sim.seconds" run_s;
  sim_s +. cov_s

let fill_all ~seed p =
  let c = Workload.cursor ~seed p ~instructions:farm_instructions in
  let buf = Array.make Rappid.default_chunk 0 in
  while Workload.fill c buf > 0 do () done

let run_traced ~seed ~seconds =
  let ops = setup () in
  let rng = Random.State.make [| seed |] in
  let totals = Hashtbl.create 16 in
  let acc k v = Hashtbl.replace totals k (v +. Option.value ~default:0.0 (Hashtbl.find_opt totals k)) in
  let get k = Option.value ~default:0.0 (Hashtbl.find_opt totals k) in
  let n = ref 0 and failed = ref 0 and counts = Hashtbl.create 4 in
  let count k = Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)) in
  let plain_s = ref 0.0 and traced_s = ref 0.0 in
  let traced_round _ =
    Array.iter
      (fun o ->
        incr n;
        let stream_seed = Random.State.bits rng in
        match
          Gc.compact ();
          let mi0, ma0 = gc_words () in
          let r, plain = time (fun () -> execute ~seed:stream_seed o) in
          let mi1, ma1 = gc_words () in
          acc "gc.minor_mwords" ((mi1 -. mi0) /. 1e6);
          acc "gc.major_mwords" ((ma1 -. ma0) /. 1e6);
          Gc.compact ();
          let traced =
            match (o, r) with
            | Decode p, Farm f ->
              (match check_farm f with Error e -> failwith e | Ok () -> ());
              let _, farm_s =
                time (fun () ->
                    Rappid.run_farm ~shards:farm_shards ~seed:stream_seed p
                      ~instructions:farm_instructions)
              in
              let (), fill_s = time (fun () -> fill_all ~seed:stream_seed p) in
              let _, single_s =
                time (fun () ->
                    Rappid.run_stream ~seed:stream_seed p ~instructions:farm_instructions)
              in
              count "decode";
              acc "farm.seconds" farm_s;
              acc "fill.seconds" fill_s;
              acc "single.seconds" single_s;
              farm_s
            | Row v, Table2_row _ ->
              count "row";
              traced_row acc v
            | Compare p, Table1 _ ->
              let stream, gen_s =
                time (fun () ->
                    Workload.generate ~seed:stream_seed p ~instructions:compare_instructions)
              in
              let c, cmp_s = time (fun () -> Metrics.compare stream) in
              (match check_compare c with Error e -> failwith e | Ok () -> ());
              count "compare";
              acc "clocked.compare_ms" (cmp_s *. 1e3);
              gen_s +. cmp_s
            | _ -> assert false
          in
          (plain, traced)
        with
        | exception e ->
          incr failed;
          log "paper_models: %s failed: %s" (op_name o) (Printexc.to_string e)
        | plain, traced ->
          plain_s := !plain_s +. plain;
          traced_s := !traced_s +. traced)
      (shuffle rng ops)
  in
  ignore (run_rounds ~min_rounds:1 ~seconds traced_round);
  let per k c = get k /. float_of_int (max 1 (Option.value ~default:0 (Hashtbl.find_opt counts c))) in
  let minstrs = float_of_int farm_instructions /. 1e6 in
  let decodes = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts "decode")) in
  let ok_ops = float_of_int (max 1 (!n - !failed)) in
  {
    correct = !failed = 0;
    attempted = !n;
    failed = !failed;
    metrics =
      [
        m "workload.fill_minstrs_per_s" "Minstr/s" (decodes *. minstrs /. get "fill.seconds");
        m "rappid.decode_minstrs_per_s" "Minstr/s" (decodes *. minstrs /. get "single.seconds");
        m "rappid.farm_minstrs_per_s" "Minstr/s" (decodes *. minstrs /. get "farm.seconds");
        m "par.farm_speedup" "x" (get "single.seconds" /. get "farm.seconds");
        m "clocked.compare_ms" "ms" (per "clocked.compare_ms" "compare");
        m "sim.events_per_s" "1/s" (get "sim.events" /. get "sim.seconds");
        m "faults.coverage_ms" "ms" (per "faults.coverage_ms" "row");
        m "faults.count" "count" (per "faults.count" "row");
        m "gc.minor_mwords" "Mwords/op" (get "gc.minor_mwords" /. ok_ops);
        m "gc.major_mwords" "Mwords/op" (get "gc.major_mwords" /. ok_ops);
        m "trace.overhead_pct" "%" (100.0 *. ((!traced_s /. !plain_s) -. 1.0));
      ];
  }
