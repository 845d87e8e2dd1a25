(* The serve layers of a traced serve_mixed run, timed in-process.  The
   requests the daemon answered are fed again, in the order they were
   sent, through the session core the daemon runs ([Serve.feed_events],
   [Serve.compute_and_store], [Serve.finish_wave]) over a fresh cache
   configured as [rtsyn serve --cache-dir] configures it.  The cache
   therefore sees the same hits and misses the daemon saw, and a
   request's socket latency minus its session-core time is the time it
   spent waiting in the daemon's event loop ([mux.wait_ms]). *)

open Common
module Json = Rtcad_serve.Json
module Serve = Rtcad_serve.Serve
module Cache = Rtcad_serve.Cache
module Store = Rtcad_core.Store

type t = { attempted : int; failed : int; metrics : metric list }

type request = { line : string; light_conn : bool; heavy : bool; socket_s : float; response : string }

let config ~dir k =
  let cache_dir = Filename.concat dir (Printf.sprintf "replay%d" k) in
  let cache = Cache.create ~dir:cache_dir () in
  let flow_store = Store.create ~dir:(Filename.concat cache_dir "flow") () in
  (Serve.default_config ~cache ~flow_store (), flow_store)

let result_of line =
  match Json.parse line with
  | j -> Json.to_string (Option.value ~default:Json.Null (Json.member "result" j))
  | exception Json.Parse_error _ -> "unparsable"

let is_stats line = String.length line > 0 && Json.member "op" (Json.parse line) = Some (Json.String "stats")

let run ~dir ~(answers : request list) =
  (* plain: the session core as the stdio driver calls it *)
  let cfg, _ = config ~dir 0 in
  let hs = Serve.session cfg and ls = Serve.session cfg in
  Gc.compact ();
  let plain_s =
    sum
      (List.map
         (fun r -> snd (time (fun () -> Serve.feed (if r.light_conn then ls else hs) r.line)))
         answers)
  in
  (* traced: the same calls split at the layer boundaries *)
  let cfg, store = config ~dir 1 in
  let hs = Serve.session cfg and ls = Serve.session cfg in
  Gc.compact ();
  let parse_s = ref 0.0 and print_s = ref 0.0 and decode_s = ref 0.0 in
  let render_s = ref 0.0 and compute_s = ref 0.0 and misses = ref 0 in
  let wait_s = ref 0.0 and light = ref 0 and failed = ref 0 and spec_parse_s = ref 0.0 in
  let mi0, ma0 = gc_words () in
  List.iter
    (fun r ->
      let s = if r.light_conn then ls else hs in
      let req, p = time (fun () -> Json.parse r.line) in
      (* every request carrying a spec parses it, hits included *)
      (match Json.member "spec" req with
      | Some (Json.String text) ->
        spec_parse_s := !spec_parse_s +. snd (time (fun () -> Rtcad_stg.Stg_io.parse text))
      | _ -> ());
      let events, dec = time (fun () -> Serve.feed_events s r.line) in
      let comp = ref 0.0 and rend = ref 0.0 in
      let lines =
        List.concat_map
          (function
            | Serve.Lines ls -> ls
            | Serve.Wave w ->
              let works = Serve.wave_misses w in
              misses := !misses + List.length works;
              let outs, c = time (fun () -> Serve.compute_and_store cfg works) in
              comp := !comp +. c;
              let lines, rd = time (fun () -> Serve.finish_wave ~find:(fun k -> List.assoc_opt k outs) w) in
              rend := !rend +. rd;
              lines)
          events
      in
      (match lines with
      | [ line ] ->
        let j = Json.parse line in
        print_s := !print_s +. snd (time (fun () -> Json.to_string j));
        if (not (is_stats r.line)) && result_of line <> result_of r.response then begin
          incr failed;
          log "serve_mixed: in-process answer differs from the daemon's for %s" r.line
        end
      | _ ->
        incr failed;
        log "serve_mixed: in-process session answered %d lines" (List.length lines));
      parse_s := !parse_s +. p;
      decode_s := !decode_s +. dec;
      compute_s := !compute_s +. !comp;
      render_s := !render_s +. !rend;
      if not r.heavy then begin
        incr light;
        wait_s := !wait_s +. (r.socket_s -. (dec +. !comp +. !rend))
      end)
    answers;
  let mi1, ma1 = gc_words () in
  let n = float_of_int (max 1 (List.length answers)) in
  let traced_s = !parse_s +. !decode_s +. !compute_s +. !render_s +. !print_s in
  {
    attempted = List.length answers;
    failed = !failed;
    metrics =
      [
        m "stg.parse_ms" "ms" (!spec_parse_s /. n *. 1e3);
        m "json.parse_us" "us" (!parse_s /. n *. 1e6);
        m "json.print_us" "us" (!print_s /. n *. 1e6);
        m "serve.decode_us" "us" (!decode_s /. n *. 1e6);
        m "serve.render_us" "us" (!render_s /. n *. 1e6);
        m "serve.compute_ms" "ms" (!compute_s /. float_of_int (max 1 !misses) *. 1e3);
        m "store.stage_hits" "count" (float_of_int (Store.stats store).Store.hits);
        m "mux.wait_ms" "ms" (!wait_s /. float_of_int (max 1 !light) *. 1e3);
        m "gc.minor_mwords" "Mwords/op" ((mi1 -. mi0) /. n /. 1e6);
        m "gc.major_mwords" "Mwords/op" ((ma1 -. ma0) /. n /. 1e6);
        m "trace.overhead_pct" "%" (100.0 *. ((traced_s /. plain_s) -. 1.0));
      ];
  }
