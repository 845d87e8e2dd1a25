(* serve_mixed: [rtsyn serve --socket] in its own process, driven by one
   single-threaded generator over two connections multiplexed with
   [select].

   The heavy connection is closed-loop: it sends a response-cache miss,
   waits for the answer, and at a fixed seeded share repeats an earlier
   request (a hit).  A fixed [light_delay] after each miss is sent, the
   light connection sends one hit or ping, so it lands while the miss's
   wave computes; the generator waits for both answers before moving on.
   Heavy class: misses.  Light class: hits, pings and stats.

   Misses stay misses across rounds because each round's requests carry
   a distinct [max_states] (far above any state count, so the work is
   the same) or, for Table-2 simulations, a distinct cycle count. *)

open Common
module Json = Rtcad_serve.Json
module Serve = Rtcad_serve.Serve
module Cache = Rtcad_serve.Cache
module Store = Rtcad_core.Store
module Stg_io = Rtcad_stg.Stg_io
module Library = Rtcad_stg.Library

let light_delay = 0.004

(* --- the script -------------------------------------------------------- *)

type conn = Heavy_conn | Light_conn

type req = {
  id : int;
  conn : conn;
  heavy : bool;  (** class *)
  kind : string;
  line : string;
  repeat_of : int option;  (** the miss whose payload a hit must reproduce *)
}

type step =
  | Miss of req * req  (** heavy miss, then the light request sent into its wave *)
  | Alone of req  (** a request sent with nothing else in flight *)

let spec_text stg = Json.String (Stg_io.to_string stg)

(* The misses of one round: (multiplicity, kind, fields, bounded,
   style-variant fields).  A style variant is sent right after its base,
   so the flow store serves every stage but emission.  The
   multiplicities put the heavy median inside the block of [ring7]
   syntheses and the heavy tail inside the [ring8] block; README.md
   lists the make-up and sample counts. *)
let miss_catalogue () =
  let fifo = spec_text (Library.fifo ()) and fifo_x = spec_text (Library.fifo_with_state ()) in
  let ring n = spec_text (Library.ring n) in
  let synth fields = ("op", Json.String "synth") :: fields in
  let check n =
    [ ("op", Json.String "check"); ("spec", ring n); ("engine", Json.String "symbolic") ]
  in
  let sim c = [ ("op", Json.String "sim"); ("circuit", Json.String c) ] in
  let explicit n = synth [ ("spec", ring n); ("engine", Json.String "explicit") ] in
  [
    (1, "synth_fifo_si", synth [ ("spec", fifo); ("mode", Json.String "si") ], true, []);
    ( 1, "synth_fifo_x_rt",
      synth [ ("spec", fifo_x); ("mode", Json.String "rt"); ("input_first", Json.Bool true) ],
      true, [] );
    ( 1, "synth_fifo_rt_ring",
      synth
        [ ("spec", fifo); ("mode", Json.String "rt");
          ("assume", Json.List [ Json.String "ri-<li+" ]);
          ("style", Json.String "domino-unfooted") ],
      true, [] );
    (1, "synth_ring7", explicit 7, true, [ ("style", Json.String "static") ]);
    (9, "synth_ring7", explicit 7, true, []);
    (1, "synth_ring8", explicit 8, true, [ ("style", Json.String "domino-unfooted") ]);
    (3, "synth_ring8", explicit 8, true, []);
    (1, "check_ring13", check 13, true, []);
    (1, "check_ring14", check 14, true, []);
  ]
  @ List.map (fun c -> (1, "sim_" ^ c, sim c, false, [])) [ "si"; "rt-bm"; "rt"; "pulse" ]

(* The hits of one round, by the kind of miss they repeat.  Which
   earlier request of that kind is repeated, and where in the round, is
   drawn from the seed; the kinds are fixed so every round parses the
   same mix of specifications.  Twelve ring7 hits put the light median
   inside their block: below it sit the pings and the FIFO and cheap sim
   hits, above it the other hits and every light request that waited
   behind a miss.  (A [sim] hit is not cheap: decoding it rebuilds the
   FIFO variant, see README.md.) *)
let heavy_hit_kinds =
  List.concat_map
    (fun (k, kind) -> List.init k (fun _ -> kind))
    [ (3, "synth_fifo_si"); (3, "synth_fifo_x_rt"); (3, "synth_fifo_rt_ring");
      (12, "synth_ring7"); (1, "synth_ring8"); (1, "check_ring13"); (1, "check_ring14");
      (1, "sim_si"); (2, "sim_rt-bm"); (1, "sim_rt"); (2, "sim_pulse") ]

let light_hit_kinds =
  [ "synth_fifo_si"; "synth_fifo_rt_ring"; "synth_ring7"; "synth_ring7"; "synth_ring8";
    "check_ring13"; "sim_rt"; "sim_si" ]

(* The script, one round at a time: [script ~rng] returns the function
   that builds round 0, 1, 2, ... on successive calls.  Every choice is
   drawn from [rng], so a seed fixes the whole script. *)
let script ~rng =
  let catalogue = miss_catalogue () in
  let next_id = ref 0 in
  let mk conn heavy kind fields repeat_of =
    incr next_id;
    let id = !next_id in
    {
      id;
      conn;
      heavy;
      kind;
      line = Json.to_string (Json.Obj (("id", Json.Int id) :: fields));
      repeat_of;
    }
  in
  (* kind -> (id, fields) of every miss of that kind sent so far *)
  let answered = Hashtbl.create 16 in
  let hit conn kind =
    let a = Array.of_list (Hashtbl.find_all answered kind) in
    let id, fields = a.(Random.State.int rng (Array.length a)) in
    mk conn false ("hit_" ^ kind) fields (Some id)
  in
  let ping () = mk Light_conn false "ping" [ ("op", Json.String "ping") ] None in
  let round = ref (-1) in
  fun () ->
      incr round;
      let r = !round in
      (* distinct keys for every miss of every round, same work *)
      let instance = ref 0 in
      let distinct bounded =
        incr instance;
        if bounded then ("max_states", Json.Int (1_000_000_000 + (1000 * r) + !instance))
        else ("cycles", Json.Int (100 + r))
      in
      let units =
        shuffle rng
          (Array.of_list
             (List.concat_map
                (fun (k, kind, fields, bounded, variant) ->
                  List.init k (fun _ ->
                      let fields = fields @ [ distinct bounded ] in
                      (kind, fields)
                      :: (if variant = [] then [] else [ (kind ^ "_style", fields @ variant) ])))
                catalogue))
      in
      let misses = Array.of_list (List.concat (Array.to_list units)) in
      let n = Array.length misses in
      let first kind =
        let rec go i = if fst misses.(i) = kind then i else go (i + 1) in
        go 0
      in
      (* a seeded position at or after (heavy connection) or, in the
         first round, strictly after (light connection, sent before its
         miss is answered) the round's first miss of the kind, so a
         request to repeat exists *)
      let heavy_after = Array.make n [] and light_at = Array.make n None in
      List.iter
        (fun kind ->
          let lo = if r = 0 then first kind else 0 in
          let i = lo + Random.State.int rng (n - lo) in
          heavy_after.(i) <- kind :: heavy_after.(i))
        heavy_hit_kinds;
      List.iter
        (fun kind ->
          let lo = if r = 0 then first kind + 1 else 0 in
          let free =
            Array.of_list (List.filter (fun i -> i >= lo && light_at.(i) = None) (List.init n Fun.id))
          in
          if Array.length free > 0 then
            light_at.(free.(Random.State.int rng (Array.length free))) <- Some kind)
        light_hit_kinds;
      let steps =
        List.concat
          (List.init n (fun i ->
               let kind, fields = misses.(i) in
               let miss = mk Heavy_conn true kind fields None in
               let light = match light_at.(i) with Some k -> hit Light_conn k | None -> ping () in
               Hashtbl.add answered kind (miss.id, fields);
               Miss (miss, light)
               :: List.map (fun k -> Alone (hit Heavy_conn k)) (List.rev heavy_after.(i))))
      in
      steps @ [ Alone (mk Light_conn false "stats" [ ("op", Json.String "stats") ] None) ]

(* --- the daemon -------------------------------------------------------- *)

type daemon = { pid : int; sock : string }

let live : daemon list ref = ref []

let kill_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_all

type conn_state = { fd : Unix.file_descr; buf : Buffer.t }

let send c line = write_all c.fd (line ^ "\n") 0 (String.length line + 1)

(* Pop one complete line if buffered. *)
let take_line c =
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    Buffer.clear c.buf;
    Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
    Some (String.sub s 0 i)

let chunk = Bytes.create 65536

let fill c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "daemon closed the connection"
  | n -> Buffer.add_subbytes c.buf chunk 0 n

let open_conn d =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX d.sock) with
  | () -> Some { fd; buf = Buffer.create 4096 }
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
    Unix.close fd;
    None

(* Wait, without sleeping, until the daemon listens (it prints no
   readiness line).  A helper child retries the connect at the lowest
   priority, so on a CPU it shares with the starting daemon it never
   holds the daemon up; this process blocks in [waitpid] meanwhile. *)
let await_listening d ~deadline =
  match Unix.fork () with
  | 0 ->
    ignore (Unix.nice 19);
    let rec go () =
      match open_conn d with
      | Some c -> Unix.close c.fd; 0
      | None ->
        if now () > deadline then 1 else go ()
    in
    Unix._exit (go ())
  | helper -> (
    match Unix.waitpid [] helper with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith "daemon did not start listening")

let connect d =
  match open_conn d with Some c -> c | None -> failwith "daemon is not listening"

let rec read_line_blocking c =
  match take_line c with
  | Some l -> l
  | None -> fill c; read_line_blocking c

let start_daemon ~rtsyn ~dir k =
  let sock = Filename.concat dir (Printf.sprintf "d%d.sock" k) in
  let cache = Filename.concat dir (Printf.sprintf "cache%d" k) in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process rtsyn
      [| rtsyn; "serve"; "--socket"; sock; "--cache-dir"; cache |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  let d = { pid; sock } in
  live := d :: !live;
  d

let stop_daemon d conns =
  (match conns with
  | c :: _ -> send c {|{"op":"shutdown"}|}; ignore (read_line_blocking c)
  | [] -> Unix.kill d.pid Sys.sigterm);
  List.iter (fun c -> Unix.close c.fd) conns;
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (fun x -> x.pid <> d.pid) !live

(* Setup: spawn the daemon on a fresh cache directory and end at the
   first answered ping. *)
let setup ~rtsyn ~dir k =
  let d = start_daemon ~rtsyn ~dir k in
  await_listening d ~deadline:(now () +. 30.0);
  let heavy = connect d in
  send heavy {|{"op":"ping","id":0}|};
  ignore (read_line_blocking heavy);
  let light = connect d in
  (d, heavy, light)

(* --- driving ----------------------------------------------------------- *)

type answer = { req : req; latency_s : float; response : string }

(* Block until one of [conns] has data (read into its buffer) or
   [until], if given, passes. *)
let wait_any conns ~until =
  let timeout = match until with None -> -1.0 | Some t -> max 0.0 (t -. now ()) in
  let fds = List.map (fun c -> c.fd) conns in
  match Unix.select fds [] [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | r, _, _ -> List.iter (fun c -> if List.mem c.fd r then fill c) conns

(* Send the steps in order over the two connections, handing every
   answer to [on_answer] as it arrives. *)
let drive ~heavy ~light steps ~on_answer =
  let conn_of r = match r.conn with Heavy_conn -> heavy | Light_conn -> light in
  List.iter
    (fun step ->
      let pending = ref [] in
      let launch r =
        send (conn_of r) r.line;
        pending := (r, now ()) :: !pending
      in
      let collect () =
        List.iter
          (fun c ->
            let rec drain () =
              match take_line c with
              | None -> ()
              | Some line ->
                let t = now () in
                (* answers on one connection come back in request order *)
                (match List.rev (List.filter (fun (r, _) -> conn_of r == c) !pending) with
                | (r, t0) :: _ ->
                  pending := List.filter (fun (r', _) -> r'.id <> r.id) !pending;
                  on_answer { req = r; latency_s = t -. t0; response = line }
                | [] -> failwith ("unsolicited response: " ^ line));
                drain ()
            in
            drain ())
          [ heavy; light ]
      in
      (match step with
      | Alone r -> launch r
      | Miss (m, l) ->
        launch m;
        let due = now () +. light_delay in
        while now () < due do
          wait_any [ heavy; light ] ~until:(Some due);
          collect ()
        done;
        launch l);
      collect ();
      while !pending <> [] do
        wait_any [ heavy; light ] ~until:None;
        collect ()
      done)
    steps

(* --- checks ------------------------------------------------------------ *)

let member k j = match Json.member k j with Some v -> v | None -> Json.Null

(* Every request is answered once, under its own id, successfully; a
   miss is computed and a hit served from the cache with the miss's
   exact result bytes. *)
let check_answer ~results a =
  match Json.parse a.response with
  | exception Json.Parse_error _ -> Error "unparsable response"
  | j ->
    let ok = member "ok" j = Json.Bool true in
    let id_ok = member "id" j = Json.Int a.req.id in
    let result = Json.to_string (member "result" j) in
    let cached = member "cached" j in
    if not id_ok then Error (Printf.sprintf "request %d answered with another id" a.req.id)
    else if not ok then Error (Printf.sprintf "%s failed: %s" a.req.kind a.response)
    else begin
      match a.req.repeat_of with
      | None ->
        if a.req.heavy && cached <> Json.Bool false then
          Error (a.req.kind ^ " was not computed")
        else begin
          if a.req.heavy then Hashtbl.replace results a.req.id result;
          Ok ()
        end
      | Some orig -> (
        match Hashtbl.find_opt results orig with
        | None -> Error "hit of a request with no recorded answer"
        | Some r ->
          if cached <> Json.Bool true then Error (a.req.kind ^ " was not served from the cache")
          else if r <> result then Error (a.req.kind ^ " payload differs from its miss")
          else Ok ())
    end

(* --- the run ------------------------------------------------------------ *)

let min_rounds = 4

(* Set-ups timed before the first round and before each round. *)
let setup_reps = 4

let scratch_dir scratch =
  let dir = Filename.concat scratch (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  mkdir_p dir;
  dir

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Run the script against a live daemon for [seconds]; whole rounds. *)
let socket_phase ~heavy ~light ~next_round ~between_rounds ~seconds =
  let results = Hashtbl.create 64 in
  let samples = ref [] and answers = ref [] and busy = ref 0.0 in
  let round _ =
    between_rounds ();
    let (), dt =
      time (fun () ->
          drive ~heavy ~light (next_round ()) ~on_answer:(fun a ->
              let error = match check_answer ~results a with Ok () -> None | Error e -> Some e in
              answers := a :: !answers;
              samples :=
                { name = a.req.kind; heavy = a.req.heavy; ms = a.latency_s *. 1e3; error }
                :: !samples))
    in
    busy := !busy +. dt
  in
  let rounds = run_rounds ~min_rounds ~seconds round in
  (!samples, List.rev !answers, rounds, !busy)

let run ~trace ~seed ~seconds ~rtsyn ~scratch =
  let dir = scratch_dir scratch in
  Fun.protect ~finally:(fun () -> kill_all (); rm_rf dir) @@ fun () ->
  let rng = Random.State.make [| seed |] in
  let next_round = script ~rng in
  (* Set-up, repeated before the first round and before each round, each
     time a daemon of its own on a fresh cache directory; the median is
     reported (see [Common.setup_sampler]).  The daemon that serves is
     set up once more after the first samples. *)
  let spawned = ref 0 in
  let fresh () =
    incr spawned;
    setup ~rtsyn ~dir !spawned
  in
  let sample_setup, setup_s =
    setup_sampler (fun () ->
        let d, h, l = fresh () in
        stop_daemon d [ h; l ])
  in
  sample_setup setup_reps;
  let d, heavy, light = fresh () in
  let samples, answers, rounds, busy =
    socket_phase ~heavy ~light ~next_round
      ~between_rounds:(fun () -> if not trace then sample_setup setup_reps)
      ~seconds:(if trace then seconds /. 3.0 else seconds)
  in
  let rss = peak_rss_mb (string_of_int d.pid) in
  send light {|{"op":"stats","id":-1}|};
  let stats = Json.parse (read_line_blocking light) in
  stop_daemon d [ heavy; light ];
  log "serve_mixed: %d rounds, %.3f s driven" rounds busy;
  if not trace then
    (* per round: every miss (heavy); a light request per miss, the heavy
       connection's hits and one stats (light) *)
    let misses = List.length (List.filter (fun (s : sample) -> s.heavy) samples) / rounds in
    let light = List.length samples / rounds - misses in
    summarize ~workload:"serve_mixed" ~setup_s:(setup_s ()) ~busy_s:busy ~rss_mb:rss
      ~min_samples:(min_rounds * misses, min_rounds * light)
      samples
  else
    let cache = member "cache" (member "result" stats) in
    let count k = match member k cache with Json.Int n -> float_of_int n | _ -> nan in
    let requests =
      List.map
        (fun a ->
          {
            Replay.line = a.req.line;
            light_conn = a.req.conn = Light_conn;
            heavy = a.req.heavy;
            socket_s = a.latency_s;
            response = a.response;
          })
        (List.sort (fun a b -> Int.compare a.req.id b.req.id) answers)
    in
    let layer = Replay.run ~dir ~answers:requests in
    let failed = List.length (List.filter (fun (s : sample) -> s.error <> None) samples) in
    {
      correct = failed = 0 && layer.Replay.failed = 0;
      attempted = List.length samples + layer.Replay.attempted;
      failed = failed + layer.Replay.failed;
      metrics =
        [ m "cache.hits" "count" (count "hits"); m "cache.misses" "count" (count "misses");
          m "cache.evictions" "count" (count "evictions") ]
        @ layer.Replay.metrics;
    }
