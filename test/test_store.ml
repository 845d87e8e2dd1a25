(* The content-addressed store (lib/core/store.ml), tested once for both
   of its namespaces: the daemon's result cache and the flow's artifact
   store share one implementation, so every case runs against each.  A
   literal golden pins the flow entry format, which flow keys depend
   on. *)

module Store = Rtcad_core.Store
module Obs = Rtcad_obs.Obs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type ns = { name : string; ns : Store.namespace; ext : string; prefix : string }

let namespaces =
  [
    { name = "flow"; ns = Store.flow; ext = ".art"; prefix = "flow.cache" };
    { name = "serve"; ns = Store.serve; ext = ".json"; prefix = "serve.cache" };
  ]

let each f () = List.iter f namespaces
let label n what = Printf.sprintf "%s: %s" n.name what

let with_tmpdir f =
  let path = Filename.temp_file "rtcad-store" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then begin
        Array.iter
          (fun e -> try Sys.remove (Filename.concat path e) with Sys_error _ -> ())
          (Sys.readdir path);
        try Unix.rmdir path with Unix.Unix_error _ -> ()
      end)
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let entry_files n dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f -> Filename.check_suffix f n.ext)
  |> List.sort compare
  |> List.map (Filename.concat dir)

(* Store one entry, rewrite its file with [f], and return the key. *)
let corrupt_one n dir f =
  let k = Store.key [ n.name; "victim" ] in
  Store.store ~stage:"covers" (Store.make n.ns ~dir ()) k (String.make 64 'p');
  (match entry_files n dir with
  | [ file ] -> f file
  | l -> Alcotest.failf "expected 1 entry file, found %d" (List.length l));
  k

let corrupt_is_a_miss n dir k what =
  let s = Store.make n.ns ~dir () in
  check (label n (what ^ " is a miss")) true (Store.find s k = None);
  check (label n (what ^ " removed")) true (entry_files n dir = []);
  check_int (label n "corruption counted") 1 (Store.stats s).Store.corrupt

(* --- keys and the memory tier ---------------------------------------- *)

let test_key () =
  check "length prefix separates parts" false
    (String.equal (Store.key [ "ab"; "c" ]) (Store.key [ "a"; "bc" ]));
  check "empty parts count" false (String.equal (Store.key [ ""; "x" ]) (Store.key [ "x" ]));
  Alcotest.(check string) "key is stable" (Store.key [ "x"; "y" ]) (Store.key [ "x"; "y" ])

let test_cost_eviction n =
  (* Entry cost = payload bytes + ceil(compute ms); the budget bounds the
     retained total and eviction is LRU by that cost. *)
  let c = Store.make n.ns ~shards:1 ~budget:100 () in
  Store.store ~stage:"s" ~cost_ms:30.0 c "a" (String.make 20 'a');
  (* cost 50 *)
  Store.store ~stage:"s" ~cost_ms:20.0 c "b" (String.make 20 'b');
  (* cost 40: total 90, both fit *)
  check_int (label n "both under budget") 2 (Store.stats c).Store.entries;
  ignore (Store.find c "a");
  (* touch: "b" becomes the LRU victim *)
  Store.store ~stage:"s" c "d" (String.make 40 'd');
  (* cost 40: 130 > 100, evict "b" *)
  let st = Store.stats c in
  check_int (label n "one eviction") 1 st.Store.evictions;
  check (label n "LRU victim gone") true (Store.find c "b" = None);
  check (label n "touched entry survives") true (Store.find c "a" <> None);
  check_int (label n "retained bytes") 60 st.Store.retained_bytes;
  Alcotest.(check (float 1e-6)) (label n "retained ms") 30.0 st.Store.retained_ms;
  (* A single entry dearer than the whole budget still caches: the entry
     just inserted is never its own victim. *)
  Store.store ~stage:"s" c "huge" (String.make 500 'h');
  check (label n "oversized entry cached") true (Store.find c "huge" <> None);
  check_int (label n "everything else evicted") 1 (Store.stats c).Store.entries

let test_count_bound n =
  (* One shard so the count bound is global. *)
  let c = Store.make n.ns ~shards:1 ~capacity:2 () in
  let put k = Store.store ~stage:"s" c k k in
  put "p";
  put "q";
  ignore (Store.find c "p");
  put "r";
  (* "q" was the least recently used *)
  check (label n "LRU victim gone") true (Store.find c "q" = None);
  check (label n "touched entry survives") true (Store.find c "p" <> None);
  let st = Store.stats c in
  check_int (label n "one eviction") 1 st.Store.evictions;
  check_int (label n "bound respected") 2 st.Store.entries

let test_shard_partition n =
  Obs.set_enabled true;
  let c, snap =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled false)
      (fun () ->
        let c = Store.make n.ns ~shards:4 () in
        for i = 1 to 64 do
          Store.store ~stage:"s" ~cost_ms:1.0 c
            (Store.key [ string_of_int i ])
            (Printf.sprintf "payload-%d" i)
        done;
        (c, Obs.snapshot ()))
  in
  let st = Store.stats c in
  check_int (label n "one stat per shard") 4 (List.length st.Store.shards);
  check_int (label n "entries sum to total") st.Store.entries
    (List.fold_left (fun a s -> a + s.Store.sh_entries) 0 st.Store.shards);
  check_int (label n "bytes sum to total") st.Store.retained_bytes
    (List.fold_left (fun a s -> a + s.Store.sh_bytes) 0 st.Store.shards);
  Alcotest.(check (float 1e-6)) (label n "ms sum to total") st.Store.retained_ms
    (List.fold_left (fun a s -> a +. s.Store.sh_ms) 0.0 st.Store.shards);
  let populated = List.length (List.filter (fun s -> s.Store.sh_entries > 0) st.Store.shards) in
  check (label n "hash prefix spreads the keys") true (populated > 1);
  (* The same totals reach the obs gauges under the namespace prefix. *)
  let gauge name =
    match Obs.metric snap (n.prefix ^ "." ^ name) with
    | Some (Obs.Gauge_v v) -> int_of_float v
    | _ -> Alcotest.failf "gauge %s.%s missing" n.prefix name
  in
  check_int (label n "entries gauge") st.Store.entries (gauge "entries");
  check_int (label n "bytes gauge") st.Store.retained_bytes (gauge "retained_bytes");
  check_int (label n "shard gauges sum")
    st.Store.entries
    (List.fold_left ( + ) 0
       (List.init 4 (fun i -> gauge (Printf.sprintf "shard%d.entries" i))));
  check_int (label n "store counter") 64 (Obs.counter snap (n.prefix ^ ".store"))

(* --- the disk tier --------------------------------------------------- *)

let test_roundtrip n =
  with_tmpdir @@ fun dir ->
  let s = Store.make n.ns ~dir () in
  let k = Store.key [ "stage"; "payload-identity" ] in
  Store.store ~stage:"reach" s k "payload-bytes";
  check (label n "memory hit") true (Store.find s k = Some "payload-bytes");
  (* a fresh instance (empty memory) sees it through the disk tier *)
  let s2 = Store.make n.ns ~dir () in
  check (label n "disk hit") true (Store.find s2 k = Some "payload-bytes");
  check (label n "promoted into memory") true (Store.find s2 k = Some "payload-bytes");
  let st = Store.stats s2 in
  check_int (label n "hits") 2 st.Store.hits;
  check_int (label n "disk hits") 1 st.Store.disk_hits;
  match Store.ls n.ns ~dir with
  | [ e ] ->
    Alcotest.(check string) (label n "listed key") k e.Store.de_key;
    Alcotest.(check string) (label n "stage recorded") "reach" e.Store.de_stage
  | l -> Alcotest.failf "%s: expected one listed entry, found %d" n.name (List.length l)

let test_flipped_byte n =
  with_tmpdir @@ fun dir ->
  let k =
    corrupt_one n dir (fun file ->
        let b = Bytes.of_string (read_file file) in
        (* flip a byte near the end — inside the payload, past the header *)
        let i = Bytes.length b - 3 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
        write_file file (Bytes.to_string b))
  in
  corrupt_is_a_miss n dir k "flipped byte"

let test_truncated n =
  with_tmpdir @@ fun dir ->
  let k =
    corrupt_one n dir (fun file ->
        let b = read_file file in
        write_file file (String.sub b 0 (String.length b / 2)))
  in
  corrupt_is_a_miss n dir k "truncated entry"

let test_missing_and_foreign n =
  with_tmpdir @@ fun dir ->
  let k = corrupt_one n dir Sys.remove in
  let s = Store.make n.ns ~dir () in
  check (label n "missing blob is a miss") true (Store.find s k = None);
  check_int (label n "a missing blob is not corruption") 0 (Store.stats s).Store.corrupt;
  (* Foreign files are detected, not trusted: garbage, the other
     namespace's format, and the daemon's old headerless-stage format. *)
  let payload = "{}" in
  let sum = Digest.to_hex (Digest.string payload) in
  let other = if n.name = "flow" then "rtcad-serve-cache/2" else "rtcad-flow-cache/1" in
  List.iteri
    (fun i data -> write_file (Filename.concat dir (Printf.sprintf "%02x%s" i n.ext)) data)
    [
      "not a store entry at all";
      Printf.sprintf "%s check %s\n%s" other sum payload;
      Printf.sprintf "rtcad-serve-cache/1 %s\n%s" sum payload;
    ];
  let s = Store.make n.ns ~dir () in
  check (label n "old-format entry is a miss") true (Store.find s "02" = None);
  check_int (label n "old-format entry counted corrupt") 1 (Store.stats s).Store.corrupt;
  let st = Store.disk_stats n.ns ~dir in
  check_int (label n "foreign files counted corrupt") 2 st.Store.d_corrupt;
  check (label n "foreign files removed") true (entry_files n dir = [])

(* Concurrent writers racing the same entry through temp-file renames:
   every interleaving leaves a readable, checksummed entry. *)
let test_concurrent_writers n =
  with_tmpdir @@ fun dir ->
  let k = Store.key [ "reach"; "contended" ] in
  let payload d = Printf.sprintf "writer-%d-payload" d in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let s = Store.make n.ns ~dir () in
            for _ = 1 to 25 do
              Store.store ~stage:"reach" s k (payload d)
            done))
  in
  List.iter Domain.join domains;
  (match Store.find (Store.make n.ns ~dir ()) k with
  | None -> Alcotest.failf "%s: entry lost after concurrent writes" n.name
  | Some v ->
    check (label n "payload is one of the writers'") true
      (List.exists (fun d -> String.equal v (payload d)) [ 0; 1; 2; 3 ]));
  let st = Store.disk_stats n.ns ~dir in
  check_int (label n "no corruption from racing renames") 0 st.Store.d_corrupt;
  check_int (label n "single entry for the contended key") 1 st.Store.d_entries;
  check_int (label n "no abandoned temp files") 1 (Array.length (Sys.readdir dir))

let test_temp_sweep n =
  with_tmpdir @@ fun dir ->
  let k = Store.key [ "sweep" ] in
  Store.store ~stage:"emit" (Store.make n.ns ~dir ()) k "kept";
  let temp i = Filename.concat dir (Printf.sprintf "%s%s.tmp.%d.0" k n.ext i) in
  write_file (temp 1) "half-written";
  write_file (temp 2) "half-written";
  (* a crashed writer's leftover, two hours old; the other is fresh and
     may belong to a live writer *)
  let old = Unix.gettimeofday () -. 7200.0 in
  Unix.utimes (temp 1) old old;
  let st = Store.disk_stats n.ns ~dir in
  check_int (label n "temp files are not entries") 1 st.Store.d_entries;
  check_int (label n "temp files are not corrupt") 0 st.Store.d_corrupt;
  check (label n "stale temp file swept") false (Sys.file_exists (temp 1));
  check (label n "fresh temp file kept") true (Sys.file_exists (temp 2))

let test_gc n =
  with_tmpdir @@ fun dir ->
  let s = Store.make n.ns ~dir () in
  for i = 1 to 8 do
    Store.store ~stage:"covers" s
      (Store.key [ "gc"; string_of_int i ])
      (String.make 1000 (Char.chr (Char.code 'a' + i)))
  done;
  let before = Store.disk_stats n.ns ~dir in
  check_int (label n "eight entries") 8 before.Store.d_entries;
  let removed, remaining = Store.gc n.ns ~dir ~budget:(before.Store.d_bytes / 2) in
  check (label n "entries removed") true (removed > 0);
  check (label n "budget respected") true (remaining <= before.Store.d_bytes / 2);
  check_int (label n "survivors listed") (8 - removed) (List.length (Store.ls n.ns ~dir))

(* Flow keys include [Store.magic] and flow entries outlive processes,
   so both the key function and the entry bytes are frozen. *)
let test_flow_golden () =
  with_tmpdir @@ fun dir ->
  let k = Store.key [ Store.magic; "reach"; "golden" ] in
  Alcotest.(check string) "flow key" "264ce9c9769e27fb882ba2cf291b4b93" k;
  Store.store ~stage:"reach" (Store.create ~dir ()) k "payload-bytes";
  Alcotest.(check string)
    "flow entry bytes"
    "rtcad-flow-cache/1 reach b0c37c7011186df6c509b861d52a5de6\npayload-bytes"
    (read_file (Filename.concat dir (k ^ ".art")))

let suite =
  [
    ( "artifact-store",
      [
        Alcotest.test_case "roundtrip through both tiers" `Quick (each test_roundtrip);
        Alcotest.test_case "flipped byte" `Quick (each test_flipped_byte);
        Alcotest.test_case "truncated entry" `Quick (each test_truncated);
        Alcotest.test_case "missing blob, foreign file" `Quick (each test_missing_and_foreign);
        Alcotest.test_case "concurrent writers" `Quick (each test_concurrent_writers);
        Alcotest.test_case "temp-file sweep" `Quick (each test_temp_sweep);
        Alcotest.test_case "gc to budget" `Quick (each test_gc);
        Alcotest.test_case "keys are injective" `Quick test_key;
        Alcotest.test_case "cost-based eviction honours the budget" `Quick
          (each test_cost_eviction);
        Alcotest.test_case "count bound evicts LRU" `Quick (each test_count_bound);
        Alcotest.test_case "shard stats partition the totals" `Quick
          (each test_shard_partition);
        Alcotest.test_case "flow entry bytes are pinned" `Quick test_flow_golden;
      ] );
  ]
