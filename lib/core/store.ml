(* Content-addressed two-tier store: the daemon's result cache and the
   staged flow's artifact store are this one module, told apart by a
   fixed namespace.

   - Keys are hex md5 digests over length-prefixed parts ([key]).
   - The memory tier is split into shards by the key's hash prefix.
     Each shard is an LRU bounded by retained cost: an entry costs its
     payload bytes plus the compute milliseconds it saves on a hit.  An
     optional count bound (the daemon's --cache-capacity) applies too.
   - The optional disk tier holds one checksummed file per entry,
     written through a temp file and an atomic rename, so a reader
     racing a writer (or two writers racing each other) sees either the
     complete old entry or the complete new one, never a torn write.
   - Any header or checksum mismatch (flipped byte, truncation, foreign
     file, an older format) counts as corrupt, removes the entry and
     reports a miss: corruption can only cost a recompute, never a wrong
     result.

   Access is unsynchronized: the daemon serializes it in its event loop
   and the flow owns its store. *)

module Obs = Rtcad_obs.Obs

type namespace = {
  magic : string;  (** first word of every disk entry *)
  ext : string;  (** disk entry file extension *)
  prefix : string;  (** obs metric prefix *)
  default_shards : int;
  default_budget : int;
}

let flow =
  {
    magic = "rtcad-flow-cache/1";
    ext = ".art";
    prefix = "flow.cache";
    default_shards = 4;
    default_budget = 64 * 1024 * 1024;
  }

let serve =
  {
    magic = "rtcad-serve-cache/2";
    ext = ".json";
    prefix = "serve.cache";
    default_shards = 8;
    default_budget = 32 * 1024 * 1024;
  }

let magic = flow.magic

type entry = { payload : string; cost_ms : float; mutable tick : int }

let entry_cost e = String.length e.payload + int_of_float (Float.ceil e.cost_ms)

type shard = {
  table : (string, entry) Hashtbl.t;
  mutable s_cost : int;  (** sum of [entry_cost] over the table *)
  mutable s_bytes : int;
  mutable s_ms : float;
  mutable s_evictions : int;
}

type t = {
  ns : namespace;
  shards : shard array;
  shard_budget : int;
  shard_capacity : int option;
  dir : string option;
  mutable clock : int;
  mutable hits : int;
  mutable disk_hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable corrupt : int;
}

type shard_stats = {
  sh_entries : int;
  sh_bytes : int;
  sh_ms : float;
  sh_evictions : int;
}

type stats = {
  hits : int;
  disk_hits : int;
  misses : int;
  stores : int;
  evictions : int;
  corrupt : int;
  entries : int;
  retained_bytes : int;
  retained_ms : float;
  shards : shard_stats list;
}

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | Unix.Unix_error (e, _, _) ->
      raise (Sys_error (Printf.sprintf "%s: %s" path (Unix.error_message e)))
  end

let make ns ?(shards = ns.default_shards) ?(budget = ns.default_budget) ?capacity
    ?dir () =
  if shards < 1 then invalid_arg "Store.make: shards must be positive";
  if budget < 1 then invalid_arg "Store.make: budget must be positive";
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Store.make: capacity must be positive"
  | _ -> ());
  Option.iter mkdir_p dir;
  {
    ns;
    shards =
      Array.init shards (fun _ ->
          { table = Hashtbl.create 16; s_cost = 0; s_bytes = 0; s_ms = 0.0; s_evictions = 0 });
    (* Budgets divide evenly: with one shard the whole budget applies,
       which is what the deterministic eviction tests pin down. *)
    shard_budget = max 1 (budget / shards);
    shard_capacity = Option.map (fun c -> max 1 ((c + shards - 1) / shards)) capacity;
    dir;
    clock = 0;
    hits = 0;
    disk_hits = 0;
    misses = 0;
    stores = 0;
    corrupt = 0;
  }

let create ?shards ?budget ?dir () = make flow ?shards ?budget ?dir ()

let count (t : t) name = if Obs.enabled () then Obs.incr (t.ns.prefix ^ "." ^ name)

(* Keys are md5 hex digests ({!key}); the first two hex characters are a
   uniform hash prefix.  Arbitrary keys (unit tests) fall back to a
   deterministic structural hash. *)
let shard_index (t : t) k =
  let n = Array.length t.shards in
  if n = 1 then 0
  else
    match if String.length k >= 2 then int_of_string_opt ("0x" ^ String.sub k 0 2) else None with
    | Some v -> v mod n
    | None -> Hashtbl.hash k mod n

let shard_of (t : t) k = t.shards.(shard_index t k)

(* Length-prefixing makes the digest injective over the part list:
   ["ab"; "c"] and ["a"; "bc"] hash differently. *)
let key parts =
  let buf = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string buf (string_of_int (String.length p));
      Buffer.add_char buf ':';
      Buffer.add_string buf p)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let touch (t : t) e =
  t.clock <- t.clock + 1;
  e.tick <- t.clock

(* Gauges are only rebuilt when recording is on; the daemon's stats op
   reads the same numbers synchronously via {!stats}. *)
let publish_gauges (t : t) =
  if Obs.enabled () then begin
    let gauge name v = Obs.set_gauge (t.ns.prefix ^ "." ^ name) v in
    let entries = ref 0 and bytes = ref 0 and ms = ref 0.0 in
    Array.iteri
      (fun i s ->
        entries := !entries + Hashtbl.length s.table;
        bytes := !bytes + s.s_bytes;
        ms := !ms +. s.s_ms;
        let g name v = gauge (Printf.sprintf "shard%d.%s" i name) v in
        g "entries" (float_of_int (Hashtbl.length s.table));
        g "bytes" (float_of_int s.s_bytes);
        g "ms" s.s_ms;
        g "evictions" (float_of_int s.s_evictions))
      t.shards;
    gauge "entries" (float_of_int !entries);
    gauge "retained_bytes" (float_of_int !bytes);
    gauge "retained_ms" !ms
  end

let remove_entry sh k e =
  Hashtbl.remove sh.table k;
  sh.s_cost <- sh.s_cost - entry_cost e;
  sh.s_bytes <- sh.s_bytes - String.length e.payload;
  sh.s_ms <- sh.s_ms -. e.cost_ms

(* The LRU scan is O(entries); shards keep each table small and the
   determinism of "evict the minimum tick" is worth more here than a
   doubly-linked list. *)
let evict_lru t sh =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, v) when v.tick <= e.tick -> ()
      | _ -> victim := Some (k, e))
    sh.table;
  match !victim with
  | Some (k, e) ->
    remove_entry sh k e;
    sh.s_evictions <- sh.s_evictions + 1;
    count t "evict";
    true
  | None -> false

let insert_mem ?(cost_ms = 0.0) t k payload =
  let sh = shard_of t k in
  match Hashtbl.find_opt sh.table k with
  | Some e -> touch t e
  | None ->
    (* Make room by count first (pre-insertion, the classic LRU bound),
       then admit and shave the cost budget down — never evicting the
       entry just inserted, so a single oversized result still caches
       (and is the next LRU victim). *)
    (match t.shard_capacity with
    | Some cap ->
      while Hashtbl.length sh.table >= cap && evict_lru t sh do
        ()
      done
    | None -> ());
    let e = { payload; cost_ms; tick = 0 } in
    touch t e;
    Hashtbl.replace sh.table k e;
    sh.s_cost <- sh.s_cost + entry_cost e;
    sh.s_bytes <- sh.s_bytes + String.length payload;
    sh.s_ms <- sh.s_ms +. cost_ms;
    while sh.s_cost > t.shard_budget && Hashtbl.length sh.table > 1 && evict_lru t sh do
      ()
    done

(* --- disk tier --------------------------------------------------------- *)

let disk_path ns dir k = Filename.concat dir (k ^ ns.ext)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A disk entry is [magic ^ " " ^ stage ^ " " ^ md5(payload) ^ "\n" ^
   payload].  The stage name carries no trust — only the checksum does —
   it exists so [ls] can attribute the entry without decoding the
   payload. *)
let encode_entry ns ~stage payload =
  if String.contains stage ' ' || String.contains stage '\n' then
    invalid_arg "Store: stage names must not contain spaces";
  Printf.sprintf "%s %s %s\n%s" ns.magic stage (Digest.to_hex (Digest.string payload)) payload

let decode_entry ns data =
  match String.index_opt data '\n' with
  | None -> None
  | Some nl -> (
    let header = String.sub data 0 nl in
    let payload = String.sub data (nl + 1) (String.length data - nl - 1) in
    match String.split_on_char ' ' header with
    | [ m; stage; sum ]
      when m = ns.magic && String.equal sum (Digest.to_hex (Digest.string payload)) ->
      Some (stage, payload)
    | _ -> None)

let disk_find t k =
  match t.dir with
  | None -> None
  | Some dir -> (
    let path = disk_path t.ns dir k in
    match read_file path with
    | exception Sys_error _ -> None
    | data -> (
      match decode_entry t.ns data with
      | Some (_stage, payload) -> Some payload
      | None ->
        t.corrupt <- t.corrupt + 1;
        count t "corrupt";
        (try Sys.remove path with Sys_error _ -> ());
        None))

(* Unique-then-rename keeps concurrent writers safe: each writer builds
   its own temp file (pid + a process-wide counter disambiguate) and the
   rename installs it atomically, so the entry file is always either
   absent or a complete checksummed entry.  Last writer wins; both wrote
   the same content-addressed payload anyway. *)
let tmp_counter = Atomic.make 0

let disk_store t ~stage k payload =
  match t.dir with
  | None -> ()
  | Some dir -> (
    let path = disk_path t.ns dir k in
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) (Atomic.fetch_and_add tmp_counter 1)
    in
    (* Best-effort: a full disk loses persistence for this entry only. *)
    match Obs.write_file ~path:tmp (encode_entry t.ns ~stage payload) with
    | Ok () -> ( try Sys.rename tmp path with Sys_error _ -> ())
    | Error _ -> ( try Sys.remove tmp with Sys_error _ -> ()))

let find t k =
  match Hashtbl.find_opt (shard_of t k).table k with
  | Some e ->
    touch t e;
    t.hits <- t.hits + 1;
    count t "hit";
    Some e.payload
  | None -> (
    match disk_find t k with
    | Some payload ->
      (* The disk header records no compute time, so a promoted entry's
         retained cost is its bytes alone. *)
      insert_mem t k payload;
      t.hits <- t.hits + 1;
      t.disk_hits <- t.disk_hits + 1;
      count t "hit";
      count t "disk_hit";
      publish_gauges t;
      Some payload
    | None ->
      t.misses <- t.misses + 1;
      count t "miss";
      None)

let store ?cost_ms ~stage t k payload =
  insert_mem ?cost_ms t k payload;
  disk_store t ~stage k payload;
  t.stores <- t.stores + 1;
  count t "store";
  publish_gauges t

let stats (t : t) =
  let shards =
    Array.to_list
      (Array.map
         (fun s ->
           {
             sh_entries = Hashtbl.length s.table;
             sh_bytes = s.s_bytes;
             sh_ms = s.s_ms;
             sh_evictions = s.s_evictions;
           })
         t.shards)
  in
  {
    hits = t.hits;
    disk_hits = t.disk_hits;
    misses = t.misses;
    stores = t.stores;
    evictions = List.fold_left (fun a s -> a + s.sh_evictions) 0 shards;
    corrupt = t.corrupt;
    entries = List.fold_left (fun a s -> a + s.sh_entries) 0 shards;
    retained_bytes = List.fold_left (fun a s -> a + s.sh_bytes) 0 shards;
    retained_ms = List.fold_left (fun a s -> a +. s.sh_ms) 0.0 shards;
    shards;
  }

(* --- directory operations (the `rtsyn cache` subcommand) --------------- *)

type disk_entry = {
  de_key : string;
  de_stage : string;
  de_bytes : int;  (** whole file, header included *)
  de_mtime : float;
}

type disk_stats = {
  d_entries : int;
  d_bytes : int;
  d_corrupt : int;  (** undecodable entries found (and removed) by the scan *)
  d_stages : (string * int) list;  (** per-stage entry counts, sorted *)
}

(* "<key><ext>.tmp.<pid>.<n>": a temp file a writer has not renamed
   (yet).  Keys are hex digests, so the first dot starts the suffix. *)
let is_temp ns name =
  let marker = ns.ext ^ ".tmp." in
  match String.index_opt name '.' with
  | Some i ->
    String.length name >= i + String.length marker
    && String.sub name i (String.length marker) = marker
  | None -> false

(* Scan a store directory: decode every entry, removing the ones that
   fail their checksum (the same discard-and-recompute contract the live
   store applies on [find]).  Temp files older than an hour are
   leftovers of a crashed writer and are swept too; fresh ones may
   belong to a live writer. *)
let scan ns dir =
  let names = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.sort compare names;
  let entries = ref [] and corrupt = ref 0 in
  let now = Unix.gettimeofday () in
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      if Filename.check_suffix name ns.ext then begin
        match read_file path with
        | exception Sys_error _ -> ()
        | data -> (
          match decode_entry ns data with
          | Some (stage, _) ->
            let mtime = try (Unix.stat path).Unix.st_mtime with Unix.Unix_error _ -> now in
            entries :=
              {
                de_key = Filename.chop_suffix name ns.ext;
                de_stage = stage;
                de_bytes = String.length data;
                de_mtime = mtime;
              }
              :: !entries
          | None ->
            incr corrupt;
            (try Sys.remove path with Sys_error _ -> ()))
      end
      else if
        is_temp ns name
        &&
        match Unix.stat path with
        | exception Unix.Unix_error _ -> false
        | st -> now -. st.Unix.st_mtime > 3600.0
      then try Sys.remove path with Sys_error _ -> ())
    names;
  (List.rev !entries, !corrupt)

let ls ns ~dir =
  let entries, _ = scan ns dir in
  List.sort
    (fun a b ->
      match compare a.de_stage b.de_stage with 0 -> compare a.de_key b.de_key | c -> c)
    entries

let disk_stats ns ~dir =
  let entries, corrupt = scan ns dir in
  let stages = Hashtbl.create 8 in
  List.iter
    (fun e ->
      Hashtbl.replace stages e.de_stage
        (1 + Option.value ~default:0 (Hashtbl.find_opt stages e.de_stage)))
    entries;
  {
    d_entries = List.length entries;
    d_bytes = List.fold_left (fun a e -> a + e.de_bytes) 0 entries;
    d_corrupt = corrupt;
    d_stages = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) stages []);
  }

(* Oldest-first eviction down to the byte budget.  Ties on mtime break
   by key so the sweep is deterministic on coarse-granularity
   filesystems. *)
let gc ns ~dir ~budget =
  if budget < 0 then invalid_arg "Store.gc: budget must be non-negative";
  let entries, _ = scan ns dir in
  let total = List.fold_left (fun a e -> a + e.de_bytes) 0 entries in
  let ordered =
    List.sort
      (fun a b ->
        match compare a.de_mtime b.de_mtime with 0 -> compare a.de_key b.de_key | c -> c)
      entries
  in
  let removed = ref 0 and remaining = ref total in
  List.iter
    (fun e ->
      if !remaining > budget then begin
        match Sys.remove (disk_path ns dir e.de_key) with
        | () ->
          incr removed;
          remaining := !remaining - e.de_bytes
        | exception Sys_error _ -> ()
      end)
    ordered;
  (!removed, !remaining)
