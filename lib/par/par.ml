(* A fixed pool of worker domains with per-worker mailboxes.  Work is
   fanned out as one closure per participant; inner loops claim chunks
   of the index space through an atomic cursor, so load balancing does
   not depend on a work-stealing runtime the toolchain doesn't ship. *)

let recommended () = Domain.recommended_domain_count ()

let override = ref None

let set_jobs n =
  if n < 1 then invalid_arg "Par.set_jobs: job count must be positive";
  override := Some n

let jobs () =
  match !override with
  | Some n -> n
  | None -> (
    match Sys.getenv_opt "RTCAD_JOBS" with
    | None | Some "" -> recommended ()
    | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> n
      | Some _ | None -> invalid_arg "RTCAD_JOBS must be a positive integer"))

(* True while the current domain is executing inside a parallel region:
   set permanently on worker domains and for the duration of a region on
   the initiating domain.  Any [Par] entry point that observes it runs
   serially, which makes nested parallelism (a parallel per-signal
   synthesis inside a parallel fuzz case) safe by default. *)
let busy_key = Domain.DLS.new_key (fun () -> ref false)
let busy () = Domain.DLS.get busy_key
let in_parallel_region () = !(busy ())

(* Worker identity of the current domain inside a region: 0 for the
   initiating domain (and outside any region), i for pool worker i.
   Observability keys its per-worker accumulators on this index, so
   merged metrics depend only on how many participants there were — not
   on which OS thread or domain happened to run which chunk. *)
let index_key = Domain.DLS.new_key (fun () -> ref 0)
let worker_index () = !(Domain.DLS.get index_key)

(* --- the pool --- *)

type worker = {
  m : Mutex.t;
  cv : Condition.t;
  mutable job : (unit -> unit) option; (* None = idle *)
  mutable quit : bool;
}

type pool = { workers : worker array; domains : unit Domain.t array }

let pool : pool option ref = ref None

let worker_loop w =
  busy () := true;
  let rec go () =
    Mutex.lock w.m;
    while w.job = None && not w.quit do
      Condition.wait w.cv w.m
    done;
    if w.quit then Mutex.unlock w.m
    else begin
      let f = Option.get w.job in
      Mutex.unlock w.m;
      (* [f] never raises: submitted jobs wrap their body. *)
      f ();
      Mutex.lock w.m;
      w.job <- None;
      Condition.broadcast w.cv;
      Mutex.unlock w.m;
      go ()
    end
  in
  go ()

let shutdown () =
  match !pool with
  | None -> ()
  | Some p ->
    Array.iter
      (fun w ->
        Mutex.lock w.m;
        w.quit <- true;
        Condition.broadcast w.cv;
        Mutex.unlock w.m)
      p.workers;
    Array.iter Domain.join p.domains;
    pool := None

(* The pool holds [jobs () - 1] workers; the caller is the remaining
   participant.  Resized (torn down and respawned) when the job count
   changes between regions, which only tests and CLI flag changes do. *)
let get_pool size =
  (match !pool with
  | Some p when Array.length p.workers <> size -> shutdown ()
  | Some _ | None -> ());
  match !pool with
  | Some p -> p
  | None ->
    let workers =
      Array.init size (fun _ ->
          { m = Mutex.create (); cv = Condition.create (); job = None; quit = false })
    in
    let domains = Array.map (fun w -> Domain.spawn (fun () -> worker_loop w)) workers in
    let p = { workers; domains } in
    pool := Some p;
    p

let submit w f =
  Mutex.lock w.m;
  w.job <- Some f;
  Condition.broadcast w.cv;
  Mutex.unlock w.m

let join w =
  Mutex.lock w.m;
  while w.job <> None do
    Condition.wait w.cv w.m
  done;
  Mutex.unlock w.m

let run_workers f =
  let n = jobs () in
  if n = 1 || in_parallel_region () then f ~index:0 ~count:1
  else begin
    let p = get_pool (n - 1) in
    (* First exception wins (nondeterministic across runs; documented). *)
    let failed = Atomic.make None in
    let task index () =
      let wi = Domain.DLS.get index_key in
      let saved = !wi in
      wi := index;
      Fun.protect
        ~finally:(fun () -> wi := saved)
        (fun () ->
          try f ~index ~count:n
          with e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failed None (Some (e, bt))))
    in
    Array.iteri (fun i w -> submit w (task (i + 1))) p.workers;
    let flag = busy () in
    flag := true;
    Fun.protect
      ~finally:(fun () ->
        flag := false;
        Array.iter join p.workers)
      (fun () -> task 0 ());
    match Atomic.get failed with
    | None -> ()
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  end

(* Chunk size balances dispatch overhead against load imbalance: small
   enough for ~8 claims per participant, never below 1. *)
let default_chunk n count = max 1 (n / (count * 8))

let parallel_for ?chunk n f =
  if n > 0 then
    if jobs () = 1 || in_parallel_region () || n = 1 then
      for i = 0 to n - 1 do
        f i
      done
    else begin
      let next = Atomic.make 0 in
      run_workers (fun ~index:_ ~count ->
          let chunk = match chunk with Some c -> max 1 c | None -> default_chunk n count in
          let rec claim () =
            let lo = Atomic.fetch_and_add next chunk in
            if lo < n then begin
              let hi = min n (lo + chunk) in
              for i = lo to hi - 1 do
                f i
              done;
              claim ()
            end
          in
          claim ())
    end

let map_array ?chunk f a =
  let n = Array.length a in
  if n = 0 then [||]
  else if jobs () = 1 || in_parallel_region () || n = 1 then Array.map f a
  else begin
    (* Each slot is written by exactly one domain and read only after the
       join, which synchronizes through the worker mailbox mutexes. *)
    let out = Array.make n None in
    parallel_for ?chunk n (fun i ->
        out.(i) <- Some (try Ok (f a.(i)) with e -> Error (e, Printexc.get_raw_backtrace ())));
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false (* every index below n was claimed *))
      out
  end

let mapi_array ?chunk f a =
  let n = Array.length a in
  if n = 0 then [||]
  else if jobs () = 1 || in_parallel_region () || n = 1 then Array.mapi f a
  else begin
    let out = Array.make n None in
    parallel_for ?chunk n (fun i ->
        out.(i) <- Some (try Ok (f i a.(i)) with e -> Error (e, Printexc.get_raw_backtrace ())));
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false (* every index below n was claimed *))
      out
  end

let map_list ?chunk f l = Array.to_list (map_array ?chunk f (Array.of_list l))

let try_map_list ?chunk f l =
  map_list ?chunk (fun x -> try Ok (f x) with e -> Error e) l
