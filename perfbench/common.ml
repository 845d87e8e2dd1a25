(* Shared measurement plumbing: clocks, sample statistics, process
   memory, cold children, and the one-line JSON result. *)

module Par = Rtcad_par.Par

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let log fmt = Printf.ksprintf (fun s -> prerr_string s; prerr_newline ()) fmt

(* --- samples ----------------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum xs = List.fold_left ( +. ) 0.0 xs

(* The tail of a class is the highest percentile that keeps at least
   ten samples beyond it at the class's guaranteed minimum sample count.
   It is fixed per class (not re-derived from each run's count), so runs
   of different lengths report the same order statistic. *)
let tail_percentile ~min_samples =
  float_of_int (min_samples - 10) /. float_of_int min_samples

(* One timed operation: its name and class, its latency, and the reason
   it failed (it raised, or a check of its output did). *)
type sample = { name : string; heavy : bool; ms : float; error : string option }

(* Per-operation medians on stderr, for reading a run by eye. *)
let log_breakdown (samples : sample list) =
  let key s = (if s.heavy then "heavy " else "light ") ^ s.name in
  let names = List.sort_uniq String.compare (List.map key samples) in
  List.iter
    (fun n ->
      let xs = List.filter_map (fun s -> if key s = n then Some s.ms else None) samples in
      log "  %-28s n=%-4d median %9.3f ms  min %9.3f  max %9.3f" n (List.length xs) (median xs)
        (percentile 0.0 xs) (percentile 1.0 xs))
    names

(* Run [round] (one whole round of a workload's script) until at least
   [min_rounds] have run and the next would, at the last round's pace,
   end past [seconds].  Returns the number of rounds run. *)
let run_rounds ~min_rounds ~seconds round =
  let t_start = now () in
  let rec go n last =
    if n < min_rounds || now () -. t_start +. last <= seconds then begin
      let t0 = now () in
      round n;
      go (n + 1) (now () -. t0)
    end
    else n
  in
  go 0 0.0

(* --- memory ------------------------------------------------------------ *)

(* VmHWM of a process, in MB (kB / 1024). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> nan
          | l ->
            if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                  float_of_int kb /. 1024.0)
            else go ()
        in
        go ())

let self_peak_rss_mb () = peak_rss_mb "self"

(* --- cold start -------------------------------------------------------- *)

let rec write_all fd s off len =
  if len > 0 then
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)

(* A child forked to run one operation first gets into the state of a
   process that has synthesized before: worker domains spawned, BDD
   tables and minor heaps allocated (by [warm], a small synthesis).  Then
   it drops the BDD operation caches and the analysis pool on every
   domain and collects the heap, so nothing the warm-up computed is
   reused.  Its heap is otherwise fresh: in one long-lived process the
   OCaml 5.1 runtime, which does not compact, keeps the heap shape
   earlier operations left, and that alone moved a ring7 synthesis by 30%
   between runs. *)
let warm_child warm =
  warm ();
  Par.run_workers (fun ~index:_ ~count:_ ->
      Rtcad_logic.Bdd.clear_caches ();
      Rtcad_sg.Symbolic.Seeds.clear ());
  Gc.full_major ()

(* Run [f] in a child forked from this process and warmed by
   [warm_child]; return [f]'s result, or the exception it raised as text.
   The caller must not have started worker domains (a forked OCaml
   process keeps only the forking domain). *)
let in_child ?(warm = ignore) (f : unit -> 'a) : ('a, string) Stdlib.result =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    warm_child warm;
    let v : ('a, string) Stdlib.result =
      match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)
    in
    let s = Marshal.to_string v [] in
    (try write_all wr s 0 (String.length s) with Unix.Unix_error _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let v = try Some (Marshal.from_channel ic : ('a, string) Stdlib.result) with End_of_file -> None in
    close_in ic;
    let _, status = Unix.waitpid [] pid in
    (match (v, status) with
    | Some v, Unix.WEXITED 0 -> v
    | _ -> Error "child process died")

(* Words allocated so far by this domain's minor and major heaps. *)
let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words)

(* --- seeded choices ---------------------------------------------------- *)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* --- result ------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* Full-precision numbers: a value is printed with every digit it was
   measured with.  A non-finite value is a benchmark bug and fails the
   run rather than printing invalid JSON. *)
let json_number name v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith (Printf.sprintf "metric %s is not finite" name)

let print_result r =
  let metrics =
    List.map
      (fun mt ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name
          (json_number mt.name mt.value) mt.unit_)
      r.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed (String.concat ", " metrics)

(* --- the end-to-end metric set ---------------------------------------- *)

(* The untraced result: the seven end-to-end metrics over the operations
   that passed their checks.  [min_samples] is each class's guaranteed
   sample count (minimum rounds times its operations per round), which
   fixes the class's tail percentile.  [busy_s] is the timed work. *)
let summarize ~workload ~setup_s ~busy_s ~rss_mb ~min_samples:(heavy_min, light_min) samples =
  let failed = List.filter (fun s -> s.error <> None) samples in
  (match failed with
  | { name; error = Some e; _ } :: _ -> log "%s: %d failed; %s: %s" workload (List.length failed) name e
  | _ -> ());
  log_breakdown samples;
  let cls h = List.filter_map (fun s -> if s.error = None && s.heavy = h then Some s.ms else None) samples in
  let tail min_samples xs = percentile (tail_percentile ~min_samples) xs in
  let attempted = List.length samples and failed = List.length failed in
  {
    correct = failed = 0;
    attempted;
    failed;
    metrics =
      [
        m "setup_s" "s" setup_s;
        m "ops_per_s" "1/s" (float_of_int (attempted - failed) /. busy_s);
        m "heavy_p50_ms" "ms" (median (cls true));
        m "heavy_tail_ms" "ms" (tail heavy_min (cls true));
        m "light_p50_ms" "ms" (median (cls false));
        m "light_tail_ms" "ms" (tail light_min (cls false));
        m "peak_rss_mb" "MB" rss_mb;
      ];
  }

(* Set-up is repeated and its median reported, so one slow fork or
   page-in does not decide the figure.  [sample reps] times [f] [reps]
   times.  A set-up of milliseconds follows the host's load from one
   second to the next (on a 2-vCPU host the median of 40 daemon set-ups
   made back to back read 1.2 ms in one run and 1.7 ms in the next), so
   a workload that can samples again before every round and the median
   is taken over the whole run. *)
let setup_sampler f =
  let times = ref [] in
  let sample reps = for _ = 1 to reps do times := snd (time f) :: !times done in
  (sample, fun () -> median !times)
