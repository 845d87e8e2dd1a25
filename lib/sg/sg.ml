module Bitset = Rtcad_util.Bitset
module Vec = Rtcad_util.Vec
module Stg = Rtcad_stg.Stg
module Petri = Rtcad_stg.Petri
module Obs = Rtcad_obs.Obs

(* Open-addressed map from marking to state id: slots hold [id + 1]
   (0 = empty) and keys are read back from the state vector, so the
   table itself is a bare int array — no buckets, no boxed bindings. *)
type marking_tbl = { mutable slots : int array; mutable used : int }

(* Start small: the CSC search builds thousands of tiny graphs, where a
   large initial table would dominate the build time; doubling reaches
   any size with amortized-constant cost. *)
let mt_create () = { slots = Array.make 64 0; used = 0 }

(* Probe loops live at top level: a local [let rec] would allocate its
   closure on every lookup, i.e. once per explored edge. *)
let rec mt_probe slots mask get m i =
  let v = Array.unsafe_get slots i in
  if v = 0 then -1
  else if Bitset.equal (get (v - 1)) m then v - 1
  else mt_probe slots mask get m ((i + 1) land mask)

let mt_find tbl ~get m =
  let mask = Array.length tbl.slots - 1 in
  mt_probe tbl.slots mask get m (Bitset.hash m land mask)

let rec mt_place slots mask v i =
  if Array.unsafe_get slots i = 0 then Array.unsafe_set slots i v
  else mt_place slots mask v ((i + 1) land mask)

(* [m] (= [get id]) must not already be present. *)
let mt_add tbl ~get id m =
  let mask = Array.length tbl.slots - 1 in
  mt_place tbl.slots mask (id + 1) (Bitset.hash m land mask);
  tbl.used <- tbl.used + 1;
  if 2 * tbl.used > Array.length tbl.slots then begin
    let old = tbl.slots in
    tbl.slots <- Array.make (2 * Array.length old) 0;
    let mask' = Array.length tbl.slots - 1 in
    Array.iter
      (fun v ->
        if v <> 0 then
          mt_place tbl.slots mask' v (Bitset.hash (get (v - 1)) land mask'))
      old
  end

(* Edges are stored in one flat CSR-style array per direction:
   [succ_dat] interleaves (transition, target) pairs for state [s] between
   [succ_off.(s)] and [succ_off.(s + 1)], in the same order the old list
   representation exposed them ([pred_dat]/[pred_off] likewise with
   (transition, source) pairs).  The list-returning accessors materialize
   on demand; the [iter_/num_] variants walk the packed arrays directly. *)
type t = {
  stg : Stg.t;
  markings : Bitset.t array;
  codes : Bitset.t array;
  succ_off : int array;
  succ_dat : int array;
  edges : int Vec.t; (* raw (source, transition, target) triples *)
  mutable preds : (int array * int array) option;
      (* (off, dat), packed on first use: nothing on the hot paths reads
         predecessor edges, so candidate graphs never pay for them *)
  initial : int;
  by_marking : marking_tbl;
}

exception Inconsistent of string
exception Too_large of int

let rec initial_code_from stg n i code =
  if i >= n then code
  else
    initial_code_from stg n (i + 1)
      (if Stg.initial_value stg i then Bitset.add code i else code)

let initial_code stg =
  let n = Stg.num_signals stg in
  initial_code_from stg n 0 (Bitset.create n)

(* Plain concatenation, not [Format.asprintf]: the CSC search probes
   thousands of candidate insertions whose builds fail here, and the
   formatting machinery would dominate those failure paths.  The message
   matches what [pp_transition] would have produced for an edge label. *)
let inconsistent_msg stg signal dir how =
  let n = Stg.signal_name stg signal in
  n ^ (match dir with Stg.Rise -> "+" | Stg.Fall -> "-") ^ " fires with " ^ n ^ how

(* Direction check of [apply_label] alone: raises if transition [t] fires
   against the current value of its signal in [code]. *)
let check_label stg code t =
  match Stg.label stg t with
  | Stg.Dummy -> ()
  | Stg.Edge { signal; dir } ->
    let v = Bitset.mem code signal in
    (match dir with
    | Stg.Rise ->
      if v then raise (Inconsistent (inconsistent_msg stg signal dir " already high"))
    | Stg.Fall ->
      if not v then raise (Inconsistent (inconsistent_msg stg signal dir " already low")))

let apply_label stg code t =
  check_label stg code t;
  match Stg.label stg t with
  | Stg.Dummy -> code
  | Stg.Edge { signal; dir } ->
    (match dir with
    | Stg.Rise -> Bitset.add code signal
    | Stg.Fall -> Bitset.remove code signal)

(* Does [code] followed by transition [t] land exactly on [code']?  The
   successor code is one bit-flip away (or identical, for dummies), so no
   intermediate set needs allocating. *)
let code_matches stg code t code' =
  match Stg.label stg t with
  | Stg.Dummy -> Bitset.equal code' code
  | Stg.Edge { signal; _ } -> Bitset.equal_flip code' code signal

(* Pack an edge triple vector (stride 3: a, t, b) into a flat CSR pair
   ([off], [dat]) of per-[a] interleaved (t, b) runs, preserving edge
   order, via counting sort. *)
let pack_edges ~n ~key ~value edges =
  let ne = Vec.length edges / 3 in
  let off = Array.make (n + 1) 0 in
  for e = 0 to ne - 1 do
    let k = key (Vec.get edges (3 * e)) (Vec.get edges ((3 * e) + 2)) in
    off.(k + 1) <- off.(k + 1) + 2
  done;
  for k = 0 to n - 1 do
    off.(k + 1) <- off.(k + 1) + off.(k)
  done;
  let dat = Array.make (2 * ne) 0 in
  let cursor = Array.copy off in
  for e = 0 to ne - 1 do
    let a = Vec.get edges (3 * e)
    and t = Vec.get edges ((3 * e) + 1)
    and b = Vec.get edges ((3 * e) + 2) in
    let k = key a b in
    let c = cursor.(k) in
    dat.(c) <- t;
    dat.(c + 1) <- value a b;
    cursor.(k) <- c + 2
  done;
  (off, dat)

let build ?(max_states = 200_000) stg =
  Obs.span "sg.build" @@ fun () ->
  let net = Stg.net stg in
  let by_marking = mt_create () in
  let empty = Bitset.create 0 in
  let markings = Vec.create ~capacity:32 ~dummy:empty () in
  let codes = Vec.create ~capacity:32 ~dummy:empty () in
  let get id = Vec.get markings id in
  let add marking code =
    let id = Vec.length markings in
    Vec.push markings marking;
    Vec.push codes code;
    mt_add by_marking ~get id marking;
    id
  in
  let m0 = Petri.initial_marking net in
  let c0 = initial_code stg in
  let s0 = add m0 c0 in
  let edges = Vec.create ~capacity:64 ~dummy:0 () in
  (* States are discovered in BFS order and numbered densely, so a cursor
     over the state vector doubles as the BFS frontier. *)
  let cursor = ref 0 in
  while !cursor < Vec.length markings do
    let s = !cursor in
    incr cursor;
    let m = Vec.get markings s and c = Vec.get codes s in
    Petri.iter_enabled net m (fun t ->
        let m' = Petri.fire net m t in
        check_label stg c t;
        let s' =
          match mt_find by_marking ~get m' with
          | -1 ->
            if Vec.length markings >= max_states then raise (Too_large max_states);
            add m' (apply_label stg c t)
          | s' ->
            if not (code_matches stg c t (Vec.get codes s')) then
              raise (Inconsistent "same marking reached with two different codes");
            s'
        in
        Vec.push edges s;
        Vec.push edges t;
        Vec.push edges s')
  done;
  let n = Vec.length markings in
  (* Post-loop deltas only: the exploration loop stays untouched. *)
  Obs.incr "sg.builds";
  Obs.incr ~by:n "sg.states";
  Obs.incr ~by:(Vec.length edges / 3) "sg.edges";
  let succ_off, succ_dat = pack_edges ~n ~key:(fun s _ -> s) ~value:(fun _ s' -> s') edges in
  {
    stg;
    markings = Vec.to_array markings;
    codes = Vec.to_array codes;
    succ_off;
    succ_dat;
    edges;
    preds = None;
    initial = s0;
    by_marking;
  }

(* Package a finished exploration that is already in canonical serial-BFS
   order (state 0 = initial, successors discovered in per-state
   [Petri.iter_enabled] order).  Used by [Symbolic.materialize], which
   replays the serial BFS against the symbolic reachable set: reusing the
   exact packing code here is what makes its output bit-identical to
   [build]. *)
let of_exploration ~stg ~markings ~codes ~edges =
  let n = Array.length markings in
  let succ_off, succ_dat =
    pack_edges ~n ~key:(fun s _ -> s) ~value:(fun _ s' -> s') edges
  in
  let by_marking = mt_create () in
  Array.iteri
    (fun i m -> mt_add by_marking ~get:(fun id -> markings.(id)) i m)
    markings;
  { stg; markings; codes; succ_off; succ_dat; edges; preds = None; initial = 0; by_marking }

let stg sg = sg.stg
let num_states sg = Array.length sg.markings
let initial sg = sg.initial
let marking sg s = sg.markings.(s)
let code sg s = sg.codes.(s)
let value sg s signal = Bitset.mem sg.codes.(s) signal

let num_succs sg s = (sg.succ_off.(s + 1) - sg.succ_off.(s)) / 2

let force_preds sg =
  match sg.preds with
  | Some p -> p
  | None ->
    let p =
      pack_edges ~n:(num_states sg) ~key:(fun _ s' -> s') ~value:(fun s _ -> s) sg.edges
    in
    sg.preds <- Some p;
    p

let num_preds sg s =
  let off, _ = force_preds sg in
  (off.(s + 1) - off.(s)) / 2

let rec pairs_of_packed dat lo k acc =
  if k < lo then acc
  else pairs_of_packed dat lo (k - 2) ((dat.(k), dat.(k + 1)) :: acc)

let succs sg s = pairs_of_packed sg.succ_dat sg.succ_off.(s) (sg.succ_off.(s + 1) - 2) []

let preds sg s =
  let off, dat = force_preds sg in
  pairs_of_packed dat off.(s) (off.(s + 1) - 2) []

let iter_packed f dat lo hi =
  let k = ref lo in
  while !k < hi do
    f (Array.unsafe_get dat !k) (Array.unsafe_get dat (!k + 1));
    k := !k + 2
  done

let iter_succs sg s f = iter_packed f sg.succ_dat sg.succ_off.(s) sg.succ_off.(s + 1)

let iter_preds sg s f =
  let off, dat = force_preds sg in
  iter_packed f dat off.(s) off.(s + 1)

let rec transitions_of_packed dat lo k acc =
  if k < lo then acc else transitions_of_packed dat lo (k - 2) (dat.(k) :: acc)

let enabled sg s =
  transitions_of_packed sg.succ_dat sg.succ_off.(s) (sg.succ_off.(s + 1) - 2) []

let rec excited_from stg dat k hi signal =
  k < hi
  && ((match Stg.label stg dat.(k) with
      | Stg.Edge { signal = u; _ } -> u = signal
      | Stg.Dummy -> false)
     || excited_from stg dat (k + 2) hi signal)

let excited sg s signal =
  excited_from sg.stg sg.succ_dat sg.succ_off.(s) sg.succ_off.(s + 1) signal

let next_value sg s signal = value sg s signal <> excited sg s signal

let find_state sg m =
  match mt_find sg.by_marking ~get:(fun id -> sg.markings.(id)) m with
  | -1 -> None
  | s -> Some s

let deadlocks sg =
  List.filter (fun s -> num_succs sg s = 0) (List.init (num_states sg) Fun.id)

let iter_states f sg =
  for s = 0 to num_states sg - 1 do
    f s
  done

let restrict sg ~allowed =
  let n = num_states sg in
  let renum = Array.make n (-1) in
  let order = ref [] in
  let count = ref 0 in
  let queue = Queue.create () in
  renum.(sg.initial) <- 0;
  order := [ sg.initial ];
  count := 1;
  Queue.add sg.initial queue;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    iter_succs sg s (fun t s' ->
        if allowed s t && renum.(s') = -1 then begin
          renum.(s') <- !count;
          incr count;
          order := s' :: !order;
          Queue.add s' queue
        end)
  done;
  let old_of_new = Array.make !count 0 in
  List.iter (fun old -> old_of_new.(renum.(old)) <- old) !order;
  let markings = Array.map (fun old -> sg.markings.(old)) old_of_new in
  let codes = Array.map (fun old -> sg.codes.(old)) old_of_new in
  (* The edge vector records (source, transition, target) in the same
     order the old list-based code produced: per source in ascending new
     index, edges reversed relative to the original succ order. *)
  let edges = Vec.create ~dummy:0 () in
  Array.iteri
    (fun snew old ->
      let dat = sg.succ_dat and lo = sg.succ_off.(old) in
      let k = ref (sg.succ_off.(old + 1) - 2) in
      while !k >= lo do
        let t = dat.(!k) and s' = dat.(!k + 1) in
        if allowed old t && renum.(s') >= 0 then begin
          Vec.push edges snew;
          Vec.push edges t;
          Vec.push edges renum.(s')
        end;
        k := !k - 2
      done)
    old_of_new;
  let succ_off, succ_dat = pack_edges ~n:!count ~key:(fun s _ -> s) ~value:(fun _ s' -> s') edges in
  let by_marking = mt_create () in
  Array.iteri (fun i m -> mt_add by_marking ~get:(fun id -> markings.(id)) i m) markings;
  { stg = sg.stg; markings; codes; succ_off; succ_dat; edges; preds = None; initial = 0; by_marking }

let pp_state sg ppf s =
  for i = 0 to Stg.num_signals sg.stg - 1 do
    Format.fprintf ppf "%d" (if value sg s i then 1 else 0)
  done

let pp ppf sg =
  Format.fprintf ppf "@[<v>state graph: %d states@," (num_states sg);
  iter_states
    (fun s ->
      Format.fprintf ppf "  s%d [%a]:" s (pp_state sg) s;
      List.iter
        (fun (t, s') ->
          Format.fprintf ppf " %a->s%d" (Stg.pp_transition sg.stg) t s')
        (succs sg s);
      Format.fprintf ppf "@,")
    sg;
  Format.fprintf ppf "@]"
