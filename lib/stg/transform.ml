module Bitset = Rtcad_util.Bitset

(* Contract one dummy transition [t].  Preconditions checked by the caller:
   every p in pre(t) has t as only consumer and exactly one producer.  The
   contraction removes t and its input places; every producer of an input
   place gains arcs into every output place of t.  If an input place is
   marked, the output places become marked. *)
let contract_one stg t =
  let net = Stg.net stg in
  let np = Petri.num_places net and nt = Petri.num_transitions net in
  let pre_t = Petri.pre net t and post_t = Petri.post net t in
  let removed_places = pre_t in
  let keep_place p = not (List.mem p removed_places) in
  let marked_input = List.exists (fun p -> Bitset.mem (Petri.initial_marking net) p) pre_t in
  (* Old -> new place index map. *)
  let place_map = Array.make np (-1) in
  let new_place_names = ref [] in
  let n_new = ref 0 in
  for p = 0 to np - 1 do
    if keep_place p then begin
      place_map.(p) <- !n_new;
      incr n_new;
      new_place_names := Petri.place_name net p :: !new_place_names
    end
  done;
  let trans_map = Array.make nt (-1) in
  let new_trans = ref [] in
  let n_t = ref 0 in
  for tr = 0 to nt - 1 do
    if tr <> t then begin
      trans_map.(tr) <- !n_t;
      incr n_t;
      new_trans := tr :: !new_trans
    end
  done;
  let old_trans = Array.of_list (List.rev !new_trans) in
  let producers_of_pre =
    List.concat_map (fun p -> Petri.producers net p) pre_t
  in
  let pre = Array.make !n_t [] and post = Array.make !n_t [] in
  Array.iteri
    (fun ti old ->
      pre.(ti) <-
        List.filter_map
          (fun p -> if keep_place p then Some place_map.(p) else None)
          (Petri.pre net old);
      let base_post =
        List.filter_map
          (fun p -> if keep_place p then Some place_map.(p) else None)
          (Petri.post net old)
      in
      let extra =
        if List.mem old producers_of_pre then List.map (fun q -> place_map.(q)) post_t
        else []
      in
      post.(ti) <- List.sort_uniq Int.compare (extra @ base_post))
    old_trans;
  let initial =
    List.filter_map
      (fun p -> if keep_place p then Some place_map.(p) else None)
      (Bitset.elements (Petri.initial_marking net))
  in
  let initial =
    if marked_input then
      List.sort_uniq Int.compare (List.map (fun q -> place_map.(q)) post_t @ initial)
    else initial
  in
  let net' =
    Petri.make
      ~place_names:(Array.of_list (List.rev !new_place_names))
      ~transition_names:(Array.map (Petri.transition_name net) old_trans)
      ~pre ~post ~initial
  in
  let labels = Array.map (Stg.label stg) old_trans in
  Stg.make ~net:net' ~labels
    ~signal_names:(Array.init (Stg.num_signals stg) (Stg.signal_name stg))
    ~kinds:(Array.init (Stg.num_signals stg) (Stg.kind stg))
    ~initial_values:(Array.init (Stg.num_signals stg) (Stg.initial_value stg))

(* Only dummies with a single input place can be contracted this way: a
   join dummy (several input places) cannot — rewiring each producer to
   every output place would turn the AND-join into duplicated tokens. *)
let contractible stg t =
  let net = Stg.net stg in
  match Petri.pre net t with
  | [ p ] -> Petri.consumers net p = [ t ] && List.length (Petri.producers net p) = 1
  | [] | _ :: _ :: _ -> false

let find_dummy_from stg start =
  let net = Stg.net stg in
  let rec go t =
    if t >= Petri.num_transitions net then None
    else
      match Stg.label stg t with Stg.Dummy -> Some t | Stg.Edge _ -> go (t + 1)
  in
  go start

let contract_dummies ?(strict = true) stg =
  (* [skip] counts leading dummies to leave in place in lenient mode. *)
  let rec go stg skip =
    match find_dummy_from stg skip with
    | None -> stg
    | Some t ->
      if contractible stg t then go (contract_one stg t) skip
      else if strict then
        failwith
          (Printf.sprintf
             "Transform.contract_dummies: dummy %s involved in choice or merge"
             (Petri.transition_name (Stg.net stg) t))
      else go stg (t + 1)
  in
  go stg 0

(* Transition names carry their signal ("r12+", "r12+/2") and implicit
   place names their two transitions ("<r12+,a12+>"); both follow the
   signals, or the printed [.g] text would name edges of signals it no
   longer declares. *)
let rename_signals stg f =
  let n = Stg.num_signals stg in
  let names = Array.init n (fun i -> f (Stg.signal_name stg i)) in
  let seen = Hashtbl.create n in
  Array.iter
    (fun name ->
      if Hashtbl.mem seen name then invalid_arg "Transform.rename_signals: not injective";
      Hashtbl.add seen name ())
    names;
  let net = Stg.net stg in
  let nt = Petri.num_transitions net in
  let tname t =
    let old = Petri.transition_name net t in
    match Stg.label stg t with
    | Stg.Dummy -> old
    | Stg.Edge { signal; _ } ->
      let s = Stg.signal_name stg signal in
      let k = String.length s in
      if String.length old > k && String.starts_with ~prefix:s old
         && (old.[k] = '+' || old.[k] = '-')
      then names.(signal) ^ String.sub old k (String.length old - k)
      else old
  in
  let transition_names = Array.init nt tname in
  let place_name p =
    let old = Petri.place_name net p in
    match (Petri.producers net p, Petri.consumers net p) with
    | [ a ], [ b ] when String.length old > 0 && old.[0] = '<' ->
      Printf.sprintf "<%s,%s>" transition_names.(a) transition_names.(b)
    | _ -> old
  in
  let net' =
    Petri.make
      ~place_names:(Array.init (Petri.num_places net) place_name)
      ~transition_names
      ~pre:(Array.init nt (Petri.pre net))
      ~post:(Array.init nt (Petri.post net))
      ~initial:(Bitset.elements (Petri.initial_marking net))
  in
  Stg.make ~net:net'
    ~labels:(Array.init nt (Stg.label stg))
    ~signal_names:names
    ~kinds:(Array.init n (Stg.kind stg))
    ~initial_values:(Array.init n (Stg.initial_value stg))

let set_kind stg name kind =
  let s = Stg.signal_index stg name in
  let n = Stg.num_signals stg in
  Stg.make ~net:(Stg.net stg)
    ~labels:(Array.init (Petri.num_transitions (Stg.net stg)) (Stg.label stg))
    ~signal_names:(Array.init n (Stg.signal_name stg))
    ~kinds:(Array.init n (fun i -> if i = s then kind else Stg.kind stg i))
    ~initial_values:(Array.init n (Stg.initial_value stg))
