(* Output checks made apart from the program: closed-form state counts,
   the textbook explorer in [Rtcad_check.Ref_sg], and properties the
   method must have.  Each returns [Ok ()] or [Error reason]. *)

module Stg = Rtcad_stg.Stg
module Stg_io = Rtcad_stg.Stg_io
module Ref_sg = Rtcad_check.Ref_sg
module Netlist = Rtcad_netlist.Netlist
module Gate = Rtcad_netlist.Gate

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)

(* An n-cell token ring holding one token has 2n·3^(n−1) reachable
   states: the token's cell is in one of 2n handshake phases and each of
   the other n−1 cells in one of three. *)
let ring_states n = 2 * n * pow 3 (n - 1)

let expect_states ~what ~expected got =
  if got = expected then Ok ()
  else fail "%s: %d reachable states, expected %d" what got expected

(* Reference explorations are memoised by canonical text: a corpus spec
   recurs every round and its reference never changes. *)
let ref_memo : (string, Ref_sg.summary) Hashtbl.t = Hashtbl.create 16

let reference stg =
  let key = Stg_io.to_string stg in
  match Hashtbl.find_opt ref_memo key with
  | Some s -> Ok s
  | None -> (
    match Ref_sg.explore stg with
    | Ref_sg.Summary s ->
      Hashtbl.add ref_memo key s;
      Ok s
    | r -> fail "reference explorer: %s" (Format.asprintf "%a" Ref_sg.pp_result r))

(* The spec's implied next value of every signal in every state the
   reference explorer enumerates, as a table from code to the implied
   next code.  A signal is excited in a code when some edge out of it
   flips that signal's bit. *)
let implied_next (s : Ref_sg.summary) =
  let tbl = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace tbl c (Bytes.of_string c)) s.Ref_sg.codes;
  List.iter
    (fun e ->
      match String.split_on_char ' ' e with
      | [ src; _; dst ] ->
        let next = Hashtbl.find tbl src in
        String.iteri (fun i ch -> if ch <> src.[i] then Bytes.set next i ch) dst
      | _ -> invalid_arg ("edge fingerprint " ^ e))
    s.Ref_sg.edges;
  tbl

(* Evaluate the netlist's next value of every signal net in the state
   given by [code]: signal nets hold the code, internal nets are computed
   from their drivers. *)
let netlist_next stg nl code =
  let nsig = Stg.num_signals stg in
  let sig_of_net = Hashtbl.create 16 in
  for u = 0 to nsig - 1 do
    match Netlist.find_net nl (Stg.signal_name stg u) with
    | net -> Hashtbl.replace sig_of_net net u
    | exception Not_found -> ()
  done;
  let memo = Hashtbl.create 16 in
  let rec value net =
    match Hashtbl.find_opt sig_of_net net with
    | Some u -> code.[u] = '1'
    | None -> (
      match Hashtbl.find_opt memo net with
      | Some v -> v
      | None ->
        let v =
          match Netlist.driver nl net with
          | None -> Netlist.initial_value nl net
          | Some (g, ins) ->
            Gate.eval g ~current:(Netlist.initial_value nl net)
              (List.map (fun (n, neg) -> value n <> neg) ins)
        in
        Hashtbl.replace memo net v;
        v)
  in
  String.init nsig (fun u ->
      match Netlist.find_net nl (Stg.signal_name stg u) with
      | exception Not_found -> code.[u]
      | net -> (
        match Netlist.driver nl net with
        | None -> code.[u]
        | Some (g, ins) ->
          if
            Gate.eval g ~current:(code.[u] = '1')
              (List.map (fun (n, neg) -> value n <> neg) ins)
          then '1'
          else '0'))

(* On every reachable state of the encoded specification, each non-input
   signal's gate computes the value the specification implies. *)
let si_next_state stg nl (s : Ref_sg.summary) =
  let implied = implied_next s in
  let bad = ref None in
  Hashtbl.iter
    (fun code next ->
      if !bad = None then begin
        let got = netlist_next stg nl code in
        List.iter
          (fun u ->
            if !bad = None && got.[u] <> Bytes.get next u then
              bad :=
                Some
                  (Printf.sprintf "signal %s in state %s: netlist gives %c, spec implies %c"
                     (Stg.signal_name stg u) code got.[u] (Bytes.get next u)))
          (Stg.non_input_signals stg)
      end)
    implied;
  match !bad with None -> Ok () | Some msg -> Error msg

let all checks =
  List.fold_left
    (fun acc c -> match acc with Error _ -> acc | Ok () -> c ())
    (Ok ()) checks
