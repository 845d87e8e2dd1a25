(* Engine selection: explicit BFS vs symbolic BDD reachability.

   The explicit engine wins on the small, control-dominated STGs the
   synthesis flow mostly sees (thousands of states, cheap per-state
   access); the symbolic engine wins when concurrency makes the state
   count exponential in the specification size — the token-ring family
   and RAPPID-scale datapaths.  [Auto] decides from a structural
   estimate: every initially marked place is an independent token able
   to advance concurrently, so the token count bounds the interleaving
   explosion the explicit engine would have to enumerate. *)

module Bitset = Rtcad_util.Bitset
module Stg = Rtcad_stg.Stg
module Petri = Rtcad_stg.Petri

type t = Auto | Explicit | Symbolic

let to_string = function
  | Auto -> "auto"
  | Explicit -> "explicit"
  | Symbolic -> "symbolic"

let of_string = function
  | "auto" -> Some Auto
  | "explicit" -> Some Explicit
  | "symbolic" -> Some Symbolic
  | _ -> None

let concurrency_estimate stg =
  Bitset.cardinal (Petri.initial_marking (Stg.net stg))

(* Ten concurrent tokens ≈ the ring-10 family, the first member whose
   state space (~400k) outgrows the explicit engine's default bound. *)
let auto_token_threshold = 10

let select engine stg =
  match engine with
  | Explicit -> `Explicit
  | Symbolic -> `Symbolic
  | Auto ->
    if concurrency_estimate stg >= auto_token_threshold then `Symbolic
    else `Explicit

let build ?(engine = Auto) ?max_states stg =
  match select engine stg with
  | `Explicit -> Sg.build ?max_states stg
  | `Symbolic -> Symbolic.materialize ?max_states (Symbolic.analyze stg)
