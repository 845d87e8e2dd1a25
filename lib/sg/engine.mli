(** Engine selection between explicit and symbolic reachability.

    [Auto] picks the symbolic engine past a structural concurrency
    estimate (the number of initially marked places, i.e. independent
    tokens) and the explicit engine otherwise; [Explicit]/[Symbolic]
    force the choice.  The two engines are exact with respect to each
    other, so selection is purely a performance decision. *)

type t = Auto | Explicit | Symbolic

val to_string : t -> string
val of_string : string -> t option

val concurrency_estimate : Rtcad_stg.Stg.t -> int
(** Number of initially marked places — a structural lower bound on the
    concurrent tokens whose interleavings the explicit engine must
    enumerate. *)

val auto_token_threshold : int
(** [Auto] selects the symbolic engine at or above this estimate. *)

val select : t -> Rtcad_stg.Stg.t -> [ `Explicit | `Symbolic ]

val build : ?engine:t -> ?max_states:int -> Rtcad_stg.Stg.t -> Sg.t
(** Build an explicit state graph with the selected engine (the symbolic
    path analyses then {!Symbolic.materialize}s — bit-identical output).
    Default engine is [Auto]. *)
