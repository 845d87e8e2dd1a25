(** Structural STG transformations. *)

val contract_dummies : ?strict:bool -> Stg.t -> Stg.t
(** Remove silent (dummy) transitions by contraction: a dummy [t] with a
    single input place whose only consumer is [t] and that has a single
    producer is removed, its producer re-connected directly to its output
    places.  Contraction preserves the firing sequences projected on
    signal edges.  A dummy that cannot be contracted safely (involved in
    choice, or a multi-input join whose contraction would duplicate
    tokens) raises [Failure] when [strict] (the default), and is left in
    place otherwise. *)

val rename_signals : Stg.t -> (string -> string) -> Stg.t
(** Apply a renaming function to every signal name, and with it to the
    edge transitions' names ([r12+/2]) and implicit places' names
    ([<r12+,a12+>]), so the result prints as [.g] text that parses back.
    Raises [Invalid_argument] if the renaming is not injective on the
    STG's signals. *)

val set_kind : Stg.t -> string -> Stg.kind -> Stg.t
(** Return an STG where the named signal has the given kind (e.g. hide an
    output by making it internal).  Raises [Not_found]. *)
