(** Deterministic domain-parallel execution.

    A fixed pool of worker domains sized from
    [Domain.recommended_domain_count] (overridable with [RTCAD_JOBS] or
    {!set_jobs}) runs chunked fan-out/fan-in loops whose results are
    {b bit-identical} to a serial run:

    - {!map_list} / {!map_array} preserve input order by writing each
      result into its input's slot, so reductions over the output see
      the serial order regardless of which domain computed what;
    - if several inputs raise, the exception of the {e lowest-indexed}
      input is re-raised after the join — exactly the exception a serial
      left-to-right loop would have surfaced;
    - a region started from inside another parallel region (or from a
      worker domain) degrades to a serial loop, so nested calls such as
      a CSC search inside a parallel fuzz case neither deadlock nor
      oversubscribe the machine.

    The pool is created lazily on first use and resized when the job
    count changes; with one job every entry point is a plain loop with
    no pool, no atomics and no synchronization. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val jobs : unit -> int
(** Effective parallelism: the {!set_jobs} override if any, else a
    positive [RTCAD_JOBS] environment variable, else {!recommended}.
    Raises [Invalid_argument] if [RTCAD_JOBS] is set non-empty but is
    not a positive integer. *)

val set_jobs : int -> unit
(** Override the job count (e.g. from a [--jobs] flag).  Takes
    precedence over [RTCAD_JOBS].  Raises [Invalid_argument] if the
    argument is not positive. *)

val in_parallel_region : unit -> bool
(** True on a domain currently executing inside a parallel region —
    where every [Par] entry point runs serially. *)

val worker_index : unit -> int
(** Worker identity of the calling domain inside a {!run_workers} region:
    0 for the initiating domain (and outside any region), [i] for pool
    worker [i].  [Rtcad_obs] keys its per-worker metric stores on this
    index so that merged metrics depend only on the participant count,
    never on which domain ran which chunk. *)

val run_workers : (index:int -> count:int -> unit) -> unit
(** [run_workers f] runs [f ~index ~count] concurrently on [count]
    participants ([count = jobs ()], the caller being participant 0),
    returning after all have finished.  If any participant raises, one
    of the exceptions (unspecified which) is re-raised after the join —
    callers needing deterministic failures must catch inside [f].
    Serial fallback: a single call [f ~index:0 ~count:1]. *)

val parallel_for : ?chunk:int -> int -> (int -> unit) -> unit
(** [parallel_for n f] runs [f i] for [0 <= i < n], claiming chunks of
    indices atomically.  Exception propagation is as in {!run_workers}
    (nondeterministic under parallelism): prefer {!map_array} when a
    deterministic failure matters. *)

val map_array : ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel map: [map_array f a] equals
    [Array.map f a], including which exception escapes (the one raised
    by the lowest-indexed failing element). *)

val mapi_array : ?chunk:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** [Array.mapi f a] with the {!map_array} guarantees: each slot sees
    its own index, results land in input order and the lowest-indexed
    exception wins.  The RAPPID decoder farm fans its shards out with
    this — the index is the shard number, so a worker-index-ordered
    merge of the output array is the serial merge. *)

val map_list : ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** [List.map f l], parallelised with the {!map_array} guarantees. *)

val try_map_list : ?chunk:int -> ('a -> 'b) -> 'a list -> ('b, exn) result list
(** {!map_list} with per-element fault isolation: an element whose [f]
    raises yields [Error exn] in its slot instead of poisoning the whole
    batch.  Long-lived callers (the synthesis server) use this so one
    failing request cannot take down the others dispatched with it. *)

val shutdown : unit -> unit
(** Join and discard the worker pool (tests; harmless if no pool). *)
