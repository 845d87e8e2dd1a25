(** Content-addressed two-tier store.

    One implementation serves two callers, each through a fixed
    {!namespace}: the daemon's response cache ({!serve}, bound as
    [Rtcad_serve.Cache]) and the staged flow's artifact store ({!flow},
    {!create}).

    {2 Memory tier}

    The in-memory tier is split into [shards] independent LRU shards
    keyed by the hash prefix of the key (md5 keys distribute uniformly),
    so eviction scans stay short and per-shard retained costs are
    observable.  Eviction is by {e retained cost}: an entry costs
    [bytes(payload) + ceil(compute_ms)], and each shard holds an even
    split of [budget].  Inserting beyond the budget evicts
    least-recently-used entries until the shard fits again (the entry
    just inserted is never its own victim, so a single oversized entry
    still caches).  An optional [capacity] also bounds the entry count.

    {2 Disk tier}

    With [dir], every store also writes [dir/<key><ext>] as
    [<magic> <stage> <md5(payload)>\n<payload>], through a temp file and
    an atomic rename (safe against concurrent writers), and a memory miss
    falls through to it, re-promoting into memory at byte cost.  An entry
    whose header or checksum does not verify — a flipped byte, a
    truncated write, a foreign file, an older format — is counted,
    removed and reported as a miss, so corruption can only ever cost a
    recompute, never a wrong result.

    Counters are mirrored into {!Rtcad_obs.Obs} (when enabled) under the
    namespace prefix ([serve.cache.*] or [flow.cache.*]):
    [hit]/[disk_hit]/[miss]/[store]/[evict]/[corrupt], plus gauges
    [entries], [retained_bytes], [retained_ms] and per-shard
    [shard<i>.{entries,bytes,ms,evictions}]. *)

type namespace
(** The fixed per-caller constants: disk magic, file extension, obs
    prefix, default shards and budget. *)

val flow : namespace
(** ["rtcad-flow-cache/1"], [.art] files, [flow.cache.*]; 4 shards,
    64 MiB. *)

val serve : namespace
(** ["rtcad-serve-cache/2"], [.json] files, [serve.cache.*]; 8 shards,
    32 MiB. *)

val magic : string
(** Disk magic of the {!flow} namespace, ["rtcad-flow-cache/1"]; it is
    also a part of every flow stage key. *)

type t

val make :
  namespace -> ?shards:int -> ?budget:int -> ?capacity:int -> ?dir:string -> unit -> t
(** A store in the given namespace ([shards] and [budget] default to the
    namespace's; [capacity] is unset by default — cost is the bound).
    The directory is created if missing.  Raises [Sys_error] if it cannot
    be, [Invalid_argument] on non-positive [shards], [budget] or
    [capacity]. *)

val create : ?shards:int -> ?budget:int -> ?dir:string -> unit -> t
(** [make flow]. *)

val key : string list -> string
(** Content key of a part list: hex md5 over the length-prefixed
    concatenation (order-sensitive, injective over the list structure). *)

val find : t -> string -> string option
(** Memory first, then disk (a disk hit is promoted into memory). *)

val store : ?cost_ms:float -> stage:string -> t -> string -> string -> unit
(** [store ~stage t key payload] inserts (or refreshes) the entry in
    memory, evicting over budget, and best-effort persists it to disk.
    [stage] (no spaces) is recorded in the disk header for attribution;
    [cost_ms] (default 0) weights the in-memory eviction cost. *)

type shard_stats = {
  sh_entries : int;
  sh_bytes : int;  (** retained payload bytes *)
  sh_ms : float;  (** retained recorded compute milliseconds *)
  sh_evictions : int;
}

type stats = {
  hits : int;  (** memory + disk *)
  disk_hits : int;
  misses : int;
  stores : int;
  evictions : int;  (** memory evictions, all shards (disk entries persist) *)
  corrupt : int;  (** disk entries rejected by checksum *)
  entries : int;  (** in-memory, all shards *)
  retained_bytes : int;
  retained_ms : float;
  shards : shard_stats list;  (** per-shard breakdown, in shard order *)
}

val stats : t -> stats

(** {2 Directory operations}

    The [rtsyn cache] subcommand works on a store directory without a
    live store.  All three scan the directory, removing entries that
    fail their checksum and temp files abandoned by crashed writers
    (older than an hour). *)

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

val ls : namespace -> dir:string -> disk_entry list
(** Entries sorted by (stage, key). *)

val disk_stats : namespace -> dir:string -> disk_stats

val gc : namespace -> dir:string -> budget:int -> int * int
(** Remove oldest entries (mtime, then key) until total bytes fit the
    budget.  Returns (entries removed, bytes remaining). *)
