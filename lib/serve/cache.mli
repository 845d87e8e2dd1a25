(** The daemon's content-addressed result cache: {!Rtcad_core.Store} in
    its [serve] namespace.

    Keys ({!Rtcad_core.Store.key}) digest the protocol version, the
    operation, the canonical [.g] text of the specification (the printer
    is round-trip stable, so any whitespace/ordering variant of the same
    spec maps to the same key) and an engine/options fingerprint.
    Values are rendered response payloads; the disk tier records the
    operation as the entry's stage.  Disk entries are
    [dir/<key>.json] in format ["rtcad-serve-cache/2"]; entries of an
    older format fail the header check and are recomputed. *)

type t = Rtcad_core.Store.t

val create :
  ?shards:int -> ?budget:int -> ?capacity:int -> ?dir:string -> unit -> t
(** [shards] (default 8) in-memory LRU shards; [budget] (default 32 MiB
    of cost units, i.e. bytes + compute ms) is split evenly across them.
    [capacity] optionally bounds the entry count as well.  [dir] enables
    the on-disk tier.  See {!Rtcad_core.Store.make}. *)
