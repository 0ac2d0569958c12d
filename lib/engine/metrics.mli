(** Label-aware metrics registry: counters and gauges, snapshot-able at
    any simulated instant.

    One registry per simulation (see {!Sim.metrics}).  Label sets are
    canonicalized (sorted by key) at registration and snapshots are
    sorted by the rendered series [name{k="v",...}], so identical seeds
    yield byte-identical exports.  Registration is idempotent: the same
    (name, labels) pair always returns the same handle.  A re-lookup
    hashes and compares the name and labels; it formats nothing.

    Domain-safety: registries are deliberately unsynchronized — there is
    no process-global registry precisely so parallel sweeps ({!Pool})
    can give every run its own.  The ownership rule: one registry
    belongs to one sim, and one sim to one domain at a time.  Passing a
    registry (or handles minted from it) to another domain while the
    owning sim still runs is a data race.  {!snapshot}s, by contrast,
    are immutable and safe to move across domains — that is how sweep
    results carry telemetry back to the submitting domain. *)

type t

type labels = (string * string) list

val create : unit -> t

val on_collect : t -> (unit -> unit) -> unit
(** Register a callback run at the start of every {!snapshot} — the place
    to sync pull-style gauges (RIB sizes, table occupancy) from their
    owners. *)

(** Monotonically increasing integer count. *)
module Counter : sig
  type t

  val inc : t -> unit

  val add : t -> int -> unit
  (** @raise Invalid_argument on negative increments. *)

  val value : t -> int
end

(** Arbitrary instantaneous float value. *)
module Gauge : sig
  type t

  val set : t -> float -> unit

  val add : t -> float -> unit

  val value : t -> float
end

val counter : t -> ?help:string -> ?labels:labels -> string -> Counter.t
(** Find-or-create.
    @raise Invalid_argument if the series exists with a different kind. *)

val gauge : t -> ?help:string -> ?labels:labels -> string -> Gauge.t

type 'a shared
(** Handles that every user of a registry shares, such as unlabeled
    series bumped by many per-peer instances. *)

val shared : (t -> 'a) -> 'a shared
(** Declare a shared value (once, at module initialization); the
    function builds it for one registry. *)

val get_shared : t -> 'a shared -> 'a
(** The registry's value: built on the first call, the same value
    afterwards, so the series it registers are looked up once per
    registry. *)

(** {1 Snapshots} *)

type value = Counter_v of int | Gauge_v of float

type sample = { name : string; help : string; labels : labels; value : value }

type snapshot = { at : Time.t; samples : sample list }

val snapshot : t -> at:Time.t -> snapshot
(** Run the collect callbacks, then freeze every series.  The result is
    immutable: later registry mutation never alters an earlier snapshot. *)

val find_sample : snapshot -> ?labels:labels -> string -> sample option

val value : snapshot -> ?labels:labels -> string -> float option
(** Scalar view: counters as floats, gauges as-is. *)

(** {1 Exporters} *)

val to_prometheus : snapshot -> string
(** Prometheus text exposition format ([# HELP]/[# TYPE] per family).
    Label values escape backslash, double quote and newline; every
    other byte is written raw. *)

val to_jsonl : snapshot -> string
(** One JSON object per sample, one per line, each stamped with the
    snapshot's simulated time ([t_us]) — append snapshots taken at
    increasing instants to build a timeline. *)

val csv_header : string

val to_csv : ?header:bool -> snapshot -> string
(** [t_us,metric,labels,type,value] rows. *)

(** {1 Parsing} *)

type parsed_sample = { p_name : string; p_labels : labels; p_value : float }

val parse_prometheus : string -> (parsed_sample list, string) result
(** Parse Prometheus exposition text (as emitted by {!to_prometheus}):
    comments are skipped, samples are returned in file order. *)
