(** Deterministic causal span tracing.

    Every scheduled event can carry a span: the interval from the instant
    it was scheduled ([queued_at], the fire time of its causal parent) to
    the instant it fired ([fired_at]).  Because simulated time never
    advances inside an event handler, a child's [queued_at] always equals
    its parent's [fired_at], so the waits along any parent chain telescope
    exactly: walking from a leaf back to its root attributes the full
    end-to-end latency with no gaps and no double counting.

    Span ids are dense sequence numbers in scheduling order and the trace
    id is minted from a dedicated stream derived from the simulation seed
    — never from wall clock, and never by drawing from (or splitting) the
    sim's root RNG, whose draw order existing subsystems depend on.  Same
    seed, same spans, byte-identical exports.

    Domain-safety: a span store is unsynchronized mutable state owned by
    its simulation — one sim, one domain at a time, exactly like {!Rng}
    and {!Metrics}.  {!Pool} sweeps are safe because every task builds its
    own sim and thus its own store. *)

type mode =
  | Disabled  (** no store, no allocation: every hook is a cheap no-op *)
  | Ring of int
      (** bounded flight recorder: retain only the [n] newest spans *)
  | Full  (** retain everything (growable) — for export and analysis *)

type span = {
  id : int;
  parent : int;  (** parent span id, [-1] for a root *)
  category : string;  (** the scheduling category (or annotation kind) *)
  node : string;  (** emitting component, [""] for plain events *)
  label : string;  (** free-form detail (e.g. the prefix), [""] if none *)
  queued_at : Time.t;  (** when the event was scheduled (= parent fire time) *)
  fired_at : Time.t;  (** when it executed; [= queued_at] for markers *)
  closed : bool;  (** false while queued (or cancelled forever) *)
}
(** A snapshot of one stored span, built by the readers below.  The store
    itself keeps four ints per span (see {!max_us}) and renders a label
    only when a span is read. *)

type t

val create : ?mode:mode -> seed:int -> unit -> t
(** Default mode is [Disabled]. *)

val mode : t -> mode

val enabled : t -> bool

val trace_id : t -> int
(** Deterministic per-seed run identifier carried by the exports. *)

val total : t -> int
(** Spans ever opened (eviction-proof). *)

val stored : t -> int
(** Spans currently retained. *)

val spans : t -> span list
(** Retained spans, oldest first. *)

val find : t -> int -> span option
(** [None] for ids that were never issued or have been evicted. *)

val find_last : t -> (span -> bool) -> span option
(** The newest retained span satisfying the predicate. *)

val max_us : int
(** The latest instant a span can record, in microseconds: [2^50 - 1]
    (about 35.7 years of simulated time).  A span stores its queue
    instant in 50 bits beside its category and kind; recording a span
    queued before 0 or after [max_us] raises [Invalid_argument]. *)

(** {1 Interning}

    A span stores its category, node and renderer as small ints.  A
    component resolves its names once, when it is built, and records
    with the ints.  A disabled store interns nothing and returns [0]. *)

val intern_category : t -> string -> int
(** The category's index, for {!on_schedule}.
    @raise Invalid_argument past 1,024 distinct categories. *)

val intern_node : t -> string -> int
(** The node's index, for {!mark}; [""] is [0]. *)

(** {1 Scheduler hooks}

    Called by {!Sim}; exposed so other schedulers can participate.
    Like the instrumentation calls below, they allocate nothing once a
    [Ring n] store holds [n] spans; until then, and in [Full] mode, the
    span array occasionally doubles. *)

val on_schedule : t -> category:int -> queued_at:Time.t -> int
(** Open a span for a freshly scheduled event of an interned category
    ({!intern_category}), parented under the span currently executing
    ([-1] at top level).  Returns the span id, or [-1] when disabled.
    @raise Invalid_argument if [queued_at] is past {!max_us}. *)

val on_execute : t -> int -> fired_at:Time.t -> unit
(** Close the event's span and make it the current parent for anything
    scheduled while its action runs. *)

val current : t -> int

val clear_current : t -> unit

(** {1 Instrumentation} *)

val annotate : t -> category:string -> ?node:string -> ?label:string -> at:Time.t -> unit -> unit
(** Record a zero-length marker span (e.g. a FIB or flow-table write) as a
    child of the current span.  Off the hot path: the node is looked up
    by name, and a non-empty label takes a cell of a side ring that the
    first label allocates. *)

val mark : t -> category:string -> node:int -> render:(int -> string) -> int -> at:Time.t -> unit
(** [mark t ~category ~node ~render arg ~at] is {!annotate} with the node
    [node] (an {!intern_node} index) and the label [render arg], rendered
    only when the span is read — the hot-path marker: [category] should
    be a string literal and [render] a static function, each interned by
    physical equality (a store holds at most 256 renderers), and [arg]
    an immediate (an ASN, a packed prefix, a node id).
    @raise Invalid_argument if [node] was not interned or [at] is past
    {!max_us}. *)

val with_span :
  t -> category:string -> ?node:string -> ?label:string -> at:Time.t -> (unit -> 'a) -> 'a
(** Run [f] under a zero-length container span: children scheduled inside
    [f] are parented under it.  A top-level call roots a new tree.  The
    previous current span is restored when [f] returns or raises. *)

(** {1 Critical path}

    Walking a convergence leaf (the last FIB/flow write of a prefix) back
    to its root yields the critical path; bucketing each hop's wait by
    category attributes the end-to-end latency. *)

type bucket =
  | Propagation  (** link/fabric delivery delay *)
  | Mrai_hold  (** MRAI batching holds *)
  | Session_backoff  (** liveness detection, reconnect backoff *)
  | Recompute  (** controller recomputation batches *)
  | Flow_install  (** switch-side rule installs/removals and timeouts *)
  | Mailbox  (** node mailbox hops and a router inbox's processing delay *)
  | Other

val bucket_to_string : bucket -> string

val path_to_root : t -> span -> span list
(** Oldest (root) first, ending at the given span; stops early if an
    ancestor has been evicted from a ring. *)

type attribution_row = { bucket : bucket; seconds : float; hops : int }

type attribution = {
  rows : attribution_row list;  (** non-empty buckets, largest share first *)
  total_seconds : float;  (** leaf fire time - path-head queue time *)
  depth : int;  (** spans on the path *)
}

val attribute : t -> span -> attribution
(** The rows sum exactly to [total_seconds] (the telescoping property). *)

val convergence_leaf : ?label:string -> t -> span option
(** The newest data-plane write marker ([fib.write], [flow.install] or
    [flow.remove]), optionally restricted to one prefix label — the leaf
    to attribute a convergence measurement against. *)

val pp_attribution : Format.formatter -> attribution -> unit

(** {1 Exporters}

    Both are pure functions of the retained spans: byte-identical for the
    same seed.  Open (cancelled) spans are skipped. *)

val to_chrome : t -> string
(** One-line Chrome trace-event JSON ([{"traceEvents":[...]}], complete
    "X" events, microsecond timestamps), loadable in Perfetto; one thread
    lane per emitting node. *)

val to_jsonl : t -> string
(** One JSON object per span per line. *)

val render_line : span -> string
(** Human-readable one-liner: fire time (us), span and parent ids,
    category, node, label and queueing wait. *)

val flight_lines : t -> string list
(** The retained spans rendered oldest first — the flight-recorder dump
    {!Framework.Chaos} attaches to invariant violations. *)
