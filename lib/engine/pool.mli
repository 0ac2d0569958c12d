(** Dependency-free domain work pool for embarrassingly parallel
    experiment batches (OCaml 5 [Domain] + [Mutex] + [Condition]).

    The pool exists to run many *independent* simulations at once: each
    task must own all of its mutable state ({!Sim}, {!Metrics}, {!Rng},
    {!Causal} instances and everything hanging off them) — see the
    ownership rule documented in those interfaces.  The pool itself
    never shares anything between tasks beyond the immutable inputs the
    caller closes over.

    Determinism: {!map} returns results in input
    order, whatever order tasks finished in, so a parallel sweep is
    bit-identical to its sequential counterpart.  With [jobs = 1] no
    domains are ever spawned and [map] is literally [List.map] — the
    sequential code path stays byte-identical. *)

type t

val create : jobs:int -> t
(** [create ~jobs] is a pool of [jobs] worker domains ([jobs - 1]
    spawned domains; the submitting domain does not execute tasks).
    [jobs = 1] spawns nothing and makes every operation sequential.
    @raise Invalid_argument if [jobs < 1]. *)

val jobs : t -> int
(** Configured parallelism (1 means the pool is a no-op wrapper). *)

val recommended_jobs : ?cap:int -> unit -> int
(** [Domain.recommended_domain_count ()] clamped to [\[1, cap\]] — the
    default for [-j]/[--jobs] flags.  When [cap] is not passed it is the
    [HYBRIDSIM_JOBS_CAP] environment variable if that holds a positive
    integer, 8 otherwise (unset/empty/invalid values fall back to 8). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] applies [f] to every element, possibly in parallel,
    and returns results in input order.  If one or more applications
    raise, the exception of the *lowest-indexed* failing element is
    re-raised on the submitting domain (with its backtrace) after all
    tasks have finished — so a failing map never leaves stray tasks
    running.  The pool is reusable: any number of [map]s may be issued
    sequentially from the owning domain. *)

val shutdown : t -> unit
(** Join all worker domains.  Idempotent; the pool must not be used
    afterwards.  [jobs = 1] pools shut down trivially. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and guarantees
    {!shutdown} on exit, exceptional or not. *)
