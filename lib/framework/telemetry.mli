(** Exportable convergence timelines: a periodic {!Engine.Sampler} feeding
    a metrics file in Prometheus, JSONL or CSV format.

    Snapshots are driven purely by simulated time, so identical seeds
    produce byte-identical export files. *)

type format = Prometheus | Jsonl | Csv

val format_to_string : format -> string

val format_of_path : string -> format
(** By extension: [.prom]/[.txt] → Prometheus, [.csv] → CSV, anything
    else → JSONL. *)

type t

val create : ?interval:Engine.Time.span -> sim:Engine.Sim.t -> path:string -> unit -> t
(** Start sampling [sim]'s registry every [interval] of simulated time.
    Nothing is written until {!finish}. *)

val snapshots : t -> Engine.Metrics.snapshot list
(** Collected so far, oldest first. *)

val close : t -> unit
(** Stop sampling and append the final settled-state snapshot.  The first
    call wins; every later {!close}/{!finish} leaves the snapshot list
    untouched, so double-finish can never duplicate the final snapshot. *)

val closed : t -> bool

val finish : t -> (int, string) result
(** {!close}, then write the file; [Ok n] is the number of snapshots it
    holds.  Filesystem failures are reported as [Error msg] rather than
    raised, and the collected snapshots remain available for a retry.
    Prometheus output contains only the final snapshot (exposition format
    is point-in-time); JSONL and CSV contain the whole timeline. *)

val json_valid : string -> bool
(** The minimal JSON syntax check behind JSONL validation (shared by
    `hybridsim trace --check` for Chrome trace-event output). *)

val validate : format -> string -> (int, string) result
(** Check [text] parses as [format]; [Ok n] is the number of samples
    (Prometheus), lines (JSONL) or rows (CSV) checked. *)

val validate_file : string -> (int, string) result
(** {!validate} on a file's contents, format inferred from its path. *)
