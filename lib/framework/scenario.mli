(** Declarative timed experiment scenarios, runnable from code or from the
    text format `hybridsim scenario` replays.  This is the one vocabulary
    for timed network events: chaos faults and churn trains are steps
    too, and {!apply} is the only place an action touches the network. *)

type action =
  | Announce of Net.Asn.t * Net.Ipv4.prefix option  (** [None] = default prefix *)
  | Withdraw of Net.Asn.t * Net.Ipv4.prefix option
  | Fail_link of Net.Asn.t * Net.Asn.t
  | Recover_link of Net.Asn.t * Net.Asn.t
  | Crash_node of Net.Asn.t  (** crash the AS's router or switch process *)
  | Restart_node of Net.Asn.t
  | Partition of Net.Asn.t * Net.Asn.t option
      (** cut the link to another AS, or ([None], written [ctrl] in the
          text format) the member's control channel to the cluster head *)
  | Recover_ctrl of Net.Asn.t  (** bring a member's control channel back *)
  | Flap of Net.Asn.t * Net.Asn.t * int
      (** n fail/recover cycles on the link, 1 s period (500 ms down,
          500 ms up; ends recovered) — see {!expand} *)
  | Loss_burst of Net.Asn.t * Net.Asn.t
      (** 100% loss while the link still reports up: only KEEPALIVE/hold
          liveness can detect it *)
  | Loss_heal of Net.Asn.t * Net.Asn.t
      (** end a loss burst: the link gets back the loss it had before *)
  | Crash_head  (** the cluster head: controller + speaker together *)
  | Restart_head
  | Heal  (** bring every failed link back up *)
  | Note of string

type step = { at : Engine.Time.t; action : action }

type t

val make : title:string -> step list -> t
(** Steps are sorted by time. *)

val at : float -> action -> step
(** [at seconds action]. *)

val title : t -> string

val steps : t -> step list

val pp_action : Format.formatter -> action -> unit
(** The action as written in the text format. *)

val render : t -> string
(** The text format: ["@SECONDS ACTION ARGS"] lines (microsecond
    precision) after a ['#'] title comment. *)

val parse_string : ?title:string -> string -> (t, string) result
(** Errors name the line: a time that is not a finite, non-negative
    number of seconds, an unknown verb, a bad AS or prefix, and missing
    or extra arguments are all rejected.  Times round to the nearest
    microsecond, so [parse_string (render t)] gives back [t]'s steps. *)

val parse_file : string -> (t, string) result
(** {!parse_string} over the file; one that cannot be read (a directory
    among them) is an [Error] naming the path. *)

val validate : Network.t -> t -> (unit, string) result
(** Every step names only ASes, links, control channels and a cluster
    head the network has; the error quotes the first offending step. *)

val apply : Network.t -> action -> unit
(** Perform one action now.
    @raise Invalid_argument on a {!Flap} (schedule its {!expand}ed train
    instead) and on targets the network lacks. *)

val expand : step -> step list
(** A flap becomes its fail/recover train, starting at the step's time;
    every other step is itself. *)

val schedule : ?on_step:(step -> unit) -> Network.t -> step list -> unit
(** Schedule the steps on the network's simulator; each is {!apply}ed
    under its own ["scenario.action"] span.  A flap's {!expand}ed train
    after its first fail is queued when that fail runs.  A step already
    in the past runs at once.  [on_step] sees each step as its first
    primitive runs. *)

val run : Experiment.t -> t -> (Engine.Time.t * action) list
(** {!validate}, {!schedule} all steps, run to quiescence, return the
    executed log.  @raise Invalid_argument when validation fails, before
    anything is scheduled. *)
