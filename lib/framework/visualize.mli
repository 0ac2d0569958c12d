(** Visualization: Graphviz export of the experiment component graph
    (Fig. 1 equivalent), ASCII boxplots for sweeps, route-change
    timelines. *)

val spec_to_dot : ?with_infrastructure:bool -> Topology.Spec.t -> string
(** Dot source: SDN members as boxes, relationship-styled AS links, and
    (unless disabled) the collector and controller/speaker with their
    monitoring/control edges. *)

val series_to_ascii : ?width:int -> Experiments.run_result Experiments.series -> string
(** One boxplot row per sweep point over a shared scale. *)

val timeline : Convergence.t -> Net.Ipv4.prefix -> string
(** One line per change in the prefix's {!Convergence.history}: the
    instant and the AS whose route changed. *)
