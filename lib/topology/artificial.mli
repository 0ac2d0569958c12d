(** Deterministic artificial topologies.  ASNs are assigned from 65001
    upward in node order. *)

val base_asn : int

val asn : int -> Net.Asn.t
(** [asn i] is the ASN of the [i]-th generated node. *)

val clique : ?rel:Spec.rel -> int -> Spec.t
(** Full mesh; [Open] relationships by default (the paper's Fig. 2
    substrate). *)

val star : ?rel:Spec.rel -> int -> Spec.t
(** Node 0 is the hub; leaves are its customers by default. *)

val line : ?rel:Spec.rel -> int -> Spec.t

val ring : ?rel:Spec.rel -> int -> Spec.t

val stub_asn : Spec.t -> Net.Asn.t
(** The last node of a spec (the stub in {!failover_backup_chain}). *)

val failover_backup_chain : ?clique_size:int -> ?chain_len:int -> unit -> Spec.t
(** A clique plus a stub whose primary path enters at member 0 and whose
    strictly longer backup path reaches member 1 through [chain_len]
    transit ASes — failing the primary link triggers genuine path
    exploration among the legacy clique members. *)
