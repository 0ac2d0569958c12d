(** Data-plane probe defaults shared by the snapshot walker, the probe
    bursts and the forwarding verifier. *)

val default_ttl : int
(** Hop budget of a probe. *)
