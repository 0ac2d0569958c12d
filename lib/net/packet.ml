(* Data-plane probe defaults. *)

let default_ttl = 64
