(* BGP wire messages (at semantic granularity, not byte format). *)

type update = {
  announced : (Net.Ipv4.prefix * Attrs.t) list;
  withdrawn : Net.Ipv4.prefix list;
}

type t =
  | Open of { asn : Net.Asn.t; router_id : Net.Ipv4.addr; hold_time : int }
      (* proposed hold time in whole seconds; 0 disables liveness (RFC
         4271 permits 0 = "no keepalives on this session") *)
  | Keepalive
  | Update of update
  | Notification of string

let update ?(announced = []) ?(withdrawn = []) () = Update { announced; withdrawn }

let pp ppf = function
  | Open { asn; router_id; hold_time } ->
    Fmt.pf ppf "OPEN %a rid=%a hold=%ds" Net.Asn.pp asn Net.Ipv4.pp_addr router_id hold_time
  | Keepalive -> Fmt.string ppf "KEEPALIVE"
  | Update { announced; withdrawn } ->
    Fmt.pf ppf "UPDATE +[%a] -[%a]"
      Fmt.(list ~sep:comma (fun ppf (p, a) -> Fmt.pf ppf "%a{%a}" Net.Ipv4.pp_prefix p Attrs.pp a))
      announced
      Fmt.(list ~sep:comma Net.Ipv4.pp_prefix)
      withdrawn
  | Notification reason -> Fmt.pf ppf "NOTIFICATION %s" reason
