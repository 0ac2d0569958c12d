(* Reference model of legacy forwarding as the network kept it before it
   was derived from the Loc-RIB, kept as an oracle for
   [Network.forwarding_at] and the legacy rows of
   [Network.dataplane_snapshot].

   Each legacy router has its own [Net.Fib] of next-hop node ids (an
   AS's node id is its AS number).  A best-change subscriber writes it:
   a best learned over eBGP installs the peer it came from, a local best
   or none removes the prefix.  A crash hook clears it, as the kernel
   forwarding state dies with the router process.  Attach it before the
   network starts, so it sees every change. *)

type t = int Net.Fib.t Net.Asn.Map.t

let attach network : t =
  Net.Asn.Map.map
    (fun router ->
      let fib = Net.Fib.create () in
      Bgp.Router.subscribe_best_change router (fun prefix best ->
          match Option.map Bgp.Route.source best with
          | Some (Bgp.Route.Ebgp peer) -> Net.Fib.insert fib prefix (Net.Asn.to_int peer)
          | Some Bgp.Route.Local | None -> Net.Fib.remove fib prefix);
      Engine.Node.on_crash (Bgp.Router.node router) (fun () -> Net.Fib.clear fib);
      fib)
    (Framework.Network.routers network)

let fib (t : t) asn = Net.Asn.Map.find asn t
