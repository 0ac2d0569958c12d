(* Reference model of a peer's outbound side in the persistent-map design
   [Bgp.Mrai] replaced, kept as an oracle for it.

   Paced: the Adj-RIB-Out is a [Prefix_map] of advertised attrs, and the
   MRAI scheduler keeps a [Prefix_map] of pending changes and a
   [Prefix_set] of MRAI-exempt withdrawals; [announce] and [withdraw]
   deduplicate against the Adj-RIB-Out first, as the router's export did.

   Unpaced: the cluster speaker's session without an MRAI — the
   Adj-RIB-Out map plus the list of prefixes touched since the last
   flush, whose current entries the flush sends.  Without an owner hook
   every change is sent at once. *)

module Pm = Net.Ipv4.Prefix_map
module Ps = Net.Ipv4.Prefix_set

type pending = Announce of Bgp.Attrs.t | Withdraw

type telemetry = {
  deferrals_c : Engine.Metrics.Counter.t;
  flushes_c : Engine.Metrics.Counter.t;
}

let telemetry =
  Engine.Metrics.shared (fun m ->
      {
        deferrals_c =
          Engine.Metrics.counter m ~help:"route changes deferred by a running MRAI timer"
            "bgp_mrai_deferrals_total";
        flushes_c =
          Engine.Metrics.counter m ~help:"batched UPDATE flushes" "bgp_mrai_flushes_total";
      })

type paced = {
  rng : Engine.Rng.t;
  config : Bgp.Config.t;
  timer : Engine.Timer.t;
  mutable pending : pending Pm.t;
  mutable urgent : Ps.t;
  tm : telemetry;
}

type t = {
  send : Bgp.Message.update -> unit;
  mutable adj_out : Bgp.Attrs.t Pm.t;
  mutable touched : Net.Ipv4.prefix list; (* unpaced only *)
  mutable dirty : bool;
  mutable on_dirty : (unit -> unit) option;
  paced : paced option;
}

let split_pending pending =
  let announced, withdrawn =
    Pm.fold
      (fun prefix p (ann, wd) ->
        match p with
        | Announce attrs -> ((prefix, attrs) :: ann, wd)
        | Withdraw -> (ann, prefix :: wd))
      pending ([], [])
  in
  (List.rev announced, List.rev withdrawn)

let arm p = Engine.Timer.start p.timer (Bgp.Config.jittered_mrai p.config p.rng)

let expire t p =
  if not (Pm.is_empty p.pending) then begin
    let announced, withdrawn = split_pending p.pending in
    p.pending <- Pm.empty;
    Engine.Metrics.Counter.inc p.tm.flushes_c;
    t.send { Bgp.Message.announced; withdrawn };
    arm p
  end

let is_throttled t =
  match t.paced with Some p -> Engine.Timer.is_armed p.timer | None -> false

let flush_event t =
  t.dirty <- false;
  match t.paced with
  | Some p ->
    if Engine.Timer.is_armed p.timer then begin
      if not (Ps.is_empty p.urgent) then begin
        let withdrawn = Ps.elements p.urgent in
        p.urgent <- Ps.empty;
        t.send { Bgp.Message.announced = []; withdrawn }
      end
    end
    else if not (Pm.is_empty p.pending && Ps.is_empty p.urgent) then begin
      let announced, withdrawn = split_pending p.pending in
      let withdrawn = List.merge Net.Ipv4.compare_prefix withdrawn (Ps.elements p.urgent) in
      let had_pending = not (Pm.is_empty p.pending) in
      p.pending <- Pm.empty;
      p.urgent <- Ps.empty;
      if had_pending then Engine.Metrics.Counter.inc p.tm.flushes_c;
      t.send { Bgp.Message.announced; withdrawn };
      if had_pending then arm p
    end
  | None ->
    if t.touched <> [] then begin
      let announced, withdrawn =
        List.fold_left
          (fun (ann, wd) prefix ->
            match Pm.find_opt prefix t.adj_out with
            | Some attrs -> ((prefix, attrs) :: ann, wd)
            | None -> (ann, prefix :: wd))
          ([], [])
          (List.sort_uniq (fun a b -> Net.Ipv4.compare_prefix b a) t.touched)
      in
      t.touched <- [];
      t.send { Bgp.Message.announced; withdrawn }
    end

let mark_dirty t =
  if not t.dirty then begin
    t.dirty <- true;
    match t.on_dirty with Some f -> f () | None -> flush_event t
  end

let set_on_dirty t f = t.on_dirty <- Some f

let create sim ~rng ~config ~send =
  let self = ref None in
  let callback () = match !self with Some (t, p) -> expire t p | None -> () in
  let p =
    {
      rng;
      config;
      timer = Engine.Timer.create ~category:"bgp.mrai" sim ~callback;
      pending = Pm.empty;
      urgent = Ps.empty;
      tm = Engine.Metrics.get_shared (Engine.Sim.metrics sim) telemetry;
    }
  in
  let t =
    { send; adj_out = Pm.empty; touched = []; dirty = false; on_dirty = None; paced = Some p }
  in
  self := Some (t, p);
  t

let unpaced ~send =
  { send; adj_out = Pm.empty; touched = []; dirty = false; on_dirty = None; paced = None }

let enqueue_announce t p prefix attrs =
  p.pending <- Pm.add prefix (Announce attrs) p.pending;
  p.urgent <- Ps.remove prefix p.urgent;
  if Engine.Timer.is_armed p.timer then Engine.Metrics.Counter.inc p.tm.deferrals_c
  else mark_dirty t

let enqueue_withdraw t p prefix =
  if p.config.Bgp.Config.mrai_on_withdrawals then begin
    p.pending <- Pm.add prefix Withdraw p.pending;
    p.urgent <- Ps.remove prefix p.urgent;
    if Engine.Timer.is_armed p.timer then Engine.Metrics.Counter.inc p.tm.deferrals_c
    else mark_dirty t
  end
  else begin
    p.pending <- Pm.remove prefix p.pending;
    p.urgent <- Ps.add prefix p.urgent;
    mark_dirty t
  end

let touch t prefix =
  match t.on_dirty with
  | Some f ->
    t.touched <- prefix :: t.touched;
    if not t.dirty then begin
      t.dirty <- true;
      f ()
    end
  | None -> (
    match Pm.find_opt prefix t.adj_out with
    | Some attrs -> t.send { Bgp.Message.announced = [ (prefix, attrs) ]; withdrawn = [] }
    | None -> t.send { Bgp.Message.announced = []; withdrawn = [ prefix ] })

let announce t prefix attrs =
  match Pm.find_opt prefix t.adj_out with
  | Some b when Bgp.Attrs.wire_equal attrs b -> ()
  | Some _ | None -> (
    t.adj_out <- Pm.add prefix attrs t.adj_out;
    match t.paced with Some p -> enqueue_announce t p prefix attrs | None -> touch t prefix)

let withdraw t prefix =
  if Pm.mem prefix t.adj_out then begin
    t.adj_out <- Pm.remove prefix t.adj_out;
    match t.paced with Some p -> enqueue_withdraw t p prefix | None -> touch t prefix
  end

let advertised t prefix = Pm.find_opt prefix t.adj_out

let pending_count t = match t.paced with Some p -> Pm.cardinal p.pending | None -> 0

let reset t =
  t.adj_out <- Pm.empty;
  t.touched <- [];
  t.dirty <- false;
  match t.paced with
  | Some p ->
    p.pending <- Pm.empty;
    p.urgent <- Ps.empty;
    Engine.Timer.cancel p.timer
  | None -> ()
