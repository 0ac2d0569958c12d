(* The BGP route collector: every router peers with it, it accepts
   everything and never advertises — its timestamped update stream is the
   monitoring feed a real collector records (update counts, dumps). *)

type action = Announce of Attrs.t | Withdraw

type event = { time : Engine.Time.t; peer : Net.Asn.t; prefix : Net.Ipv4.prefix; action : action }

(* At Internet scale the full event list (one boxed record per update ever
   seen) dwarfs the RIBs themselves, while convergence detection reads
   the routers' best changes, not this feed — [Counts_only] keeps the
   update count and drops the log. *)
type retention = Full | Counts_only

type t = {
  sim : Engine.Sim.t;
  node : Engine.Node.t;
  asn : Net.Asn.t;
  router_id : Net.Ipv4.addr;
  send_raw : dst:int -> Message.t -> bool;
  peer_of_node : (int, Net.Asn.t) Hashtbl.t;
  retention : retention;
  mutable events : event list; (* newest first; empty under Counts_only *)
  mutable event_count : int;
}

let create ?(retention = Full) ~sim ~asn ~router_id ~send () =
  let node = Engine.Node.create ~kind:"collector" sim ~name:"collector" in
  let t =
    {
      sim;
      node;
      asn;
      router_id;
      send_raw = send;
      peer_of_node = Hashtbl.create 16;
      retention;
      events = [];
      event_count = 0;
    }
  in
  (* A crashed collector loses its event log — the monitoring feed has a
     gap, like a real route collector outage. *)
  Engine.Node.on_crash node (fun () ->
      t.events <- [];
      t.event_count <- 0);
  Engine.Node.start node;
  t

let node t = t.node

let add_peer t ~peer_asn ~peer_node = Hashtbl.replace t.peer_of_node peer_node peer_asn

let rec record_withdrawn t peer time = function
  | [] -> ()
  | prefix :: rest ->
    (match t.retention with
    | Full -> t.events <- { time; peer; prefix; action = Withdraw } :: t.events
    | Counts_only -> ());
    t.event_count <- t.event_count + 1;
    record_withdrawn t peer time rest

let rec record_announced t peer time = function
  | [] -> ()
  | (prefix, attrs) :: rest ->
    (match t.retention with
    | Full -> t.events <- { time; peer; prefix; action = Announce attrs } :: t.events
    | Counts_only -> ());
    t.event_count <- t.event_count + 1;
    record_announced t peer time rest

let handle_message t ~from msg =
  match Hashtbl.find t.peer_of_node from with
  | exception Not_found -> ()
  | peer -> (
    match msg with
    | Message.Open _ ->
      (* Auto-respond so routers' session FSM completes.  Hold time 0:
         the collector never emits keepalives, so it must opt the session
         out of liveness supervision. *)
      ignore
        (t.send_raw ~dst:from
           (Message.Open { asn = t.asn; router_id = t.router_id; hold_time = 0 }))
    | Message.Keepalive | Message.Notification _ -> ()
    | Message.Update u ->
      let time = Engine.Sim.now t.sim in
      record_withdrawn t peer time u.Message.withdrawn;
      record_announced t peer time u.Message.announced)

let events t = List.rev t.events

let event_count t = t.event_count

(* --- Dump format (MRT-inspired text) ----------------------------------

     <time_us>|<peer_asn>|A|<prefix>|<asn asn ...>
     <time_us>|<peer_asn>|W|<prefix>|

   Written by experiments for offline analysis, parseable back into
   events (with minimal attributes: the AS path only). *)

let dump t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      let base =
        Fmt.str "%d|%d" (Engine.Time.to_us e.time) (Net.Asn.to_int e.peer)
      in
      match e.action with
      | Announce attrs ->
        Buffer.add_string buf
          (Fmt.str "%s|A|%s|%s\n" base
             (Net.Ipv4.prefix_to_string e.prefix)
             (String.concat " "
                (List.map
                   (fun a -> string_of_int (Net.Asn.to_int a))
                   (Attrs.as_path attrs))))
      | Withdraw ->
        Buffer.add_string buf (Fmt.str "%s|W|%s|\n" base (Net.Ipv4.prefix_to_string e.prefix)))
    (events t);
  Buffer.contents buf

let parse_dump_line lineno line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Ok None
  else begin
    let fail reason = Error (Fmt.str "line %d: %s" lineno reason) in
    match String.split_on_char '|' line with
    | [ time; peer; kind; prefix; path ] -> (
      match
        (int_of_string_opt time, Net.Asn.of_string peer, Net.Ipv4.prefix_of_string prefix)
      with
      | Some time_us, Some peer, Some prefix -> (
        let time = Engine.Time.of_us time_us in
        match kind with
        | "W" -> Ok (Some { time; peer; prefix; action = Withdraw })
        | "A" -> (
          let hops = String.split_on_char ' ' path |> List.filter (fun s -> s <> "") in
          let asns = List.filter_map Net.Asn.of_string hops in
          if List.length asns <> List.length hops then fail "bad AS path"
          else begin
            let attrs =
              Attrs.make ~as_path:asns ~next_hop:(Net.Ipv4.addr_of_octets 0 0 0 0) ()
            in
            Ok (Some { time; peer; prefix; action = Announce attrs })
          end)
        | k -> fail (Fmt.str "unknown record kind %S" k))
      | _ -> fail "bad time, peer or prefix")
    | _ -> fail "expected time|peer|kind|prefix|path"
  end

let parse_dump text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match parse_dump_line lineno line with
      | Ok None -> go (lineno + 1) acc rest
      | Ok (Some e) -> go (lineno + 1) (e :: acc) rest
      | Error e -> Error e)
  in
  go 1 [] lines

