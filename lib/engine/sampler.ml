(* Periodic metrics sampler on the simulated clock.

   Each tick snapshots the sim's registry and hands it to the callback.
   The tricky part is termination: experiments run the scheduler until the
   queue drains (Network.settle), so an unconditionally self-rescheduling
   sampler would keep the queue non-empty forever.  We therefore go
   dormant when a tick finds nothing else queued — the simulation has
   converged — and resume through Sim.on_wake when new work arrives (the
   next measurement phase of the same experiment).  The caller takes the
   final settled snapshot explicitly (see Framework.Telemetry). *)

type t = {
  sim : Sim.t;
  interval : Time.span;
  on_sample : Metrics.snapshot -> unit;
  mutable dormant : bool;
  mutable stopped : bool;
}

let category = "telemetry.sample"

let rec tick t () =
  if not t.stopped then begin
    t.on_sample (Metrics.snapshot (Sim.metrics t.sim) ~at:(Sim.now t.sim));
    (* Our own event has been popped already: pending > 0 means real work
       remains, so the timeline should keep sampling. *)
    if Sim.pending t.sim > 0 then arm t else t.dormant <- true
  end

and arm t = ignore (Sim.schedule_after ~category t.sim t.interval (tick t))

let start sim ~interval ~on_sample =
  if Time.to_us interval <= 0 then
    invalid_arg "Sampler.start: interval must be positive";
  let t = { sim; interval; on_sample; dormant = false; stopped = false } in
  Sim.on_wake sim (fun () ->
      if (not t.stopped) && t.dormant then begin
        t.dormant <- false;
        arm t
      end);
  arm t;
  t

let stop t = t.stopped <- true
