(* A dependency-free domain work pool.

   Shape: one shared FIFO of thunks guarded by a mutex, [jobs - 1]
   worker domains blocked on [nonempty], and a submitting domain that
   also drains the queue during [map] (so [jobs] tasks really do run
   concurrently without over-spawning domains).  Each [map] call owns a
   batch record counting its outstanding tasks; the submitter waits on
   [batch_done] once the queue is empty.  Only one batch is in flight
   at a time — the pool has a single owning domain by contract — so the
   queue is provably empty when [map] returns and the pool is
   immediately reusable. *)

type batch = {
  mutable remaining : int;
  (* lowest-indexed failure wins, so parallel error reporting is
     deterministic *)
  mutable error : (int * exn * Printexc.raw_backtrace) option;
}

type t = {
  jobs : int;
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  batch_done : Condition.t;
  mutable stopped : bool;
  mutable workers : unit Domain.t array;
}

let jobs t = t.jobs

(* The default cap is overridable via HYBRIDSIM_JOBS_CAP so -j 0 can use
   more than 8 cores on big hosts without a code change.  Unset, empty,
   non-numeric, or non-positive values fall back to the built-in cap. *)
let env_cap ~default =
  match Sys.getenv_opt "HYBRIDSIM_JOBS_CAP" with
  | None | Some "" -> default
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> default)

let recommended_jobs ?cap () =
  let cap = match cap with Some c -> c | None -> env_cap ~default:8 in
  let cap = max 1 cap in
  min cap (max 1 (Domain.recommended_domain_count ()))

(* Pull one task or block; [None] only after shutdown. *)
let rec next_task t =
  if t.stopped then None
  else
    match Queue.take_opt t.queue with
    | Some _ as task -> task
    | None ->
      Condition.wait t.nonempty t.mutex;
      next_task t

let rec worker_loop t =
  Mutex.lock t.mutex;
  let task = next_task t in
  Mutex.unlock t.mutex;
  match task with
  | None -> ()
  | Some task ->
    task ();
    worker_loop t

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      batch_done = Condition.create ();
      stopped = false;
      workers = [||];
    }
  in
  if jobs > 1 then t.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  if Array.length t.workers > 0 then begin
    Mutex.lock t.mutex;
    t.stopped <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end
  else t.stopped <- true

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map t f xs =
  if t.stopped then invalid_arg "Pool.map: pool already shut down";
  match xs with
  | [] -> []
  | xs when t.jobs = 1 -> List.map f xs
  | xs ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let results = Array.make n None in
    let batch = { remaining = n; error = None } in
    let task i () =
      (match f arr.(i) with
      | v -> results.(i) <- Some v
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Mutex.lock t.mutex;
        (match batch.error with
        | Some (j, _, _) when j < i -> ()
        | Some _ | None -> batch.error <- Some (i, e, bt));
        Mutex.unlock t.mutex);
      Mutex.lock t.mutex;
      batch.remaining <- batch.remaining - 1;
      if batch.remaining = 0 then Condition.broadcast t.batch_done;
      Mutex.unlock t.mutex
    in
    Mutex.lock t.mutex;
    for i = 0 to n - 1 do
      Queue.add (task i) t.queue
    done;
    Condition.broadcast t.nonempty;
    (* The submitter is a worker too: drain the queue, then wait for
       whatever the other domains still have in flight. *)
    let rec drain () =
      match Queue.take_opt t.queue with
      | Some task ->
        Mutex.unlock t.mutex;
        task ();
        Mutex.lock t.mutex;
        drain ()
      | None -> ()
    in
    drain ();
    while batch.remaining > 0 do
      Condition.wait t.batch_done t.mutex
    done;
    Mutex.unlock t.mutex;
    (match batch.error with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.to_list (Array.map Option.get results)

