(* One steppable serving host: the per-replica loop of [Engine]
   factored into a layer the fleet front-end can interleave.

   State: bounded per-class FIFO queues of [queued] entries, one
   [queued] per busy slot, and the per-cycle metrics counters.  The
   step order replicates the original engine loop exactly — queued
   expiry, refill, running expiry, metrics, replica step, harvest —
   so [Engine.run] rebuilt on this layer serves byte-identically. *)

type class_config = { cname : string; capacity : int }

let default_class = { cname = "default"; capacity = 64 }

type 'job queued = {
  q_id : int;
  q_cls : int;
  q_payload : 'job;
  q_arrival : int;
  q_eff_arrival : int;
  q_deadline : int option;
  q_retries : int;
  q_tries : int;
}

type 'res event =
  | Completed of { id : int; result : 'res; latency : int; slot : int }
  | Timed_out of { id : int; tries : int }
  | Shed of { id : int; at : int }

(* The per-cycle gauges live in a host-side [Melastic.Profile]: one
   histogram per gauge, whose exact sum / max reproduce the old plain
   counters while also giving the fleet layer queue-depth percentiles
   for free. *)
let gauge_busy = "busy_slots"
let gauge_queue_depth = "queue_depth"

type ('job, 'res) t = {
  classes : class_config array;
  replica : ('job, 'res) Backend_intf.replica;
  queues : 'job queued Queue.t array;
  mutable queued_deadlines : int; (* queued entries that carry a deadline *)
  running : 'job queued option array;
  profile : Melastic.Profile.t;
  busy_gauge : Melastic.Histogram.t;
  queue_depth_gauge : Melastic.Histogram.t;
  mutable rr_cls : int;
  mutable steps : int;
  mutable retries : int;
  mutable events : 'res event list; (* this step's, newest first *)
}

let create ?(classes = [ default_class ]) replica =
  if classes = [] then invalid_arg "Host.create: empty class list";
  List.iter
    (fun c ->
      if c.capacity < 1 then invalid_arg "Host.create: class capacity < 1")
    classes;
  let classes = Array.of_list classes in
  let profile = Melastic.Profile.create () in
  { classes;
    replica;
    queues = Array.map (fun _ -> Queue.create ()) classes;
    queued_deadlines = 0;
    running = Array.make replica.slots None;
    profile;
    busy_gauge = Melastic.Profile.gauge_hist profile gauge_busy;
    queue_depth_gauge = Melastic.Profile.gauge_hist profile gauge_queue_depth;
    rr_cls = 0;
    steps = 0;
    retries = 0;
    events = [] }

let classes t = t.classes
let profile t = t.profile

let class_index t name =
  let rec go i =
    if i >= Array.length t.classes then
      invalid_arg (Printf.sprintf "Host.class_index: unknown class %S" name)
    else if t.classes.(i).cname = name then i
    else go (i + 1)
  in
  go 0

let slots t = t.replica.slots

let busy_slots t =
  Array.fold_left (fun n s -> match s with None -> n | Some _ -> n + 1) 0 t.running

let cycle_no t = t.replica.cycle_no ()

let queue_depth t =
  Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.queues

(* Every entry enters a queue through [enqueue] and leaves through
   [dequeued], which keeps [queued_deadlines] exact. *)
let enqueue t entry =
  let q = t.queues.(entry.q_cls) in
  if Queue.length q >= t.classes.(entry.q_cls).capacity then false
  else begin
    Queue.add entry q;
    if Option.is_some entry.q_deadline then t.queued_deadlines <- t.queued_deadlines + 1;
    true
  end

let dequeued t entry =
  if Option.is_some entry.q_deadline then t.queued_deadlines <- t.queued_deadlines - 1

let admit ?(cls = 0) ?deadline ?(retries = 0) t ~id ~arrival payload =
  if cls < 0 || cls >= Array.length t.classes then
    invalid_arg "Host.admit: class index out of range";
  enqueue t
    { q_id = id;
      q_cls = cls;
      q_payload = payload;
      q_arrival = arrival;
      q_eff_arrival = t.replica.cycle_no ();
      q_deadline = deadline;
      q_retries = retries;
      q_tries = 0 }

let admit_queued t entry =
  if entry.q_cls < 0 || entry.q_cls >= Array.length t.classes then
    invalid_arg "Host.admit_queued: class index out of range";
  enqueue t entry

let steal t =
  let deepest = ref (-1) and depth = ref 0 in
  Array.iteri
    (fun i q ->
      if Queue.length q > !depth then begin
        deepest := i;
        depth := Queue.length q
      end)
    t.queues;
  if !deepest < 0 then None
  else begin
    (* Rotate the FIFO once: re-adding the first n-1 entries preserves
       their order and leaves the youngest in hand. *)
    let q = t.queues.(!deepest) in
    let n = Queue.length q in
    let taken = ref None in
    for i = 1 to n do
      let e = Queue.pop q in
      if i = n then begin
        dequeued t e;
        taken := Some e
      end
      else Queue.add e q
    done;
    !taken
  end

let complete_external t ~id =
  let found = ref false in
  Array.iter
    (fun q ->
      for _ = 1 to Queue.length q do
        let e = Queue.pop q in
        if e.q_id = id then begin
          dequeued t e;
          found := true
        end
        else Queue.add e q
      done)
    t.queues;
  !found

let expired now entry =
  match entry.q_deadline with
  | None -> false
  | Some d -> now - entry.q_eff_arrival >= d

(* Deadline expiry: burn a retry if the budget allows (the deadline
   baseline restarts, the attempt count ticks), else time out. *)
let expire t now entry =
  if entry.q_tries < entry.q_retries then begin
    t.retries <- t.retries + 1;
    let entry = { entry with q_eff_arrival = now; q_tries = entry.q_tries + 1 } in
    if not (enqueue t entry) then
      t.events <- Shed { id = entry.q_id; at = now } :: t.events
  end
  else
    t.events <- Timed_out { id = entry.q_id; tries = entry.q_tries + 1 } :: t.events

(* The next class to refill from, round-robin over the non-empty
   queues, or -1 when every queue is empty. *)
let pick_class t =
  let nc = Array.length t.classes in
  let k = ref 0 in
  while !k < nc && Queue.is_empty t.queues.((t.rr_cls + !k) mod nc) do
    incr k
  done;
  if !k < nc then (t.rr_cls + !k) mod nc else -1

(* Queued-deadline expiry over one queue (whole queue, not just the
   head: a deep queue must not hide an expired entry behind fresh
   ones). *)
let expire_queue t now q =
  for _ = 1 to Queue.length q do
    let e = Queue.pop q in
    if expired now e then begin
      dequeued t e;
      expire t now e
    end
    else Queue.add e q
  done

let rec harvest t = function
  | [] -> ()
  | (s, res) :: rest ->
    (match t.running.(s) with
     | Some e ->
       let latency = t.replica.cycle_no () - e.q_arrival in
       t.events <-
         Completed { id = e.q_id; result = res; latency; slot = s } :: t.events;
       t.running.(s) <- None
     | None ->
       (* A completion on a slot the host no longer tracks (e.g. a
          cancelled occupancy the backend failed to swallow): drop it
          rather than mis-attribute it. *)
       ());
    harvest t rest

(* Written as loops over top-level helpers, so a cycle with no events
   allocates nothing here: no closures, no event list. *)
let step t =
  let now = t.replica.cycle_no () in
  (* 1. queued-deadline expiry.  With no deadline-bearing entry queued
     nothing can expire, and the rotation would be the identity. *)
  if t.queued_deadlines > 0 then
    for ci = 0 to Array.length t.queues - 1 do
      expire_queue t now t.queues.(ci)
    done;
  (* Arrival-instant gauge sample: the backlog as refill sees it, so a
     job that transits the queue within this very cycle (a fresh
     arrival, a retry re-admission) still registers. *)
  let qd_at_refill = queue_depth t in
  (* 2. refill free slots from the queues *)
  for s = 0 to t.replica.slots - 1 do
    if Option.is_none t.running.(s) && t.replica.slot_free s then begin
      let ci = pick_class t in
      if ci >= 0 then begin
        t.rr_cls <- (ci + 1) mod Array.length t.classes;
        let e = Queue.pop t.queues.(ci) in
        dequeued t e;
        t.replica.start ~slot:s e.q_payload;
        t.running.(s) <- Some e
      end
    end
  done;
  (* 3. running-deadline expiry: cancel the slot, recycle the job *)
  for s = 0 to Array.length t.running - 1 do
    match t.running.(s) with
    | Some e when expired now e ->
      t.replica.cancel ~slot:s;
      t.running.(s) <- None;
      expire t now e
    | _ -> ()
  done;
  (* 4. metrics: occupancy, and the peak backlog seen this cycle *)
  Melastic.Histogram.add t.busy_gauge (busy_slots t);
  Melastic.Histogram.add t.queue_depth_gauge (max qd_at_refill (queue_depth t));
  (* 5. one cycle of the design *)
  t.replica.step ();
  t.steps <- t.steps + 1;
  (* 6. harvest completions *)
  harvest t (t.replica.completions ());
  match t.events with
  | [] -> []
  | evs ->
    t.events <- [];
    List.rev evs

let outstanding t =
  let ids = ref [] in
  Array.iter (fun q -> Queue.iter (fun e -> ids := e.q_id :: !ids) q) t.queues;
  Array.iter
    (function Some e -> ids := e.q_id :: !ids | None -> ())
    t.running;
  List.sort compare !ids

type metrics = {
  m_steps : int;
  m_busy_slot_cycles : int;
  m_queue_depth_sum : int;
  m_queue_depth_max : int;
  m_retries : int;
}

(* Derived from the profile gauges: a histogram's sum and max are
   exact, so these are bit-identical to the former plain counters. *)
let metrics t =
  { m_steps = t.steps;
    m_busy_slot_cycles = Melastic.Histogram.sum t.busy_gauge;
    m_queue_depth_sum = Melastic.Histogram.sum t.queue_depth_gauge;
    m_queue_depth_max = Melastic.Histogram.max_value t.queue_depth_gauge;
    m_retries = t.retries }

let finish t = t.replica.finish ()
let violations t = t.replica.violations ()
