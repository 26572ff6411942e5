(* Continuous-batching request server over the MT-elastic cores.

   The per-replica serving loop lives in [Host] (bounded per-class
   admission queues, slot refill, deadline/retry, metrics); the engine
   adds arrival scheduling, outcome bookkeeping and N-replica sharding
   through [Parallel].

   Everything is deterministic: jobs route as [id mod replicas], each
   replica's serving loop depends only on its own job stream and its
   own simulator, and [Parallel.map] returns results in replica order
   — so the same submissions produce the same per-job outcomes at any
   domain count, and an N-replica run returns the same results as a
   1-replica run routed the same way. *)

type class_config = Host.class_config = { cname : string; capacity : int }

let default_class = Host.default_class

type 'res outcome =
  | Pending
  | Completed of { result : 'res; latency : int; replica : int; slot : int }
  | Shed of { at : int }
  | Timed_out of { tries : int }
  | Failed of string

(* The replica record is owned by [Backend_intf] (backends implement
   it, the engine consumes it); the equation keeps every existing
   [Engine.replica] annotation and field access valid. *)
type ('job, 'res) replica = ('job, 'res) Backend_intf.replica = {
  slots : int;
  slot_free : int -> bool;
  start : slot:int -> 'job -> unit;
  cancel : slot:int -> unit;
  step : unit -> unit;
  completions : unit -> (int * 'res) list;
  cycle_no : unit -> int;
  finish : unit -> unit;
  violations : unit -> int;
}

(* One submitted job.  [arrival] is on the routed replica's clock;
   [deadline] is a cycle budget from (re-)admission. *)
type 'job job_rec = {
  id : int;
  cls : int;
  arrival : int;
  deadline : int option;
  max_retries : int;
  payload : 'job;
}

type ('job, 'res) t = {
  classes : class_config array;
  replicas : int;
  make_replica : int -> ('job, 'res) replica;
  mutable submissions : 'job job_rec list;  (* newest first *)
  mutable next_id : int;
  mutable results : 'res outcome array;
  mutable ran : bool;
}

let create ?(classes = [ default_class ]) ?(replicas = 1) ~make_replica () =
  if classes = [] then invalid_arg "Engine.create: empty class list";
  if replicas < 1 then invalid_arg "Engine.create: replicas must be >= 1";
  List.iter
    (fun c ->
      if c.capacity < 1 then invalid_arg "Engine.create: class capacity < 1")
    classes;
  { classes = Array.of_list classes;
    replicas;
    make_replica;
    submissions = [];
    next_id = 0;
    results = [||];
    ran = false }

(* Backend-polymorphic creation: any packed [Backend_intf.t] serves
   through the same engine. *)
let create_b ?classes ?replicas ~backend () =
  create ?classes ?replicas ~make_replica:(Backend_intf.make_replica backend) ()

let class_index t name =
  let rec go i =
    if i >= Array.length t.classes then
      invalid_arg (Printf.sprintf "Engine.submit: unknown class %S" name)
    else if t.classes.(i).cname = name then i
    else go (i + 1)
  in
  go 0

let submit ?cls ?(arrival = 0) ?deadline ?(retries = 0) t payload =
  if t.ran then invalid_arg "Engine.submit: engine already ran";
  if arrival < 0 then invalid_arg "Engine.submit: negative arrival";
  (match deadline with
   | Some d when d < 1 -> invalid_arg "Engine.submit: deadline must be >= 1"
   | _ -> ());
  if retries < 0 then invalid_arg "Engine.submit: negative retries";
  let cls =
    match cls with None -> 0 | Some name -> class_index t name
  in
  let id = t.next_id in
  t.next_id <- id + 1;
  t.submissions <-
    { id; cls; arrival; deadline; max_retries = retries; payload }
    :: t.submissions;
  id

let job_count t = t.next_id
let replica_count t = t.replicas
let route t id = id mod t.replicas

(* ---- per-replica serving loop ---- *)

type replica_stats = {
  r_replica : int;
  r_slots : int;
  r_cycles : int;
  r_wall_seconds : float;
  r_completed : int;
  r_shed : int;
  r_timed_out : int;
  r_retries : int;
  r_busy_slot_cycles : int;
  r_queue_depth_sum : int;
  r_queue_depth_max : int;
  r_violations : int;
  r_latency : Melastic.Histogram.t;
}

type report = { per_replica : replica_stats array; wall_seconds : float }

let run_replica (type job res) ~index ~(classes : class_config array)
    ~(replica : (job, res) replica) ~(jobs : job job_rec array) ~max_cycles :
    (int * res outcome) list * replica_stats =
  let t0 = Unix.gettimeofday () in
  let host = Host.create ~classes:(Array.to_list classes) replica in
  let n = Array.length jobs in
  let unresolved = ref n in
  let out = ref [] in
  let completed = ref 0 and shed = ref 0 and timed_out = ref 0 in
  let latency = Melastic.Histogram.create () in
  let cycles = ref 0 in
  let next_arrival = ref 0 in
  let resolve id oc =
    out := (id, oc) :: !out;
    decr unresolved
  in
  while !unresolved > 0 && !cycles < max_cycles do
    let now = Host.cycle_no host in
    (* admissions due this cycle; a full class queue sheds *)
    while !next_arrival < n && jobs.(!next_arrival).arrival <= now do
      let j = jobs.(!next_arrival) in
      incr next_arrival;
      if
        not
          (Host.admit host ~cls:j.cls ?deadline:j.deadline
             ~retries:j.max_retries ~id:j.id ~arrival:j.arrival j.payload)
      then begin
        incr shed;
        resolve j.id (Shed { at = now })
      end
    done;
    (* one serving cycle: expiry, refill, step, harvest *)
    List.iter
      (function
        | Host.Completed { id; result; latency = l; slot } ->
          incr completed;
          Melastic.Histogram.add latency l;
          resolve id (Completed { result; latency = l; replica = index; slot })
        | Host.Timed_out { id; tries } ->
          incr timed_out;
          resolve id (Timed_out { tries })
        | Host.Shed { id; at } ->
          incr shed;
          resolve id (Shed { at }))
      (Host.step host);
    incr cycles
  done;
  (* Cycle-limit safety valve: everything still unresolved fails. *)
  if !unresolved > 0 then begin
    List.iter
      (fun id ->
        resolve id (Failed (Printf.sprintf "unresolved after %d cycles" !cycles)))
      (Host.outstanding host);
    for k = !next_arrival to n - 1 do
      resolve jobs.(k).id (Failed "never admitted: replica hit cycle limit")
    done
  end;
  Host.finish host;
  let m = Host.metrics host in
  ( !out,
    { r_replica = index;
      r_slots = replica.slots;
      r_cycles = !cycles;
      r_wall_seconds = Unix.gettimeofday () -. t0;
      r_completed = !completed;
      r_shed = !shed;
      r_timed_out = !timed_out;
      r_retries = m.Host.m_retries;
      r_busy_slot_cycles = m.Host.m_busy_slot_cycles;
      r_queue_depth_sum = m.Host.m_queue_depth_sum;
      r_queue_depth_max = m.Host.m_queue_depth_max;
      r_violations = Host.violations host;
      r_latency = latency } )

let run ?domains ?(max_cycles = 1_000_000) t =
  if t.ran then invalid_arg "Engine.run: engine already ran";
  t.ran <- true;
  t.results <- Array.make t.next_id Pending;
  (* Route: id mod replicas, each replica's stream sorted by arrival
     (stable: submission order breaks ties, since ids are dense). *)
  let per_replica = Array.make t.replicas [] in
  List.iter
    (fun j -> per_replica.(j.id mod t.replicas) <- j :: per_replica.(j.id mod t.replicas))
    t.submissions (* newest first, so the result lists are oldest first *);
  let job_arrays =
    Array.map
      (fun l ->
        let a = Array.of_list l in
        (* stable sort keeps submission order within an arrival cycle *)
        Array.stable_sort (fun x y -> compare x.arrival y.arrival) a;
        a)
      per_replica
  in
  let t0 = Unix.gettimeofday () in
  let results =
    Parallel.map ?domains
      (fun r ->
        run_replica ~index:r ~classes:t.classes ~replica:(t.make_replica r)
          ~jobs:job_arrays.(r) ~max_cycles)
      t.replicas
  in
  let wall = Unix.gettimeofday () -. t0 in
  Array.iter
    (fun (outs, _) -> List.iter (fun (id, oc) -> t.results.(id) <- oc) outs)
    results;
  { per_replica = Array.map snd results; wall_seconds = wall }

let outcome t id =
  if id < 0 || id >= Array.length t.results then
    invalid_arg "Engine.outcome: unknown job id";
  t.results.(id)

let outcomes t = Array.copy t.results

(* ---- report queries ---- *)

let occupancy s =
  if s.r_cycles = 0 || s.r_slots = 0 then 0.0
  else float_of_int s.r_busy_slot_cycles /. float_of_int (s.r_cycles * s.r_slots)

let mean_queue_depth s =
  if s.r_cycles = 0 then 0.0
  else float_of_int s.r_queue_depth_sum /. float_of_int s.r_cycles

let sum_by f report =
  Array.fold_left (fun acc s -> acc + f s) 0 report.per_replica

let completed r = sum_by (fun s -> s.r_completed) r
let shed r = sum_by (fun s -> s.r_shed) r
let timed_out r = sum_by (fun s -> s.r_timed_out) r
let violations r = sum_by (fun s -> s.r_violations) r
let total_cycles r = sum_by (fun s -> s.r_cycles) r

let mean_occupancy r =
  let slot_cycles = sum_by (fun s -> s.r_cycles * s.r_slots) r in
  if slot_cycles = 0 then 0.0
  else
    float_of_int (sum_by (fun s -> s.r_busy_slot_cycles) r)
    /. float_of_int slot_cycles

let latency r =
  let all = Melastic.Histogram.create () in
  Array.iter
    (fun s -> Melastic.Histogram.merge_into ~into:all s.r_latency)
    r.per_replica;
  all

let jobs_per_second r =
  if r.wall_seconds <= 0.0 then 0.0
  else float_of_int (completed r) /. r.wall_seconds

let cycles_per_job r =
  let c = completed r in
  if c = 0 then 0.0 else float_of_int (total_cycles r) /. float_of_int c

let summary r =
  let buf = Buffer.create 512 in
  let lat = latency r in
  Buffer.add_string buf
    (Printf.sprintf
       "served %d jobs (%d shed, %d timed out) in %.3fs wall — %.0f jobs/s, \
        %.1f cycles/job, occupancy %.2f\n"
       (completed r) (shed r) (timed_out r) r.wall_seconds (jobs_per_second r)
       (cycles_per_job r) (mean_occupancy r));
  Buffer.add_string buf
    (Printf.sprintf "latency cycles: p50 %d  p95 %d  p99 %d  max %d\n"
       (Melastic.Histogram.percentile lat 0.50)
       (Melastic.Histogram.percentile lat 0.95)
       (Melastic.Histogram.percentile lat 0.99)
       (Melastic.Histogram.max_value lat));
  Array.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf
           "  replica %d: %d jobs / %d cycles (occupancy %.2f, mean queue \
            %.1f, max queue %d%s)\n"
           s.r_replica s.r_completed s.r_cycles (occupancy s)
           (mean_queue_depth s) s.r_queue_depth_max
           (if s.r_violations = 0 then ""
            else Printf.sprintf ", %d PROTOCOL VIOLATIONS" s.r_violations)))
    r.per_replica;
  Buffer.contents buf

(* ---- open-loop load generation ---- *)

module Load = struct
  let poisson ~rng ~rate ~count =
    if rate <= 0.0 then invalid_arg "Engine.Load.poisson: rate must be > 0";
    if count < 0 then invalid_arg "Engine.Load.poisson: negative count";
    let t = ref 0.0 in
    Array.init count (fun _ ->
        let u = Random.State.float rng 1.0 in
        t := !t +. (-.log (1.0 -. u) /. rate);
        int_of_float !t)
end
