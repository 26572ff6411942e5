(* Fleet front-end over Serve.Host instances on a shared clock.

   The cycle loop keeps one invariant: every submitted request ends in
   exactly one terminal outcome, whichever of the five paths (cache,
   coalesce, host completion, retirement, shed/timeout) resolves it
   first.  All iteration orders are fixed (host index, class index,
   kqueue seed), so a config + submission set replays identically. *)

type config = {
  n_hosts : int;
  classes : Serve.Host.class_config list;
  kq_segments : int;
  kq_k : int;
  cache_capacity : int;
  pending_capacity : int;
  dispatch_per_cycle : int;
  steal_threshold : int;
  steal_batch : int;
  virtual_nodes : int;
  seed : int;
  deadline : int option;
  retries : int;
  dedup : bool;
  stealing : bool;
}

let default_config =
  { n_hosts = 4;
    classes = [ Serve.Host.default_class ];
    kq_segments = 64;
    kq_k = 4;
    cache_capacity = 256;
    pending_capacity = 64;
    dispatch_per_cycle = 8;
    steal_threshold = 4;
    steal_batch = 2;
    virtual_nodes = 64;
    seed = 1;
    deadline = None;
    retries = 0;
    dedup = true;
    stealing = true }

let baseline c = { c with dedup = false; stealing = false }

type via = Host of int | Cache | Coalesced | Retired

type 'res outcome =
  | Pending
  | Done of { result : 'res; latency : int; via : via }
  | Shed of { at : int }
  | Timed_out of { tries : int }
  | Failed of string

type 'job req = { id : int; arrival : int; cls : int; job : 'job; key : string }

type ('job, 'res) t = {
  cfg : config;
  key_fn : 'job -> string;
  make_host : int -> ('job, 'res) Serve.Backend_intf.replica;
  mutable submitted : 'job req list; (* reversed *)
  mutable n_reqs : int;
  mutable ran : bool;
  mutable out : 'res outcome array;
}

let create ?(config = default_config) ~make_host ~key () =
  let c = config in
  if c.n_hosts < 1 then invalid_arg "Frontend.create: n_hosts < 1";
  if c.classes = [] then invalid_arg "Frontend.create: no classes";
  if c.dispatch_per_cycle < 1 then
    invalid_arg "Frontend.create: dispatch_per_cycle < 1";
  { cfg = c;
    key_fn = key;
    make_host;
    submitted = [];
    n_reqs = 0;
    ran = false;
    out = [||] }

let submit ?(cls = 0) t ~arrival job =
  if t.ran then invalid_arg "Frontend.submit: already ran";
  if arrival < 0 then invalid_arg "Frontend.submit: negative arrival";
  if cls < 0 || cls >= List.length t.cfg.classes then
    invalid_arg "Frontend.submit: unknown class";
  let id = t.n_reqs in
  t.submitted <-
    { id; arrival; cls; job; key = t.key_fn job } :: t.submitted;
  t.n_reqs <- t.n_reqs + 1;
  id

let submit_trace t trace =
  Array.iter
    (fun r ->
      ignore (submit ~cls:r.Trace.cls t ~arrival:r.Trace.arrival r.Trace.payload))
    trace

let request_count t = t.n_reqs

let outcome t id =
  if id < 0 || id >= t.n_reqs then invalid_arg "Frontend.outcome: bad id";
  if not t.ran then Pending else t.out.(id)

let outcomes t = if t.ran then Array.copy t.out else Array.make t.n_reqs Pending

(* ---- stats ---- *)

type host_stats = {
  h_host : int;
  h_slots : int;
  h_steps : int;
  h_busy_slot_cycles : int;
  h_queue_depth_sum : int;
  h_queue_depth_max : int;
  h_queue_depth : Melastic.Histogram.t;
  h_admitted : int;
  h_violations : int;
}

type stats = {
  s_cycles : int;
  s_requests : int;
  s_completed : int;
  s_cache_hits : int;
  s_coalesced : int;
  s_retired : int;
  s_shed : int;
  s_timed_out : int;
  s_failed : int;
  s_dispatched : int;
  s_steals : int;
  s_latency : Melastic.Histogram.t;
  s_per_host : host_stats array;
  s_kq_bound : int;
  s_kq_max_observed : int;
  s_kq_dequeues : int;
  s_kq_violations : int;
  s_monitor_violations : int;
}

let occupancy h =
  if h.h_steps = 0 || h.h_slots = 0 then 0.
  else
    float_of_int h.h_busy_slot_cycles /. float_of_int (h.h_slots * h.h_steps)

let violations s = s.s_kq_violations + s.s_monitor_violations

let cache_hit_ratio s =
  if s.s_requests = 0 then 0.
  else float_of_int s.s_cache_hits /. float_of_int s.s_requests

(* ---- the cycle loop ---- *)

type ('job, 'res) running = {
  t : ('job, 'res) t;
  hosts : ('job, 'res) Serve.Host.t array;
  ring : Ring.t;
  kqs : 'job req Kqueue.t array; (* one per class *)
  cache : 'res Cache.t;
  (* key -> (primary id, waiting duplicate ids); bounded *)
  pending : (string, int * int list ref) Hashtbl.t;
  (* key -> ids dispatched past the front-end (kqueue or host) *)
  inflight : (string, int list ref) Hashtbl.t;
  host_of : (int, int) Hashtbl.t;
  admitted : int array;
  lat : Melastic.Histogram.t;
  mutable unresolved : int;
  mutable completed : int;
  mutable cache_hits : int;
  mutable coalesced : int;
  mutable retired : int;
  mutable shed : int;
  mutable timed_out : int;
  mutable failed : int;
  mutable dispatched : int;
  mutable steals : int;
}

let resolve r id o =
  if r.t.out.(id) = Pending then begin
    r.t.out.(id) <- o;
    r.unresolved <- r.unresolved - 1;
    match o with
    | Done { latency; via; _ } ->
        r.completed <- r.completed + 1;
        Melastic.Histogram.add r.lat latency;
        (match via with
        | Cache -> r.cache_hits <- r.cache_hits + 1
        | Coalesced -> r.coalesced <- r.coalesced + 1
        | Retired -> r.retired <- r.retired + 1
        | Host _ -> ())
    | Shed _ -> r.shed <- r.shed + 1
    | Timed_out _ -> r.timed_out <- r.timed_out + 1
    | Failed _ -> r.failed <- r.failed + 1
    | Pending -> assert false
  end

let drop_inflight r key id =
  match Hashtbl.find_opt r.inflight key with
  | None -> ()
  | Some ids ->
      ids := List.filter (fun i -> i <> id) !ids;
      if !ids = [] then Hashtbl.remove r.inflight key

(* A result for [key] landed: fill the cache, release coalesced
   waiters, and retire still-queued twins from host queues.  Twins
   already running are left alone — a launched token is not retracted
   — and resolve through their own completion. *)
let settle_key r ~now ~key ~(by_id : 'a req array) result =
  let cfg = r.t.cfg in
  if cfg.dedup then begin
    Cache.add r.cache key result;
    (match Hashtbl.find_opt r.pending key with
    | Some (_, waiters) ->
        List.iter
          (fun wid ->
            resolve r wid
              (Done
                 { result;
                   latency = max 1 (now - by_id.(wid).arrival);
                   via = Coalesced }))
          (List.rev !waiters);
        Hashtbl.remove r.pending key
    | None -> ());
    match Hashtbl.find_opt r.inflight key with
    | None -> ()
    | Some ids ->
        let keep =
          List.filter
            (fun id ->
              if r.t.out.(id) <> Pending then false
              else
                match Hashtbl.find_opt r.host_of id with
                | Some h
                  when Serve.Host.complete_external r.hosts.(h) ~id ->
                    resolve r id
                      (Done
                         { result;
                           latency = max 1 (now - by_id.(id).arrival);
                           via = Retired });
                    false
                | Some _ -> true (* running; its own completion resolves it *)
                | None -> true (* still in a kqueue; caught at dispatch *))
            !ids
        in
        if keep = [] then Hashtbl.remove r.inflight key else ids := keep
  end

let run ?pool ?(max_cycles = 1_000_000) t =
  if t.ran then invalid_arg "Frontend.run: already ran";
  t.ran <- true;
  t.out <- Array.make t.n_reqs Pending;
  let cfg = t.cfg in
  (* by_id: submission order = id order; reqs: arrival order *)
  let by_id = Array.of_list (List.rev t.submitted) in
  let reqs =
    let a = Array.copy by_id in
    Array.stable_sort (fun a b -> compare a.arrival b.arrival) a;
    a
  in
  let n_classes = List.length cfg.classes in
  let r =
    { t;
      hosts =
        Array.init cfg.n_hosts (fun i ->
            Serve.Host.create ~classes:cfg.classes (t.make_host i));
      ring = Ring.create ~virtual_nodes:cfg.virtual_nodes ~hosts:cfg.n_hosts ();
      kqs =
        Array.init n_classes (fun c ->
            Kqueue.create ~seed:(cfg.seed + c)
              ~name:
                (Printf.sprintf "kqueue:%s"
                   (List.nth cfg.classes c).Serve.Host.cname)
              ~segments:cfg.kq_segments ~k:cfg.kq_k ());
      cache = Cache.create ~capacity:cfg.cache_capacity;
      pending = Hashtbl.create 64;
      inflight = Hashtbl.create 64;
      host_of = Hashtbl.create 64;
      admitted = Array.make cfg.n_hosts 0;
      lat = Melastic.Histogram.create ();
      unresolved = t.n_reqs;
      completed = 0;
      cache_hits = 0;
      coalesced = 0;
      retired = 0;
      shed = 0;
      timed_out = 0;
      failed = 0;
      dispatched = 0;
      steals = 0 }
  in
  let track_inflight req =
    match Hashtbl.find_opt r.inflight req.key with
    | Some ids -> ids := req.id :: !ids
    | None -> Hashtbl.add r.inflight req.key (ref [ req.id ])
  in
  (* arrival: cache, then coalesce, then kqueue *)
  let arrive now req =
    let hit = if cfg.dedup then Cache.find r.cache req.key else None in
    match hit with
    | Some result -> resolve r req.id (Done { result; latency = 1; via = Cache })
    | None -> (
        match
          if cfg.dedup then Hashtbl.find_opt r.pending req.key else None
        with
        | Some (_, waiters) -> waiters := req.id :: !waiters
        | None ->
            if Kqueue.enqueue r.kqs.(req.cls) req then begin
              if cfg.dedup then begin
                track_inflight req;
                if Hashtbl.length r.pending < cfg.pending_capacity then
                  Hashtbl.add r.pending req.key (req.id, ref [])
                (* table full: this duplicate-to-be dispatches
                   independently; settle_key retires it later *)
              end
            end
            else resolve r req.id (Shed { at = now }))
  in
  (* dispatch: kqueue -> ring -> host admission *)
  let dispatch now =
    let budget = ref cfg.dispatch_per_cycle in
    let progress = ref true in
    while !budget > 0 && !progress do
      progress := false;
      for c = 0 to n_classes - 1 do
        if !budget > 0 then
          match Kqueue.dequeue r.kqs.(c) with
          | None -> ()
          | Some (req, _dist) ->
              progress := true;
              decr budget;
              if t.out.(req.id) = Pending then begin
                if cfg.dedup && Cache.mem r.cache req.key then begin
                  (* a twin's result landed while we queued *)
                  match Cache.find r.cache req.key with
                  | Some result ->
                      drop_inflight r req.key req.id;
                      resolve r req.id
                        (Done
                           { result;
                             latency = max 1 (now - req.arrival);
                             via = Cache })
                  | None -> assert false
                end
                else begin
                  let h = Ring.route r.ring req.key in
                  let ok =
                    Serve.Host.admit ~cls:req.cls ?deadline:cfg.deadline
                      ~retries:cfg.retries r.hosts.(h) ~id:req.id
                      ~arrival:req.arrival req.job
                  in
                  if ok then begin
                    Hashtbl.replace r.host_of req.id h;
                    r.admitted.(h) <- r.admitted.(h) + 1;
                    r.dispatched <- r.dispatched + 1
                  end
                  else begin
                    drop_inflight r req.key req.id;
                    (match Hashtbl.find_opt r.pending req.key with
                    | Some (prim, waiters) when prim = req.id ->
                        List.iter
                          (fun wid -> resolve r wid (Shed { at = now }))
                          (List.rev !waiters);
                        Hashtbl.remove r.pending req.key
                    | _ -> ());
                    resolve r req.id (Shed { at = now })
                  end
                end
              end
      done
    done
  in
  (* stealing: empty-queue hosts raid the most backed-up neighbor *)
  let steal_pass () =
    for thief = 0 to cfg.n_hosts - 1 do
      if Serve.Host.queue_depth r.hosts.(thief) = 0 then begin
        let victim = ref (-1) and depth = ref cfg.steal_threshold in
        for h = 0 to cfg.n_hosts - 1 do
          let d = Serve.Host.queue_depth r.hosts.(h) in
          if h <> thief && d > !depth then begin
            victim := h;
            depth := d
          end
        done;
        if !victim >= 0 then
          for _ = 1 to cfg.steal_batch do
            if
              Serve.Host.queue_depth r.hosts.(!victim) > cfg.steal_threshold
            then
              match Serve.Host.steal r.hosts.(!victim) with
              | Some q ->
                  if Serve.Host.admit_queued r.hosts.(thief) q then begin
                    Hashtbl.replace r.host_of q.Serve.Host.q_id thief;
                    r.admitted.(thief) <- r.admitted.(thief) + 1;
                    r.steals <- r.steals + 1
                  end
                  else
                    (* thief full (cannot happen from empty, but be
                       safe): hand it back *)
                    ignore (Serve.Host.admit_queued r.hosts.(!victim) q)
              | None -> ()
          done
      end
    done
  in
  let handle_event now host ev =
    match ev with
    | Serve.Host.Completed { id; result; latency; slot = _ } ->
        let key = by_id.(id).key in
        drop_inflight r key id;
        resolve r id (Done { result; latency; via = Host host });
        settle_key r ~now ~key ~by_id result
    | Serve.Host.Timed_out { id; tries } ->
        let key = by_id.(id).key in
        drop_inflight r key id;
        (match Hashtbl.find_opt r.pending key with
        | Some (prim, waiters) when prim = id ->
            List.iter
              (fun wid -> resolve r wid (Timed_out { tries }))
              (List.rev !waiters);
            Hashtbl.remove r.pending key
        | _ -> ());
        resolve r id (Timed_out { tries })
    | Serve.Host.Shed { id; at } ->
        let key = by_id.(id).key in
        drop_inflight r key id;
        (match Hashtbl.find_opt r.pending key with
        | Some (prim, waiters) when prim = id ->
            List.iter (fun wid -> resolve r wid (Shed { at })) (List.rev !waiters);
            Hashtbl.remove r.pending key
        | _ -> ());
        resolve r id (Shed { at })
  in
  let next_arrival = ref 0 in
  let cycle = ref 0 in
  while r.unresolved > 0 && !cycle < max_cycles do
    let now = !cycle in
    while
      !next_arrival < Array.length reqs
      && reqs.(!next_arrival).arrival <= now
    do
      arrive now reqs.(!next_arrival);
      incr next_arrival
    done;
    dispatch now;
    if cfg.stealing then steal_pass ();
    (* hosts are independent within a cycle: step them (optionally in
       parallel), then process events in host order — the processing
       order, not the stepping order, is what determinism needs *)
    let evs = Array.make cfg.n_hosts [] in
    (match pool with
    | Some p when cfg.n_hosts > 1 ->
        Parallel.Pool.run p
          (fun h -> evs.(h) <- Serve.Host.step r.hosts.(h))
          cfg.n_hosts
    | _ ->
        for h = 0 to cfg.n_hosts - 1 do
          evs.(h) <- Serve.Host.step r.hosts.(h)
        done);
    (* completions land at the post-step cycle *)
    for h = 0 to cfg.n_hosts - 1 do
      List.iter (handle_event (now + 1) h) evs.(h)
    done;
    incr cycle
  done;
  (* cycle-limit abort: fail whatever is left *)
  if r.unresolved > 0 then
    Array.iteri
      (fun id o -> if o = Pending then resolve r id (Failed "cycle limit"))
      t.out;
  Array.iter Serve.Host.finish r.hosts;
  let per_host =
    Array.mapi
      (fun i h ->
        let m = Serve.Host.metrics h in
        { h_host = i;
          h_slots = Serve.Host.slots h;
          h_steps = m.Serve.Host.m_steps;
          h_busy_slot_cycles = m.Serve.Host.m_busy_slot_cycles;
          h_queue_depth_sum = m.Serve.Host.m_queue_depth_sum;
          h_queue_depth_max = m.Serve.Host.m_queue_depth_max;
          h_queue_depth =
            Melastic.Profile.gauge_hist (Serve.Host.profile h) "queue_depth";
          h_admitted = r.admitted.(i);
          h_violations = Serve.Host.violations h })
      r.hosts
  in
  let kq_fold f init = Array.fold_left f init r.kqs in
  { s_cycles = !cycle;
    s_requests = t.n_reqs;
    s_completed = r.completed;
    s_cache_hits = r.cache_hits;
    s_coalesced = r.coalesced;
    s_retired = r.retired;
    s_shed = r.shed;
    s_timed_out = r.timed_out;
    s_failed = r.failed;
    s_dispatched = r.dispatched;
    s_steals = r.steals;
    s_latency = r.lat;
    s_per_host = per_host;
    s_kq_bound = cfg.kq_k - 1;
    s_kq_max_observed = kq_fold (fun a q -> max a (Kqueue.max_observed q)) 0;
    s_kq_dequeues = kq_fold (fun a q -> a + Kqueue.dequeues q) 0;
    s_kq_violations =
      kq_fold (fun a q -> a + List.length (Kqueue.violations q)) 0;
    s_monitor_violations =
      Array.fold_left (fun a h -> a + h.h_violations) 0 per_host }

let summary s =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "fleet: %d requests over %d cycles on %d hosts\n\
    \  done %d (cache %d, coalesced %d, retired %d)  shed %d  timed-out %d  \
     failed %d\n\
    \  dispatched %d  steals %d  cache hit ratio %.3f\n\
    \  latency p50/p95/p99 %d/%d/%d cycles (max %d)\n\
    \  kqueue relaxation: observed %d <= bound %d over %d dequeues (%d \
     violations)\n"
    s.s_requests s.s_cycles (Array.length s.s_per_host) s.s_completed
    s.s_cache_hits s.s_coalesced s.s_retired s.s_shed s.s_timed_out s.s_failed
    s.s_dispatched s.s_steals (cache_hit_ratio s)
    (Melastic.Histogram.percentile s.s_latency 0.50)
    (Melastic.Histogram.percentile s.s_latency 0.95)
    (Melastic.Histogram.percentile s.s_latency 0.99)
    (Melastic.Histogram.max_value s.s_latency)
    s.s_kq_max_observed s.s_kq_bound s.s_kq_dequeues s.s_kq_violations;
  Array.iter
    (fun h ->
      Printf.bprintf b
        "  host %d: %d admitted, occupancy %.2f, queue max %d%s\n" h.h_host
        h.h_admitted (occupancy h) h.h_queue_depth_max
        (if h.h_violations > 0 then
           Printf.sprintf "  [%d VIOLATIONS]" h.h_violations
         else ""))
    s.s_per_host;
  Printf.bprintf b "  monitor violations: %d\n" s.s_monitor_violations;
  Buffer.contents b
