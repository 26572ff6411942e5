(* The single channel-profile spine.

   Every layer that used to keep private measurement loops — the
   monitor's scoreboard sampling, Workload.Stats, the serve engine's
   queue gauges, the NoC driver's per-link counters — now records into
   one of these.  A profile has two halves sharing one representation:

   - a hardware half, attached to an {!Hw.Sampler}: watched channels
     (valid/ready/fire vectors named through {!Names}, optional data
     word and occupancy export) are folded into per-channel activity /
     stall / backpressure counters and occupancy histograms in a
     single registered per-cycle listener;

   - a host half: named gauges, each a {!Histogram}, fed by [observe]
     from plain software (queue depths, busy slots, in-flight...).

   Either half serializes to the same JSON schema, so a profile taken
   from a workload run can be saved, inspected offline (`elsim
   profile`) and handed to {!Synth.Retime} as the input of the
   buffer-placement pass. *)

module H = Histogram

type channel_stats = {
  cs_threads : int;
  mutable cs_fires : int;
  cs_fires_per_thread : int array;
  mutable cs_active_cycles : int;
  mutable cs_stall_cycles : int;
  mutable cs_backpressure_cycles : int;
  mutable cs_idle_cycles : int;
  cs_occupancy : H.t option;
}

(* Which endpoint exports the channel actually has: hand-built test
   netlists legally export a subset (a poked valid with no fire, a
   fire/data pair with no ready), so the watcher keeps a sampler slot
   for each endpoint that resolved and the per-cycle update computes
   only the statistics those signals support (deriving fire = valid &
   ready when both exist with equal widths).  Handshake vectors are one
   bit per thread, so they are read as ints. *)
type chan = {
  ch_stats : channel_stats;
  ch_valid : Hw.Sampler.slot option;
  ch_ready : Hw.Sampler.slot option;
  ch_fire : Hw.Sampler.slot option;
  ch_derive_fire : bool; (* no fire export: fire = valid & ready *)
  ch_fire_threads : int; (* threads counted per thread: min S (fire width) *)
  ch_bp_mask : int; (* threads covered by valid and ready, for backpressure *)
  ch_occ : Hw.Sampler.slot option;
}

type t = {
  sampler : Hw.Sampler.t option;
  mutable cycles : int;
  channels : (string, chan) Hashtbl.t;
  mutable channel_order : string list; (* reversed *)
  mutable live : chan array; (* watched channels, watch order *)
  gauges : (string, H.t) Hashtbl.t;
  mutable gauge_order : string list; (* reversed *)
}

let make sampler =
  {
    sampler;
    cycles = 0;
    channels = Hashtbl.create 16;
    channel_order = [];
    live = [||];
    gauges = Hashtbl.create 16;
    gauge_order = [];
  }

let create () = make None

(* ---------- hardware half ---------- *)

let require_sampler t =
  match t.sampler with
  | Some s -> s
  | None -> invalid_arg "Profile: host-only profile has no sampler"

let sampler t = t.sampler
let cycles t = t.cycles

let read = function Some s -> Hw.Sampler.value_int s | None -> 0

let update_channel ch =
  let st = ch.ch_stats in
  let v = read ch.ch_valid in
  let f = if ch.ch_derive_fire then v land read ch.ch_ready else read ch.ch_fire in
  let nf = Bits.popcount_int f in
  if nf > 0 then begin
    st.cs_fires <- st.cs_fires + nf;
    st.cs_active_cycles <- st.cs_active_cycles + 1;
    for i = 0 to ch.ch_fire_threads - 1 do
      if f land (1 lsl i) <> 0 then
        st.cs_fires_per_thread.(i) <- st.cs_fires_per_thread.(i) + 1
    done
  end;
  if Option.is_some ch.ch_valid then begin
    if v = 0 then st.cs_idle_cycles <- st.cs_idle_cycles + 1
    else if nf = 0 then st.cs_stall_cycles <- st.cs_stall_cycles + 1
  end;
  if v land lnot (read ch.ch_ready) land ch.ch_bp_mask <> 0 then
    st.cs_backpressure_cycles <- st.cs_backpressure_cycles + 1;
  match (ch.ch_occ, st.cs_occupancy) with
  | Some occ, Some hist -> H.add hist (Hw.Sampler.value_int occ)
  | _ -> ()

let attach s =
  let t = make (Some s) in
  Hw.Sampler.on_sample s (fun _ ->
      t.cycles <- t.cycles + 1;
      Array.iter update_channel t.live);
  t

let try_watch s name =
  match Hw.Sampler.watch s name with
  | slot ->
    if not (Hw.Sampler.is_narrow slot) then
      invalid_arg
        (Printf.sprintf "Profile.watch_channel: %s is %d bits wide (one bit per thread, at most %d)"
           name (Hw.Sampler.width slot) Bits.max_int_width);
    Some slot
  | exception Hw.Sim_intf.Unknown_signal _ -> None

(* Low [n] bits set. *)
let low_mask n = if n <= 0 then 0 else (1 lsl n) - 1

let watch_channel ?(data = false) ?(occupancy = false) t ~name ~threads =
  let s = require_sampler t in
  if not (Hashtbl.mem t.channels name) then begin
    let valid = try_watch s (Names.valid name) in
    let ready = try_watch s (Names.ready name) in
    let fire = try_watch s (Names.fire name) in
    (* [data]/[occupancy] are explicit requests, so a missing export is
       an eager error (with the backend's near-miss diagnostics), not
       a silent degradation. *)
    if data then ignore (Hw.Sampler.watch s (Names.data name));
    let occ =
      if occupancy then Some (Hw.Sampler.watch s (Names.occupancy name)) else None
    in
    let width = Option.map Hw.Sampler.width in
    let derive_fire =
      fire = None
      && (match (width valid, width ready) with
          | Some wv, Some wr -> wv = wr
          | _ -> false)
    in
    let fire_width =
      match (fire, valid) with
      | Some f, _ -> Hw.Sampler.width f
      | None, Some v when derive_fire -> Hw.Sampler.width v
      | _ -> 0
    in
    let bp_mask =
      match (width valid, width ready) with
      | Some wv, Some wr -> low_mask (min threads (min wv wr))
      | _ -> 0
    in
    let stats =
      {
        cs_threads = threads;
        cs_fires = 0;
        cs_fires_per_thread = Array.make threads 0;
        cs_active_cycles = 0;
        cs_stall_cycles = 0;
        cs_backpressure_cycles = 0;
        cs_idle_cycles = 0;
        cs_occupancy = (if occupancy then Some (H.create ()) else None);
      }
    in
    let ch =
      { ch_stats = stats; ch_valid = valid; ch_ready = ready; ch_fire = fire;
        ch_derive_fire = derive_fire;
        ch_fire_threads = min threads fire_width;
        ch_bp_mask = bp_mask; ch_occ = occ }
    in
    Hashtbl.add t.channels name ch;
    t.channel_order <- name :: t.channel_order;
    t.live <- Array.append t.live [| ch |]
  end
  else if data then
    (* idempotent upgrade: a later watcher may also need the data word *)
    ignore (Hw.Sampler.watch s (Names.data name))

let on_sample t f =
  let s = require_sampler t in
  Hw.Sampler.on_sample s (fun _ -> f t)

(* ---------- channel statistics ---------- *)

let channel_names t = List.rev t.channel_order

let channel t name =
  match Hashtbl.find_opt t.channels name with
  | Some ch -> Some ch.ch_stats
  | None -> None

let activity t cs =
  if t.cycles = 0 then 0.0
  else float_of_int cs.cs_active_cycles /. float_of_int t.cycles

let throughput t cs =
  if t.cycles = 0 then 0.0 else float_of_int cs.cs_fires /. float_of_int t.cycles

let peak_occupancy cs =
  match cs.cs_occupancy with Some h -> H.max_value h | None -> 0

(* ---------- host gauges ---------- *)

let gauge_hist t name =
  match Hashtbl.find_opt t.gauges name with
  | Some h -> h
  | None ->
    let h = H.create () in
    Hashtbl.add t.gauges name h;
    t.gauge_order <- name :: t.gauge_order;
    h

let observe t name v = H.add (gauge_hist t name) v
let gauge_names t = List.rev t.gauge_order
let gauge t name = Hashtbl.find_opt t.gauges name

(* ---------- JSON ---------- *)

let hist_json h =
  Json.Obj
    [ ("count", Json.Int (H.count h));
      ("sum", Json.Int (H.sum h));
      ("max", Json.Int (H.max_value h));
      ( "buckets",
        Json.List
          (List.map (fun (edge, c) -> Json.List [ Json.Int edge; Json.Int c ]) (H.buckets h)) ) ]

let to_json t =
  let channel name =
    let cs = (Hashtbl.find t.channels name).ch_stats in
    Json.Obj
      [ ("name", Json.String name);
        ("threads", Json.Int cs.cs_threads);
        ("fires", Json.Int cs.cs_fires);
        ( "fires_per_thread",
          Json.List (Array.to_list (Array.map (fun n -> Json.Int n) cs.cs_fires_per_thread)) );
        ("active_cycles", Json.Int cs.cs_active_cycles);
        ("stall_cycles", Json.Int cs.cs_stall_cycles);
        ("backpressure_cycles", Json.Int cs.cs_backpressure_cycles);
        ("idle_cycles", Json.Int cs.cs_idle_cycles);
        ("occupancy", Option.fold ~none:Json.Null ~some:hist_json cs.cs_occupancy) ]
  in
  let gauge name =
    Json.Obj
      [ ("name", Json.String name); ("hist", hist_json (Hashtbl.find t.gauges name)) ]
  in
  Json.to_string
    (Json.Obj
       [ ("cycles", Json.Int t.cycles);
         ("channels", Json.List (List.map channel (channel_names t)));
         ("gauges", Json.List (List.map gauge (gauge_names t))) ])

let save t path = Out_channel.with_open_text path (fun oc -> output_string oc (to_json t))

(* Schema decoding.  Each reader takes the path of the value it reads
   ("$.channels[1].fires"), so a mismatch names the offending field. *)

exception Mismatch of string

let mismatch path what =
  raise (Mismatch (Printf.sprintf "Profile.of_json: %s: expected %s" path what))

let as_int path = function Json.Int i -> i | _ -> mismatch path "an integer"
let as_string path = function Json.String s -> s | _ -> mismatch path "a string"

let as_list item path = function
  | Json.List l -> List.mapi (fun i v -> item (Printf.sprintf "%s[%d]" path i) v) l
  | _ -> mismatch path "a list"

let field item path name = function
  | Json.Obj members -> (
    let path = path ^ "." ^ name in
    match List.assoc_opt name members with
    | Some v -> item path v
    | None -> mismatch path "a field")
  | _ -> mismatch path "an object"

let as_hist path j =
  let bucket path = function
    | Json.List [ Json.Int edge; Json.Int c ] -> (edge, c)
    | _ -> mismatch path "an [edge, count] pair"
  in
  H.of_buckets ~sum:(field as_int path "sum" j) ~max_value:(field as_int path "max" j)
    (field (as_list bucket) path "buckets" j)

let unique tbl path j =
  let name = field as_string path "name" j in
  if Hashtbl.mem tbl name then mismatch (path ^ ".name") "a name not used before";
  name

let of_json str =
  let t = create () in
  let channel path c =
    let name = unique t.channels path c in
    let counter k = field as_int path k c in
    let threads = counter "threads" in
    let fires_per_thread = Array.of_list (field (as_list as_int) path "fires_per_thread" c) in
    if Array.length fires_per_thread <> threads then
      mismatch (path ^ ".fires_per_thread") (Printf.sprintf "%d entries" threads);
    let occupancy p = function Json.Null -> None | j -> Some (as_hist p j) in
    let stats =
      {
        cs_threads = threads;
        cs_fires = counter "fires";
        cs_fires_per_thread = fires_per_thread;
        cs_active_cycles = counter "active_cycles";
        cs_stall_cycles = counter "stall_cycles";
        cs_backpressure_cycles = counter "backpressure_cycles";
        cs_idle_cycles = counter "idle_cycles";
        cs_occupancy = field occupancy path "occupancy" c;
      }
    in
    Hashtbl.add t.channels name
      { ch_stats = stats; ch_valid = None; ch_ready = None; ch_fire = None;
        ch_derive_fire = false; ch_fire_threads = 0; ch_bp_mask = 0;
        ch_occ = None };
    t.channel_order <- name :: t.channel_order
  in
  let gauge path g =
    let name = unique t.gauges path g in
    Hashtbl.add t.gauges name (field as_hist path "hist" g);
    t.gauge_order <- name :: t.gauge_order
  in
  match Json.of_string str with
  | Error e -> Error ("Profile.of_json: " ^ e)
  | Ok j -> (
    try
      t.cycles <- field as_int "$" "cycles" j;
      ignore (field (as_list channel) "$" "channels" j);
      ignore (field (as_list gauge) "$" "gauges" j);
      Ok t
    with Mismatch msg -> Error msg)

(* Fold the hardware channels and host gauges of [src] into [into]'s
   gauges, prefixing channel-derived gauges — used by the fleet layer
   to aggregate per-host profiles. *)
let merge_gauges ~into src =
  List.iter
    (fun name ->
      match gauge src name with
      | Some h -> H.merge_into ~into:(gauge_hist into name) h
      | None -> ())
    (gauge_names src)
