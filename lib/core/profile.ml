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

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let hist_to_json h =
  let bs =
    H.buckets h
    |> List.map (fun (edge, c) -> Printf.sprintf "[%d,%d]" edge c)
    |> String.concat ","
  in
  Printf.sprintf {|{"count":%d,"sum":%d,"max":%d,"buckets":[%s]}|} (H.count h)
    (H.sum h) (H.max_value h) bs

let to_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "{\n  \"cycles\": %d,\n  \"channels\": [" t.cycles);
  let first = ref true in
  List.iter
    (fun name ->
      let cs = (Hashtbl.find t.channels name).ch_stats in
      if not !first then Buffer.add_char b ',';
      first := false;
      let fpt =
        Array.to_list cs.cs_fires_per_thread
        |> List.map string_of_int |> String.concat ","
      in
      Buffer.add_string b
        (Printf.sprintf
           "\n    {\"name\":\"%s\",\"threads\":%d,\"fires\":%d,\"fires_per_thread\":[%s],\"active_cycles\":%d,\"stall_cycles\":%d,\"backpressure_cycles\":%d,\"idle_cycles\":%d,\"occupancy\":%s}"
           (escape name) cs.cs_threads cs.cs_fires fpt cs.cs_active_cycles
           cs.cs_stall_cycles cs.cs_backpressure_cycles cs.cs_idle_cycles
           (match cs.cs_occupancy with
           | Some h -> hist_to_json h
           | None -> "null")))
    (channel_names t);
  Buffer.add_string b "\n  ],\n  \"gauges\": [";
  first := true;
  List.iter
    (fun name ->
      let h = Hashtbl.find t.gauges name in
      if not !first then Buffer.add_char b ',';
      first := false;
      Buffer.add_string b
        (Printf.sprintf "\n    {\"name\":\"%s\",\"hist\":%s}" (escape name)
           (hist_to_json h)))
    (gauge_names t);
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

let save t path =
  let oc = open_out path in
  output_string oc (to_json t);
  close_out oc

(* Minimal JSON reader — just enough for the schema [to_json] emits
   (objects, arrays, strings, integers, null).  Keeping it local
   avoids a parsing dependency the container doesn't have. *)

type json =
  | J_null
  | J_bool of bool
  | J_int of int
  | J_string of string
  | J_list of json list
  | J_obj of (string * json) list

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "Profile.load: %s at offset %d" msg !pos) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if !pos >= n then fail "bad escape";
        (match s.[!pos] with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          if !pos + 4 >= n then fail "bad \\u escape";
          let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
          pos := !pos + 4;
          Buffer.add_char b (Char.chr (code land 0xff))
        | c -> Buffer.add_char b c);
        incr pos;
        go ()
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> J_string (parse_string ())
    | Some '{' ->
      expect '{';
      skip_ws ();
      if peek () = Some '}' then (incr pos; J_obj [])
      else begin
        let fields = ref [] in
        let rec members () =
          let k = (skip_ws (); parse_string ()) in
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos; members ()
          | Some '}' -> incr pos
          | _ -> fail "expected ',' or '}'"
        in
        members ();
        J_obj (List.rev !fields)
      end
    | Some '[' ->
      expect '[';
      skip_ws ();
      if peek () = Some ']' then (incr pos; J_list [])
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos; elements ()
          | Some ']' -> incr pos
          | _ -> fail "expected ',' or ']'"
        in
        elements ();
        J_list (List.rev !items)
      end
    | Some 't' -> pos := !pos + 4; J_bool true
    | Some 'f' -> pos := !pos + 5; J_bool false
    | Some 'n' -> pos := !pos + 4; J_null
    | Some _ ->
      let start = !pos in
      while
        !pos < n
        && (match s.[!pos] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false)
      do
        incr pos
      done;
      if !pos = start then fail "unexpected character";
      let lit = String.sub s start (!pos - start) in
      (try J_int (int_of_string lit)
       with _ -> J_int (int_of_float (float_of_string lit)))
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  v

let j_field name = function
  | J_obj fields -> List.assoc_opt name fields
  | _ -> None

let j_int ?(default = 0) j = match j with Some (J_int i) -> i | _ -> default

let j_hist j =
  match j with
  | Some (J_obj _ as o) ->
    let buckets =
      match j_field "buckets" o with
      | Some (J_list items) ->
        List.filter_map
          (function J_list [ J_int e; J_int c ] -> Some (e, c) | _ -> None)
          items
      | _ -> []
    in
    Some
      (H.of_buckets
         ~sum:(j_int (j_field "sum" o))
         ~max_value:(j_int (j_field "max" o))
         buckets)
  | _ -> None

let of_json str =
  let j = parse_json str in
  let t = create () in
  t.cycles <- j_int (j_field "cycles" j);
  (match j_field "channels" j with
  | Some (J_list chans) ->
    List.iter
      (fun c ->
        match j_field "name" c with
        | Some (J_string name) ->
          let threads = j_int ~default:1 (j_field "threads" c) in
          let fpt =
            match j_field "fires_per_thread" c with
            | Some (J_list items) ->
              let a = Array.make (max threads (List.length items)) 0 in
              List.iteri (fun i v -> a.(i) <- j_int (Some v)) items;
              a
            | _ -> Array.make threads 0
          in
          let stats =
            {
              cs_threads = threads;
              cs_fires = j_int (j_field "fires" c);
              cs_fires_per_thread = fpt;
              cs_active_cycles = j_int (j_field "active_cycles" c);
              cs_stall_cycles = j_int (j_field "stall_cycles" c);
              cs_backpressure_cycles = j_int (j_field "backpressure_cycles" c);
              cs_idle_cycles = j_int (j_field "idle_cycles" c);
              cs_occupancy = j_hist (j_field "occupancy" c);
            }
          in
          Hashtbl.add t.channels name
            { ch_stats = stats; ch_valid = None; ch_ready = None; ch_fire = None;
              ch_derive_fire = false; ch_fire_threads = 0; ch_bp_mask = 0;
              ch_occ = None };
          t.channel_order <- name :: t.channel_order
        | _ -> ())
      chans
  | _ -> ());
  (match j_field "gauges" j with
  | Some (J_list gs) ->
    List.iter
      (fun g ->
        match (j_field "name" g, j_hist (j_field "hist" g)) with
        | Some (J_string name), Some h ->
          Hashtbl.add t.gauges name h;
          t.gauge_order <- name :: t.gauge_order
        | _ -> ())
      gs
  | _ -> ());
  t

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let str = really_input_string ic len in
  close_in ic;
  of_json str

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
