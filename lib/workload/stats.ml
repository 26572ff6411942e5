(* Channel and buffer statistics: per-cycle sampling of named signals
   into histograms and utilization summaries.  Used by the benches to
   report slot occupancy (the quantity the reduced MEB trades away)
   and channel activity next to the Fig. 5 schedules.

   The per-cycle loop itself lives in [Hw.Sampler]; the summary
   arithmetic now lives in [Melastic.Profile]: every watched signal
   feeds a named profile gauge, and mean / maximum / utilization read
   the gauge's exact sum / max / nonzero counters.  The sampler still
   retains the full per-cycle series, which [samples] and the exact
   small-value [histogram] report from directly. *)

type t = {
  sampler : Hw.Sampler.t;
  profile : Melastic.Profile.t;
  signals : string list;
}

(* Sample the named signals (ints) at the end of every cycle. *)
let attach sim ~signals =
  let sampler = Hw.Sampler.attach sim in
  let profile = Melastic.Profile.attach sampler in
  let slots = List.map (fun name -> (name, Hw.Sampler.record sampler name)) signals in
  Melastic.Profile.on_sample profile (fun p ->
      List.iter
        (fun (name, slot) ->
          Melastic.Profile.observe p name (Hw.Sampler.value_int slot))
        slots);
  { sampler; profile; signals }

let profile t = t.profile

let check t name =
  if not (List.mem name t.signals) then invalid_arg ("Stats: unknown series " ^ name)

let samples t name =
  check t name;
  Hw.Sampler.series_int t.sampler name

let gauge t name =
  check t name;
  Melastic.Profile.gauge_hist t.profile name

let mean t name = Melastic.Histogram.mean (gauge t name)
let maximum t name = Melastic.Histogram.max_value (gauge t name)

(* Histogram as (value, count) pairs, ascending — exact (from the
   retained series, not the quantized gauge buckets). *)
let histogram t name =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun v -> Hashtbl.replace tbl v (1 + Option.value ~default:0 (Hashtbl.find_opt tbl v)))
    (samples t name);
  Hashtbl.fold (fun v c acc -> (v, c) :: acc) tbl []
  |> List.sort compare

(* Fraction of sampled cycles with a non-zero value — e.g. channel
   utilization when sampling a fire signal. *)
let utilization t name =
  let h = gauge t name in
  let n = Melastic.Histogram.count h in
  if n = 0 then 0.0
  else float_of_int (Melastic.Histogram.nonzero h) /. float_of_int n

let pp_histogram fmt (t, name) =
  Format.fprintf fmt "%s: mean %.2f, max %d@." name (mean t name) (maximum t name);
  let h = histogram t name in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 h in
  List.iter
    (fun (v, c) ->
      let pct = 100.0 *. float_of_int c /. float_of_int total in
      let bar = String.make (int_of_float (pct /. 2.0)) '#' in
      Format.fprintf fmt "  %3d | %5.1f%% %s@." v pct bar)
    h

let report t =
  Format.asprintf "%a"
    (fun fmt () ->
      List.iter (fun name -> pp_histogram fmt (t, name)) t.signals)
    ()
