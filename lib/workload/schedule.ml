(* Capture of Fig. 5-style schedules: for every cycle, which thread's
   token crosses each probed multithreaded channel.

   Channels are observed through the outputs installed by
   [Mt_channel.probe] (or sink/source endpoints that export the same
   <name>_fire / <name>_data signals).  The per-cycle peek loop is
   [Hw.Sampler]'s; this module only keeps the per-probe token log. *)

type cell = { thread : int; data : Bits.t }

type probe_log = {
  probe : string;
  fire_slot : Hw.Sampler.slot;
  data_slot : Hw.Sampler.slot;
  mutable cells : (int * cell) list;
}

type t = {
  sampler : Hw.Sampler.t;
  threads : int;
  logs : probe_log list;
}

let attach sim ~threads ~probes =
  let sampler = Hw.Sampler.attach sim in
  let logs =
    List.map
      (fun p ->
        { probe = p;
          fire_slot = Hw.Sampler.watch sampler (Melastic.Names.fire p);
          data_slot = Hw.Sampler.watch sampler (Melastic.Names.data p);
          cells = [] })
      probes
  in
  let t = { sampler; threads; logs } in
  Hw.Sampler.on_sample sampler (fun smp ->
      let c = Hw.Sampler.cycle smp in
      List.iter
        (fun log ->
          let fire = Hw.Sampler.value log.fire_slot in
          if not (Bits.is_zero fire) then begin
            let data = Hw.Sampler.value log.data_slot in
            for i = 0 to threads - 1 do
              if Bits.bit fire i then log.cells <- (c, { thread = i; data }) :: log.cells
            done
          end)
        logs);
  t

let cell_at log c = List.assoc_opt c log.cells

(* Fig. 5 rendering: rows = probed channels, columns = cycles, cells =
   token tags ("A0", "B2", ...). *)
let render t ~from_cycle ~to_cycle =
  let rows =
    List.map
      (fun log ->
        ( log.probe,
          fun c ->
            Option.map (fun cell -> Trace.tag_to_string cell.data) (cell_at log c) ))
      t.logs
  in
  (* Re-base columns at [from_cycle]. *)
  let rows =
    List.map (fun (l, f) -> (l, fun c -> f (c + from_cycle))) rows
  in
  Trace.render_rows rows ~cycles:(to_cycle - from_cycle + 1)

(* The sequence of tokens seen at one probe, oldest first. *)
let tokens t ~probe =
  match List.find_opt (fun l -> l.probe = probe) t.logs with
  | None -> invalid_arg ("Schedule.tokens: unknown probe " ^ probe)
  | Some log -> List.rev_map (fun (c, cell) -> (c, cell)) log.cells
