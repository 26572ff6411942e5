(* Every BENCH_*.json report goes through [write]: it puts the
   envelope first ("experiment", then "quick" and "backend" when the
   run has them), prints the report with {!Melastic.Json}, and reads
   the file back.  The text on disk must parse and print back to
   itself, so every run that writes a report also proves it is valid
   JSON; anything else exits 1. *)

module Json = Melastic.Json

let write ?quick ?(backend = false) ~experiment file fields =
  let envelope =
    [ Some ("experiment", Json.String experiment);
      Option.map (fun q -> ("quick", Json.Bool q)) quick;
      (if backend then
         Some ("backend", Json.String (Hw.Sim.backend_to_string !Hw.Sim.default_backend))
       else None) ]
  in
  let text = Json.to_string (Json.Obj (List.filter_map Fun.id envelope @ fields)) in
  Out_channel.with_open_bin file (fun oc -> output_string oc text);
  let reread = In_channel.with_open_bin file In_channel.input_all in
  (match Json.of_string reread with
   | Ok v when Json.to_string v = text -> ()
   | Ok _ ->
     Printf.eprintf "FAIL %s: %s does not read back to the report written\n%!"
       experiment file;
     exit 1
   | Error e ->
     Printf.eprintf "FAIL %s: %s is not valid JSON: %s\n%!" experiment file e;
     exit 1);
  Printf.printf "wrote %s\n%!" file
