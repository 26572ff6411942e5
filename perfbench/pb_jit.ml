(* JIT cache discipline.  Every kernel is primed (compiled or loaded
   from the disk cache) before timing starts; afterwards each
   [Sim.create] must find its kernel cached and run it natively.  A
   create that compiled or fell back to threaded code would put a
   cold build (seconds) or a slower kernel into the figures, so it
   invalidates the run instead. *)

let problems : string list ref = ref []

let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

let timing = ref false

(* Call right after a create; only creates inside the timed part are
   held to the discipline (priming may build). *)
let check what =
  if !timing then
    match Hw.Sim_jit.last_build () with
    | None -> note "%s: no JIT build recorded" what
    | Some b ->
        (match b.Hw.Sim_jit.bmode with
        | Hw.Sim_jit.Native -> ()
        | Hw.Sim_jit.Fallback reason ->
            note "%s: threaded-code fallback (%s)" what reason);
        if not (b.Hw.Sim_jit.process_cache_hit || b.Hw.Sim_jit.disk_cache_hit)
        then note "%s: compiled a kernel inside the timed part" what

(* Each timed set-up starts from the disk-cache layer, as a fresh
   process would (code already linked is reused, not reloaded). *)
let before_setup () = Hw.Sim_jit.clear_process_cache ()

let misses_at_start = ref 0

let start_timing () =
  timing := true;
  misses_at_start := snd (Hw.Sim_jit.cache_counters ())

let finish_timing () =
  timing := false;
  let misses = snd (Hw.Sim_jit.cache_counters ()) in
  if misses > !misses_at_start then
    note "%d disk-cache misses inside the timed part" (misses - !misses_at_start)

let valid () = !problems = []
