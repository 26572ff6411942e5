(* Shared helpers: host clock, medians, peak RSS, host time at a
   reference speed, output files and JSON text. *)

let now = Unix.gettimeofday

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* High-water mark of the resident set (VmHWM, kB) on Linux; elsewhere
   the OCaml heap's peak, which undercounts code and C allocations. *)
let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
              Scanf.sscanf
                (String.sub l 6 (String.length l - 6))
                " %d" (fun kb -> Some (float_of_int kb /. 1024.))
          | _ -> go ()
          | exception End_of_file -> None
        in
        go ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.

(* ---- host time at a reference speed ----

   The shared machine this benchmark was tuned on changes speed by up
   to 2x for tens of seconds at a time: a fixed ALU loop took 148 to
   284 ms within 40 s, and whole 20-second runs came out 30-60% slow.
   No estimator inside a run removes a slow phase that outlasts it.
   So the end-to-end host times are scaled to a nominal machine speed.
   While a timed part runs, a timer signal every 50 ms times a fixed
   piece of reference work that does not depend on the code under
   test; the part's host time, minus the samples' own time, is scaled
   by nominal / median sample. *)

(* Pseudo-random reads and writes over a 128 KiB array plus integer
   arithmetic; returns its host time. *)
let ref_buf = Array.make 16384 0

let ref_time () =
  let t0 = now () in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 100_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land 16383 in
    acc := !acc + ref_buf.(i);
    ref_buf.(i) <- !acc land 0xffff
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* The reference's median time on the 2-core VM the bounds were set on. *)
let ref_nominal = 2.6e-4

type sampler = { mutable samples : float list; mutable spent : float }

let sampling : sampler option ref = ref None

(* Every sample of the run, for the envelope. *)
let all_samples : float list ref = ref []

let sample s =
  let t0 = now () in
  let r = ref_time () in
  s.samples <- r :: s.samples;
  all_samples := r :: !all_samples;
  s.spent <- s.spent +. (now () -. t0)

let () =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle (fun _ -> Option.iter sample !sampling))

let set_timer dt =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = dt; it_value = dt })

type timed = {
  raw_s : float;  (** host time, the samples' time taken out *)
  speed : float;  (** median reference time during the part *)
}

(* Runs [f] with the sampler on. *)
let timed f =
  let s = { samples = []; spent = 0. } in
  sample s;
  s.spent <- 0.;
  sampling := Some s;
  set_timer 0.05;
  let t0 = now () in
  let r =
    Fun.protect
      ~finally:(fun () ->
        set_timer 0.;
        sampling := None)
      f
  in
  let raw_s = now () -. t0 -. s.spent in
  sample s;
  (r, { raw_s; speed = median s.samples })

(* Host seconds [t] measured at reference time [speed], at nominal
   speed. *)
let at_nominal t ~speed = t *. ref_nominal /. speed

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  go dir

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Outputs of a run (traces, throwaway JIT caches) go under this
   directory of the working directory. *)
let out_dir = ".perfbench_out"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* All digits of a measured value; JSON has no NaN or infinity. *)
let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "json_float: non-finite value"
