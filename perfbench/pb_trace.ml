(* Tracing from outside the program: spans around coarse calls into
   each layer, and per-layer accumulators for per-cycle calls.

   Spans are kept in memory and written as Chrome trace-event JSON at
   the end of a run.  Per-cycle calls (a replica's [step], a host's
   [Host.step]) get no span each; they add host time, a call count and
   [Gc.minor_words] into one accumulator per layer.  When tracing is
   off, [span] is a plain call and the accumulators are never
   touched. *)

let on = ref false

(* All-float record: updates stay unboxed. *)
type acc = { mutable secs : float; mutable words : float; mutable calls : float }

let acc () = { secs = 0.; words = 0.; calls = 0. }

let time a f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  a.secs <- a.secs +. (Unix.gettimeofday () -. t0);
  a.words <- a.words +. (Gc.minor_words () -. w0);
  a.calls <- a.calls +. 1.;
  r

type span = {
  id : int;
  parent : int;
  name : string;
  t0 : float;
  t1 : float;
  job : int;  (** request id, or -1 *)
  args : (string * string) list;
}

let spans : span list ref = ref []
let next_id = ref 1
let stack = ref [ 0 ]
let origin = ref (Unix.gettimeofday ())

let reset () =
  spans := [];
  next_id := 1;
  stack := [ 0 ];
  origin := Unix.gettimeofday ()

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let span ?(args = []) name f =
  if not !on then f ()
  else begin
    let id = fresh () in
    let parent = List.hd !stack in
    stack := id :: !stack;
    let t0 = Unix.gettimeofday () in
    let finish () =
      stack := List.tl !stack;
      spans :=
        { id; parent; name; t0; t1 = Unix.gettimeofday (); job = -1; args }
        :: !spans
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(* A request's span, admit to completion, under the current span. *)
let request ~job ~t0 ~t1 ~args =
  if !on then
    spans :=
      { id = fresh (); parent = List.hd !stack; name = "request"; t0; t1; job;
        args }
      :: !spans

let write path ~layers =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let us t = (t -. !origin) *. 1e6 in
      output_string oc "{\"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \
             \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": \
             %d, \"job\": %d%s}}"
            (if i = 0 then "" else ",\n")
            (Pb_util.json_string s.name)
            (if s.job < 0 then 1 else 2)
            (us s.t0)
            ((s.t1 -. s.t0) *. 1e6)
            s.id s.parent s.job
            (String.concat ""
               (List.map
                  (fun (k, v) ->
                    Printf.sprintf ", %s: %s" (Pb_util.json_string k)
                      (Pb_util.json_string v))
                  s.args)))
        (List.rev !spans);
      output_string oc "\n],\n\"layers\": {";
      List.iteri
        (fun i (name, a) ->
          Printf.fprintf oc
            "%s\n  %s: {\"seconds\": %s, \"calls\": %.0f, \"minor_words\": %.0f}"
            (if i = 0 then "" else ",")
            (Pb_util.json_string name) (Pb_util.json_float a.secs) a.calls
            a.words)
        layers;
      output_string oc "\n}}\n")
