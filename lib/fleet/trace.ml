type request = { arrival : int; payload : string; cls : int }

type phase =
  | Steady of { cycles : int; rate : float }
  | Ramp of { cycles : int; rate0 : float; rate1 : float }
  | Burst of {
      cycles : int;
      base : float;
      peak : float;
      period : int;
      width : int;
    }

let phase_cycles phases =
  List.fold_left
    (fun acc p ->
      acc
      +
      match p with
      | Steady { cycles; _ } | Ramp { cycles; _ } | Burst { cycles; _ } ->
          cycles)
    0 phases

let scale f phases =
  List.map
    (function
      | Steady s -> Steady { s with rate = s.rate *. f }
      | Ramp r -> Ramp { r with rate0 = r.rate0 *. f; rate1 = r.rate1 *. f }
      | Burst b -> Burst { b with base = b.base *. f; peak = b.peak *. f })
    phases

(* rate at cycle c within a phase of length [cycles] *)
let rate_at p c =
  match p with
  | Steady { rate; _ } -> rate
  | Ramp { cycles; rate0; rate1 } ->
      let t = if cycles <= 1 then 1. else float_of_int c /. float_of_int (cycles - 1) in
      rate0 +. ((rate1 -. rate0) *. t)
  | Burst { base; peak; period; width; _ } ->
      if c mod period < width then peak else base

type payload_model = {
  hot_keys : int;
  hot_fraction : float;
  zipf_s : float;
  size_alpha : float;
  max_size : int;
  classes : int;
}

let default_model =
  { hot_keys = 32;
    hot_fraction = 0.6;
    zipf_s = 1.1;
    size_alpha = 1.3;
    max_size = 256;
    classes = 1 }

(* Zipf over ranks 1..n by inverse-CDF on the precomputed harmonic
   partial sums. *)
let zipf_cdf ~s ~n =
  let w = Array.init n (fun i -> 1. /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw cdf u =
  let n = Array.length cdf in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

(* Pareto(alpha) size in [1, max], by inversion. *)
let pareto_size rng ~alpha ~max_size =
  let u = Random.State.float rng 1.0 in
  let u = if u <= 0. then epsilon_float else u in
  let s = int_of_float (Float.pow u (-1. /. alpha)) in
  max 1 (min max_size s)

(* Hot payloads must be a function of the key alone so repeats are
   byte-identical; derive the padding length from the key's digest. *)
let hot_payload m rank =
  let key = Printf.sprintf "hot-%d" rank in
  let size = 1 + (Ring.hash_string key mod m.max_size) in
  Printf.sprintf "%s:%s" key (String.make size 'h')

let poisson_draw rng lambda =
  (* Knuth's product method; fine for the per-cycle rates we use. *)
  let l = exp (-.lambda) in
  let k = ref 0 and p = ref 1.0 in
  let continue = ref true in
  while !continue do
    p := !p *. Random.State.float rng 1.0;
    if !p > l then incr k else continue := false
  done;
  !k

let generate ?(model = default_model) ~seed ~phases () =
  let m = model in
  if m.hot_keys < 1 then invalid_arg "Trace.generate: hot_keys < 1";
  if m.classes < 1 then invalid_arg "Trace.generate: classes < 1";
  let rng = Random.State.make [| 0xf1ee7; seed |] in
  let cdf = zipf_cdf ~s:m.zipf_s ~n:m.hot_keys in
  let out = ref [] in
  let n = ref 0 in
  let cold = ref 0 in
  let base = ref 0 in
  List.iter
    (fun p ->
      let cycles =
        match p with
        | Steady { cycles; _ } | Ramp { cycles; _ } | Burst { cycles; _ } ->
            cycles
      in
      for c = 0 to cycles - 1 do
        let lambda = rate_at p c in
        if lambda > 0. then
          for _ = 1 to poisson_draw rng lambda do
            let hot = Random.State.float rng 1.0 < m.hot_fraction in
            let payload =
              if hot then
                hot_payload m (zipf_draw cdf (Random.State.float rng 1.0))
              else begin
                incr cold;
                let size =
                  pareto_size rng ~alpha:m.size_alpha ~max_size:m.max_size
                in
                Printf.sprintf "cold-%d:%s" !cold (String.make size 'c')
              end
            in
            let cls =
              if m.classes = 1 then 0 else Random.State.int rng m.classes
            in
            out := { arrival = !base + c; payload; cls } :: !out;
            incr n
          done
      done;
      base := !base + cycles)
    phases;
  let arr = Array.of_list (List.rev !out) in
  (* rev keeps draw order; arrivals are already non-decreasing *)
  arr

let presets =
  [ ("steady", "constant rate, 2000 cycles");
    ("diurnal", "ramp up / plateau / ramp down over 3000 cycles");
    ("burst", "low base with periodic 8x bursts, 2400 cycles");
    ("flash", "quiet baseline with one sustained 20x flash crowd") ]

let scale_rates = scale

let preset ?(scale = 1.0) name =
  let phases =
    match name with
    | "steady" -> [ Steady { cycles = 2000; rate = 0.2 } ]
    | "diurnal" ->
        [ Ramp { cycles = 1000; rate0 = 0.02; rate1 = 0.3 };
          Steady { cycles = 1000; rate = 0.3 };
          Ramp { cycles = 1000; rate0 = 0.3; rate1 = 0.02 } ]
    | "burst" ->
        [ Burst
            { cycles = 2400; base = 0.05; peak = 0.4; period = 400; width = 60 }
        ]
    | "flash" ->
        [ Steady { cycles = 800; rate = 0.05 };
          Steady { cycles = 400; rate = 1.0 };
          Steady { cycles = 800; rate = 0.05 } ]
    | _ ->
        invalid_arg
          (Printf.sprintf "Trace.preset: unknown preset %S (have: %s)" name
             (String.concat ", " (List.map fst presets)))
  in
  if scale = 1.0 then phases else scale_rates scale phases

(* ---- trace files ---- *)

let is_space c = c = ' ' || c = '\t'

let split_fields line =
  let n = String.length line in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_space line.[i] then go (i + 1) acc
    else
      let j = ref i in
      while !j < n && not (is_space line.[!j]) do incr j done;
      go !j (String.sub line i (!j - i) :: acc)
  in
  go 0 []

let of_file ?classes path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let out = ref [] and lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           let line =
             match String.index_opt line '#' with
             | Some i -> String.sub line 0 i
             | None -> line
           in
           match split_fields line with
           | [] -> ()
           | [ a; payload ] | [ a; payload; _ ] as fields -> (
               let cls =
                 match fields with
                 | [ _; _; c ] -> (
                     match int_of_string_opt c with
                     | Some c when c >= 0 -> c
                     | _ ->
                         failwith
                           (Printf.sprintf "%s:%d: bad class field" path
                              !lineno))
                 | _ -> 0
               in
               (match classes with
                | Some n when cls >= n ->
                    failwith
                      (Printf.sprintf "%s:%d: class %d out of range (%d %s)"
                         path !lineno cls n
                         (if n = 1 then "class" else "classes"))
                | _ -> ());
               match int_of_string_opt a with
               | Some arrival when arrival >= 0 ->
                   out := { arrival; payload; cls } :: !out
               | _ ->
                   failwith
                     (Printf.sprintf "%s:%d: bad arrival field" path !lineno))
           | _ ->
               failwith
                 (Printf.sprintf
                    "%s:%d: expected 'arrival payload [class]'" path !lineno)
         done
       with End_of_file -> ());
      let arr = Array.of_list (List.rev !out) in
      Array.stable_sort (fun a b -> compare a.arrival b.arrival) arr;
      arr)

let to_file path reqs =
  Array.iter
    (fun r ->
      if String.exists (fun c -> is_space c || c = '\n') r.payload then
        invalid_arg "Trace.to_file: payload contains whitespace")
    reqs;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "# arrival payload class\n";
      Array.iter
        (fun r -> Printf.fprintf oc "%d %s %d\n" r.arrival r.payload r.cls)
        reqs)
