type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------- printing ---------- *)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_to_string f =
  if not (Float.is_finite f) then "null"
  else
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else shortest (p + 1)
    in
    let s = shortest 1 in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

(* Containers at depth 0 and 1 are broken one member per line. *)
let rec add b depth = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_to_string f)
  | String s -> add_string b s
  | List items -> add_container b depth '[' ']' (fun _ v -> add b (depth + 1) v) items
  | Obj members ->
    add_container b depth '{' '}'
      (fun broken (k, v) ->
        add_string b k;
        Buffer.add_string b (if broken then ": " else ":");
        add b (depth + 1) v)
      members

and add_container : 'a. Buffer.t -> int -> char -> char -> (bool -> 'a -> unit) -> 'a list -> unit =
 fun b depth op cl add_member members ->
  let broken = depth < 2 in
  let newline d = if broken then Buffer.add_string b ("\n" ^ String.make (2 * d) ' ') in
  Buffer.add_char b op;
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_char b ',';
      newline (depth + 1);
      add_member broken m)
    members;
  newline depth;
  Buffer.add_char b cl

let to_string v =
  let b = Buffer.create 4096 in
  add b 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* ---------- parsing ---------- *)

exception Fail of string

(* Deeper input is rejected instead of exhausting the stack. *)
let max_depth = 512

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Fail (Printf.sprintf "offset %d: %s" !pos what)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> incr pos; skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v)
    else fail "expected a value"
  in
  let digits () =
    let start = !pos in
    while match peek () with Some '0' .. '9' -> true | _ -> false do incr pos done;
    if !pos = start then fail "expected a digit"
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    if peek () = Some '0' then incr pos else digits ();
    let frac = peek () = Some '.' in
    if frac then (incr pos; digits ());
    let exp = (match peek () with Some ('e' | 'E') -> true | _ -> false) in
    if exp then begin
      incr pos;
      (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
      digits ()
    end;
    let lit = String.sub s start (!pos - start) in
    match (frac || exp, int_of_string_opt lit) with
    | false, Some i -> Int i
    | _ -> Float (float_of_string lit)
  in
  let hex4 () =
    let h = if !pos + 4 <= n then String.sub s !pos 4 else "" in
    let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if h = "" || not (String.for_all hex h) then fail "expected four hex digits";
    pos := !pos + 4;
    int_of_string ("0x" ^ h)
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
        incr pos;
        let short c = Buffer.add_char b c; incr pos in
        (match peek () with
         | Some (('"' | '\\' | '/') as c) -> short c
         | Some 'b' -> short '\b'
         | Some 'f' -> short '\012'
         | Some 'n' -> short '\n'
         | Some 'r' -> short '\r'
         | Some 't' -> short '\t'
         | Some 'u' ->
           incr pos;
           let u = hex4 () in
           let cp =
             if u >= 0xD800 && u <= 0xDBFF then begin
               expect '\\';
               expect 'u';
               let lo = hex4 () in
               if lo < 0xDC00 || lo > 0xDFFF then fail "expected a low surrogate";
               0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
             end
             else if u >= 0xDC00 && u <= 0xDFFF then fail "unpaired low surrogate"
             else u
           in
           Buffer.add_utf_8_uchar b (Uchar.of_int cp)
         | _ -> fail "invalid escape");
        go ()
      | Some c when c < ' ' -> fail "control character in string"
      | Some c -> Buffer.add_char b c; incr pos; go ()
    in
    go ();
    Buffer.contents b
  in
  (* Comma-separated members up to [cl]; [item] parses one member onto
     the (reversed) accumulator. *)
  let container cl item =
    skip_ws ();
    if peek () = Some cl then (incr pos; [])
    else
      let rec more acc =
        let acc = item acc in
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos; skip_ws (); more acc
        | Some c when c = cl -> incr pos; List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" cl)
      in
      more []
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | Some '{' ->
      incr pos;
      Obj
        (container '}' (fun acc ->
             let at = !pos in
             let k = string () in
             if List.mem_assoc k acc then begin
               pos := at;
               fail "duplicate key"
             end;
             skip_ws ();
             expect ':';
             (k, value (depth + 1)) :: acc))
    | Some '[' ->
      incr pos;
      List (container ']' (fun acc -> value (depth + 1) :: acc))
    | Some '"' -> String (string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some _ -> fail "expected a value"
    | None -> fail "unexpected end of input"
  in
  if not (String.is_valid_utf_8 s) then Error "invalid UTF-8"
  else
    try
      let v = value 0 in
      skip_ws ();
      if !pos < n then fail "trailing characters";
      Ok v
    with Fail msg -> Error msg
