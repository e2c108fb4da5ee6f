(* A tiny dependency-free JSON tree, emitter and parser.

   The emitter is deterministic: a given tree always serializes to the
   same bytes, so same-seed simulation runs produce byte-identical
   metric snapshots (the property the CI gate checks). Floats are
   printed with round-trip precision; non-finite floats become null
   (JSON has no spelling for them). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- emitter --- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    (* Keep integral floats short and unambiguous: 3.0 not 3 (stay a
       float on re-parse) and not 3.0000000000000000e+00. *)
    Printf.sprintf "%.1f" f
  else
    (* Shortest representation that round-trips. *)
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec emit buf ~indent ~level v =
  let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    nl ();
    List.iteri
      (fun i item ->
         if i > 0 then begin Buffer.add_char buf ','; nl () end;
         pad (level + 1);
         emit buf ~indent ~level:(level + 1) item)
      items;
    nl ();
    pad level;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    nl ();
    List.iteri
      (fun i (k, item) ->
         if i > 0 then begin Buffer.add_char buf ','; nl () end;
         pad (level + 1);
         escape_string buf k;
         Buffer.add_string buf (if indent then ": " else ":");
         emit buf ~indent ~level:(level + 1) item)
      fields;
    nl ();
    pad level;
    Buffer.add_char buf '}'

let to_string ?(indent = false) v =
  let buf = Buffer.create 256 in
  emit buf ~indent ~level:0 v;
  if indent then Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- parser (for tests and tooling; accepts what the emitter writes
   plus ordinary JSON) --- *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c ("expected " ^ word)

let parse_string_body c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
       | Some '"' -> Buffer.add_char buf '"'; advance c
       | Some '\\' -> Buffer.add_char buf '\\'; advance c
       | Some '/' -> Buffer.add_char buf '/'; advance c
       | Some 'n' -> Buffer.add_char buf '\n'; advance c
       | Some 'r' -> Buffer.add_char buf '\r'; advance c
       | Some 't' -> Buffer.add_char buf '\t'; advance c
       | Some 'b' -> Buffer.add_char buf '\b'; advance c
       | Some 'f' -> Buffer.add_char buf '\012'; advance c
       | Some 'u' ->
         advance c;
         let hex i =
           match if c.pos + i < String.length c.src then c.src.[c.pos + i] else ' ' with
           | '0' .. '9' as d -> Char.code d - Char.code '0'
           | 'a' .. 'f' as d -> Char.code d - Char.code 'a' + 10
           | 'A' .. 'F' as d -> Char.code d - Char.code 'A' + 10
           | _ -> fail c "bad \\u escape"
         in
         let code = (hex 0 lsl 12) lor (hex 1 lsl 8) lor (hex 2 lsl 4) lor hex 3 in
         c.pos <- c.pos + 4;
         (* Only the code points the emitter writes (< 0x80) matter; map
            the rest through a UTF-8 encoder for completeness. *)
         if code < 0x80 then Buffer.add_char buf (Char.chr code)
         else if code < 0x800 then begin
           Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
           Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
         end
         else begin
           Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
           Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
           Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
         end
       | _ -> fail c "bad escape");
      loop ()
    | Some ch ->
      Buffer.add_char buf ch;
      advance c;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    (ch >= '0' && ch <= '9') || ch = '-' || ch = '+' || ch = '.' || ch = 'e' || ch = 'E'
  in
  let rec loop () =
    match peek c with
    | Some ch when is_num_char ch ->
      advance c;
      loop ()
    | _ -> ()
  in
  loop ();
  let s = String.sub c.src start (c.pos - start) in
  if String.contains s '.' || String.contains s 'e' || String.contains s 'E' then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail c "bad number"
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None ->
      (match float_of_string_opt s with
       | Some f -> Float f
       | None -> fail c "bad number")

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> String (parse_string_body c)
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin advance c; List [] end
    else begin
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          items (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> fail c "expected ',' or ']'"
      in
      List (items [])
    end
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin advance c; Obj [] end
    else begin
      let rec fields acc =
        skip_ws c;
        let k = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields ((k, v) :: acc)
        | Some '}' ->
          advance c;
          List.rev ((k, v) :: acc)
        | _ -> fail c "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | Some _ -> parse_number c

let of_string s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then Error "trailing garbage"
    else Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors --- *)

let member key v =
  match v with
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let rec path keys v =
  match keys with
  | [] -> Some v
  | k :: rest ->
    (match member k v with
     | Some v' -> path rest v'
     | None -> None)

let to_int = function Int i -> Some i | _ -> None

let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
