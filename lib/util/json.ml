type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---- encoding ----------------------------------------------------- *)

(* the shortest of 15, 16 or 17 significant digits that parses back to
   exactly [x]; 17 always does for a finite double *)
let shortest x =
  let exact fmt =
    let s = Printf.sprintf fmt x in
    if float_of_string s = x then Some s else None
  in
  match exact "%.15g" with
  | Some s -> s
  | None -> (
    match exact "%.16g" with Some s -> s | None -> Printf.sprintf "%.17g" x)

let float_repr x = if Float.is_finite x then shortest x else "null"

let escape_to buf s =
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

let rec encode buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> Buffer.add_string buf (float_repr x)
  | Str s -> escape_to buf s
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        encode buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_to buf k;
        Buffer.add_char buf ':';
        encode buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  encode buf v;
  Buffer.contents buf

(* ---- decoding ----------------------------------------------------- *)

exception Parse_error of string

let max_depth = 512

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)))
      fmt
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> fail "expected %C, found %C" c got
    | None -> fail "expected %C, found end of input" c
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail "invalid literal"
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | c -> fail "bad hex digit %C in \\u escape" c
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let add_utf8 buf cp =
    (* UTF-8 encode one code point *)
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then fail "unterminated escape";
         match s.[!pos] with
         | '"' -> Buffer.add_char buf '"'; advance ()
         | '\\' -> Buffer.add_char buf '\\'; advance ()
         | '/' -> Buffer.add_char buf '/'; advance ()
         | 'b' -> Buffer.add_char buf '\b'; advance ()
         | 'f' -> Buffer.add_char buf '\012'; advance ()
         | 'n' -> Buffer.add_char buf '\n'; advance ()
         | 'r' -> Buffer.add_char buf '\r'; advance ()
         | 't' -> Buffer.add_char buf '\t'; advance ()
         | 'u' ->
           advance ();
           let cp = hex4 () in
           if cp >= 0xD800 && cp <= 0xDBFF then
             (* high surrogate: a low surrogate must follow *)
             if
               !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
             then begin
               pos := !pos + 2;
               let lo = hex4 () in
               if lo < 0xDC00 || lo > 0xDFFF then
                 fail "invalid low surrogate";
               add_utf8 buf
                 (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
             end
             else fail "unpaired high surrogate"
           else if cp >= 0xDC00 && cp <= 0xDFFF then
             fail "unpaired low surrogate"
           else add_utf8 buf cp
         | c -> fail "bad escape \\%C" c);
        loop ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
        Buffer.add_char buf c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_digit c = c >= '0' && c <= '9' in
    if peek () = Some '-' then advance ();
    (match peek () with
    | Some '0' -> advance ()
    | Some c when is_digit c ->
      while !pos < n && is_digit s.[!pos] do advance () done
    | _ -> fail "malformed number");
    if peek () = Some '.' then begin
      advance ();
      if not (!pos < n && is_digit s.[!pos]) then fail "malformed number";
      while !pos < n && is_digit s.[!pos] do advance () done
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      if not (!pos < n && is_digit s.[!pos]) then fail "malformed number";
      while !pos < n && is_digit s.[!pos] do advance () done
    | _ -> ());
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> x
    | None -> fail "malformed number"
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          fields := (key, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}' in object"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value (depth + 1) in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']' in array"
        in
        elements ();
        Arr (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing characters after value";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ---- accessors ---------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* RFC 8259 leaves duplicate object keys to the implementation;
   [member] silently takes the first, which can shadow a value that was
   meant to be read.  Consumers that must not tolerate that (the bench
   regression gate) check here. *)
let duplicate_key v =
  let rec walk path v =
    match v with
    | Null | Bool _ | Num _ | Str _ -> None
    | Arr items ->
      let rec each i = function
        | [] -> None
        | item :: rest -> (
          match walk (Printf.sprintf "%s[%d]" path i) item with
          | Some _ as hit -> hit
          | None -> each (i + 1) rest)
      in
      each 0 items
    | Obj fields ->
      let seen = Hashtbl.create (List.length fields) in
      let rec each = function
        | [] -> None
        | (k, item) :: rest ->
          let here = if path = "" then k else path ^ "." ^ k in
          if Hashtbl.mem seen k then Some here
          else begin
            Hashtbl.add seen k ();
            match walk here item with
            | Some _ as hit -> hit
            | None -> each rest
          end
      in
      each fields
  in
  walk "" v

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Num _ -> "number"
  | Str _ -> "string"
  | Arr _ -> "array"
  | Obj _ -> "object"

let get_field key v =
  match member key v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "missing field %S" key)

let to_float = function
  | Num x -> Ok x
  | v -> Error (Printf.sprintf "expected a number, found %s" (type_name v))

let get_float key v =
  match get_field key v with
  | Error e -> Error e
  | Ok (Num x) -> Ok x
  | Ok f ->
    Error (Printf.sprintf "field %S: expected a number, found %s" key
             (type_name f))

let get_string key v =
  match get_field key v with
  | Error e -> Error e
  | Ok (Str s) -> Ok s
  | Ok f ->
    Error (Printf.sprintf "field %S: expected a string, found %s" key
             (type_name f))
