(* Clock, allocation counter, order statistics and a minimal JSON
   emitter shared by every workload of the benchmark. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let minor_words () = Gc.minor_words ()

(* [measure f] runs [f] once and returns its result, its wall time in
   seconds and the minor-heap words it allocated on this domain. *)
let measure f =
  let w0 = minor_words () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let w1 = minor_words () in
  (r, Float.of_int (t1 - t0) *. 1e-9, w1 -. w0)

let median = function
  | [] -> invalid_arg "median of an empty list"
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let k = Array.length a in
    if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  Float.of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* ---- JSON ---- *)

type json =
  | Null
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | List of json list
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Int i -> string_of_int i
  | Float f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Float _ -> "null"
  | Bool b -> string_of_bool b
  | Str s -> "\"" ^ escape s ^ "\""
  | List l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kvs ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kvs)
    ^ "}"
