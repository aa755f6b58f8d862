type t = {
  mutable regs : Register.t list (* reversed *);
  mutable next : int;
  mutable regs_arr : Register.t array;
      (* cache of [regs] (same reverse order) for the hot snapshot paths;
         invalidated by [alloc], rebuilt on demand *)
}

let create () = { regs = []; next = 0; regs_arr = [||] }

let add t ~base ~index ~model ~width ~init =
  let id = t.next in
  let r = Register.make ~id ~base ~index ~width ~model ~init in
  t.next <- id + 1;
  t.regs <- r :: t.regs;
  t.regs_arr <- [||];
  r

let alloc ?name ?model ~width ~init t =
  let base =
    match name with Some n -> n | None -> Printf.sprintf "r%d" t.next
  in
  add t ~base ~index:(-1) ~model ~width ~init

let alloc_array ?name ?model ~width ~init t k =
  let base = match name with Some n -> n | None -> "a" in
  Array.init k (fun index -> add t ~base ~index ~model ~width ~init)

let registers t = List.rev t.regs
let size t = t.next

let max_width t =
  List.fold_left (fun acc r -> max acc r.Register.width) 0 t.regs

let reset t = List.iter Register.reset t.regs

let regs_arr t =
  if Array.length t.regs_arr <> t.next then t.regs_arr <- Array.of_list t.regs;
  t.regs_arr

(* Values in reverse allocation order — [restore_values] consumes the
   same order, so the two stay consistent without materializing the
   forward list. *)
let values t =
  let regs = regs_arr t in
  let a = Array.make t.next 0 in
  for i = 0 to t.next - 1 do
    a.(i) <- regs.(i).Register.value
  done;
  a

let values_equal t a =
  Array.length a = t.next
  &&
  let regs = regs_arr t in
  let rec go i = i = t.next || (regs.(i).Register.value = a.(i) && go (i + 1)) in
  go 0

let restore_values t a =
  if Array.length a <> t.next then invalid_arg "Memory.restore_values";
  let regs = regs_arr t in
  for i = 0 to t.next - 1 do
    Register.restore regs.(i) a.(i)
  done

let dump t =
  registers t
  |> List.map (fun r ->
         Printf.sprintf "%s=%d" (Register.name r) r.Register.value)
  |> String.concat " "

let fingerprint t =
  List.fold_left
    (fun acc r -> (acc * 1000003) lxor r.Register.value)
    (Hashtbl.hash t.next) t.regs
