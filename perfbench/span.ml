(* In-memory span recorder for the traced run.  A span wraps one call
   from the benchmark into a library module: name, start, end and the
   enclosing span.  Spans are only recorded when [enabled] is set; the
   untraced run pays one branch per call site.  Everything stays in
   memory until [write] dumps it at the end of the run. *)

type t = { id : int; parent : int; name : string; start_ns : int; end_ns : int }

let enabled = ref false
let recorded : t list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start_ns = Util.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let end_ns = Util.now_ns () in
        stack := List.tl !stack;
        recorded := { id; parent; name; start_ns; end_ns } :: !recorded)
      f
  end

let count () = List.length !recorded

(* Self time of a span: its duration minus the time its direct children
   cover.  Children of one span never overlap (one domain records), so
   the covered time is the sum of their durations.  Returns
   [(name, calls, total_s, self_s)] per span name, largest self first. *)
let self_times () =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent) in
        Hashtbl.replace child_ns s.parent (prev + (s.end_ns - s.start_ns)))
    !recorded;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let dur = s.end_ns - s.start_ns in
      let self = dur - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id) in
      let calls, total, selfs =
        Option.value ~default:(0, 0, 0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (calls + 1, total + dur, selfs + self))
    !recorded;
  Hashtbl.fold
    (fun name (calls, total, self) acc ->
      (name, calls, Float.of_int total *. 1e-9, Float.of_int self *. 1e-9) :: acc)
    by_name []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare b a)

let write path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      output_string oc
        (Util.to_string
           (Util.Obj
              [ ("id", Util.Int s.id); ("parent", Util.Int s.parent);
                ("name", Util.Str s.name); ("start_ns", Util.Int s.start_ns);
                ("end_ns", Util.Int s.end_ns) ])))
    (List.rev !recorded);
  output_string oc "\n]\n";
  close_out oc
