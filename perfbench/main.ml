(* The benchmark executable.  run.py builds and calls it as

     main.exe --workload W --seed S --seconds T --trace 0|1 --out DIR

   Untraced (--trace 0): repeat W's fixed item list until T seconds have
   passed (at least once), timing set-up and the measured calls apart,
   and report the end-to-end metrics from per-item medians.

   Traced (--trace 1): alternate untraced and traced passes of the item
   list while T seconds last, then run the per-layer probes of Layers,
   and report the per-layer metrics plus the tracing overhead.  Spans go
   to DIR/spans-W-S.json.

   The last line of standard output is "RESULT <json>"; run.py checks
   the counts against the committed BENCH_*.json rows and prints the
   final result line.  See NOTES.md. *)

open Util

type workload = {
  name : string;
  rep : seed:int -> Item.t list;
  work_unit : string;  (** what [work_per_s] counts on this workload *)
  named : (string * string * (Item.t list list -> float)) list;
      (** the workload's own figures, printed by name, from its runs by item *)
}

(* [by_item reps]: the runs of each item, from the repetitions. *)
let by_item reps =
  List.mapi (fun i _ -> List.map (fun items -> List.nth items i) reps)
    (List.hd reps)

(* The median over each item's runs, summed over the item list: a burst
   of interference spoils one item of a repetition, not the whole
   repetition. *)
let per_item f runs =
  List.fold_left (fun acc r -> acc +. median (List.map f r)) 0.0 runs

let wall = per_item (fun it -> it.Item.wall_s)

(* [rate count runs]: a per-item count of the first runs per median
   second of the item list. *)
let rate count runs =
  List.fold_left (fun acc r -> acc +. count (List.hd r)) 0.0 runs /. wall runs

let work it = Float.of_int it.Item.work

let count name it =
  Float.of_int (Option.value ~default:0 (List.assoc_opt name it.Item.counts))

let timing name runs =
  median
    (List.filter_map (fun it -> List.assoc_opt name it.Item.timings)
       (List.concat runs))

let workloads =
  [ { name = "cf-solo"; rep = Cf_solo.rep; work_unit = "simulated accesses";
      named = [ ("accesses_per_s", "1/s", rate work) ] };
    { name = "mcheck"; rep = Mcheck.rep; work_unit = "states";
      named = [ ("states_per_s", "1/s", rate work) ] };
    { name = "kv-zipf"; rep = Kv_zipf.rep; work_unit = "YCSB ops";
      named =
        [ ("kv_ops_per_s", "1/s", rate work);
          ("accesses_per_s", "1/s", rate (count "total_steps")) ] };
    { name = "native-lock"; rep = Native_lock.rep; work_unit = "acquisitions";
      named =
        [ ("acq_per_s", "1/s", rate work);
          ("acq_p50_ns", "ns (log2 bucket)", timing "acq_p50_ns");
          ("acq_p99_ns", "ns (log2 bucket)", timing "acq_p99_ns") ] } ]

(* ---- command line ---- *)

let workload = ref ""
let seed = ref Kv_zipf.default_seed
let seconds = ref 10.0
let trace = ref 0
let out_dir = ref "."

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "T measuring time per run");
      ("--trace", Arg.Set_int trace, "0|1 untraced or traced run");
      ("--out", Arg.Set_string out_dir, "DIR where the traced run writes spans") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W [--seed S] [--seconds T] [--trace 0|1]"

let w =
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | Some w -> w
  | None ->
    prerr_endline
      ("unknown workload; one of: "
      ^ String.concat ", " (List.map (fun w -> w.name) workloads));
    exit 2

(* One repetition of the item list. *)
let run_rep () =
  let items = w.rep ~seed:!seed in
  List.iter
    (fun it ->
      Printf.printf "  %-44s wall %8.4fs setup %8.4fs  %s  words %.0f%s\n%!"
        it.Item.label it.Item.wall_s it.setup_s
        (String.concat " "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) it.counts))
        it.words
        (match it.failures with
        | [] -> ""
        | f -> "  FAILED: " ^ String.concat "; " f))
    items;
  items

(* Per-item summary over all runs: failures, and whether the
   deterministic counts repeated exactly. *)
let item_record runs =
  let it0 = List.hd runs in
  let reproducible =
    List.for_all (fun it -> it.Item.counts = it0.Item.counts) runs
  in
  let failed_runs =
    List.length
      (List.filter (fun it -> it.Item.failures <> [] || not reproducible) runs)
  in
  let row =
    match it0.Item.row with
    | None -> Null
    | Some r ->
      Obj
        [ ("file", Str r.Item.file); ("table", Str r.table);
          ("required", Bool r.required);
          ("key",
            Obj (List.map (fun (k, v) -> (k, Option.value ~default:Null v)) r.key))
        ]
  in
  ( failed_runs,
    Obj
      [ ("label", Str it0.Item.label); ("runs", Int (List.length runs));
        ("failed_runs", Int failed_runs); ("reproducible", Bool reproducible);
        ("counts", Obj (List.map (fun (k, v) -> (k, Int v)) it0.counts));
        ("minor_words", Float it0.words);
        ("words_repeat",
          Bool (List.for_all (fun it -> it.Item.words = it0.words) runs));
        ("row", row) ] )

let result ?(probe_failures = []) ~metrics runs =
  let records = List.map item_record runs in
  (* The traced run's layer probes count as one more checked operation. *)
  let probes = if !trace = 0 then 0 else 1 in
  let attempted =
    List.fold_left (fun acc r -> acc + List.length r) probes runs
  in
  let failed =
    List.fold_left (fun acc (f, _) -> acc + f)
      (if probe_failures = [] then 0 else 1)
      records
  in
  print_endline
    ("RESULT "
    ^ to_string
        (Obj
           [ ("workload", Str w.name); ("seed", Int !seed);
             ("attempted", Int attempted); ("failed", Int failed);
             ("metrics",
               Obj
                 (List.map
                    (fun (k, v, u) -> (k, Obj [ ("value", Float v); ("unit", Str u) ]))
                    metrics));
             ("items", List (List.map snd records)) ]))

(* Call [f k] for k = 1, 2, ... until the run's time has passed, at
   least once; a call that starts before the deadline finishes. *)
let repeat f =
  let t0 = now_ns () in
  let rec loop k acc =
    let acc = f k :: acc in
    if Float.of_int (now_ns () - t0) *. 1e-9 < !seconds then loop (k + 1) acc
    else List.rev acc
  in
  loop 1 []

let untraced () =
  (* The heap peak after the first repetition: later ones can lift it
     through fragmentation, and how many run depends on the host. *)
  let peak = ref 0.0 in
  let runs =
    by_item
      (repeat (fun k ->
           Printf.printf "%s rep %d\n%!" w.name k;
           let items = run_rep () in
           if k = 1 then peak := peak_heap_mb ();
           items))
  in
  let wall_s = wall runs in
  let metrics =
    [ ("setup_s", per_item (fun it -> it.Item.setup_s) runs, "s");
      ("wall_s", wall_s, "s"); ("work_per_s", rate work runs, "1/s");
      ("peak_heap_mb", !peak, "MB") ]
  in
  Printf.printf "%s: %d repetitions; work_per_s counts %s\n" w.name
    (List.length (List.hd runs)) w.work_unit;
  List.iter
    (fun (name, unit_, f) ->
      Printf.printf "  %-16s %14.1f %s\n" name (f runs) unit_)
    w.named;
  result ~metrics runs

(* Alternate untraced and traced passes (at least one pair) while the
   run's time lasts, so the overhead compares passes made under the same
   conditions; then the layer probes, traced. *)
let traced () =
  let pass ~spans k =
    Span.enabled := spans;
    Printf.printf "%s: %s pass %d\n%!" w.name
      (if spans then "traced" else "untraced") k;
    Span.with_ w.name run_rep
  in
  let plain, spanned =
    List.split (repeat (fun k ->
        let p = pass ~spans:false k in
        (p, pass ~spans:true k)))
  in
  let plain = by_item plain and spanned = by_item spanned in
  let overhead = wall spanned -. wall plain in
  (* Spans one traced pass of the workload records. *)
  let spans_per_pass = Span.count () / List.length (List.hd spanned) in
  Span.enabled := true;
  Printf.printf "layer probes\n%!";
  let layer_metrics, layer_failures = Layers.run ~seed:!seed in
  List.iter (fun f -> Printf.printf "  layer probe FAILED: %s\n" f) layer_failures;
  let path =
    Filename.concat !out_dir (Printf.sprintf "spans-%s-%d.json" w.name !seed)
  in
  Span.write path;
  Printf.printf "%d spans written to %s; self time by span name:\n"
    (Span.count ()) path;
  List.iter
    (fun (name, calls, total, self) ->
      Printf.printf "  %-44s calls %7d total %9.4fs self %9.4fs\n" name calls
        total self)
    (Span.self_times ());
  Printf.printf
    "tracing overhead on %s: %+.4fs (traced %.4fs - untraced %.4fs, medians)\n"
    w.name overhead (wall spanned) (wall plain);
  let metrics =
    layer_metrics
    @ [ ("span.overhead_s", overhead, "s");
        ("span.count", Float.of_int spans_per_pass, "count") ]
  in
  result ~probe_failures:layer_failures ~metrics
    (List.map2 ( @ ) plain spanned)

let () = if !trace = 0 then untraced () else traced ()
