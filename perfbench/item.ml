(* One measured call of a workload's fixed item list, with the checks
   made on its output. *)

type row = {
  file : string;  (** committed bench file, e.g. "BENCH_kv.json" *)
  table : string;  (** its row list, e.g. "wheel_entries" *)
  key : (string * Util.json option) list;
      (** fields the row must carry ([None]: field absent) *)
  required : bool;  (** a missing row is a failure *)
}

type t = {
  label : string;
  setup_s : float;  (** input construction timed on its own *)
  wall_s : float;  (** the measured library call *)
  words : float;  (** minor words allocated by the measured call *)
  work : int;  (** units of the workload's throughput metric *)
  counts : (string * int) list;  (** deterministic in code and seed *)
  timings : (string * float) list;  (** per-item measured extras *)
  failures : string list;  (** checks that did not hold *)
  row : row option;  (** committed row the counts must equal *)
}

let make ?(setup_s = 0.0) ?(timings = []) ?row ~label ~wall_s ~words ~work
    ~counts failures =
  { label; setup_s; wall_s; words; work; counts; timings; failures; row }

let check cond what acc = if cond then acc else what :: acc

(* [each f xs] runs [f] on every item of a list, each on a freshly
   collected heap, so one item's garbage neither slows the next nor
   lifts its heap peak. *)
let each f xs =
  List.map
    (fun x ->
      Gc.full_major ();
      f x)
    xs

(* Run [f] inside a span named [name] and measure it. *)
let timed name f = Util.measure (fun () -> Span.with_ name f)
