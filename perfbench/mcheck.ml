(* mcheck: exhaustive mutual-exclusion checking at domains=1.  All of its
   work is in Explore, State_key, Symmetry, Independence, Spec.Inc and
   the Scheduler snapshot/restore; it never touches Wheel or Online.
   The three verified items split plain, reduced (POR) and
   reduced+canonicalised (POR + symmetry + compact) search, so a gain in
   one phase shows on one item and not the others.  The broken recovery
   queue must still be refuted. *)

open Cfc_mutex
open Cfc_mcheck

let config_n3 =
  { Explore.max_depth = 90; max_steps_per_proc = 25; max_states = 150_000 }

let config_n4 =
  { Explore.max_depth = 120; max_steps_per_proc = 120; max_states = 500_000 }

type engine = Inc | Por | Por_sym_compact

let engine_name = function
  | Inc -> "incremental"
  | Por -> "por"
  | Por_sym_compact -> "por+sym+compact"

(* The verified items, in the order the engines are named in the
   per-layer metrics: plain incremental, POR, POR+symmetry+compact. *)
let verified =
  [ (Registry.bakery, 3, Inc); (Registry.tree, 3, Por);
    (Registry.peterson_tournament, 4, Por_sym_compact) ]

(* Hint construction for one item: the hints, and the seconds spent
   building the independence and the symmetry hint. *)
let hints engine alg p =
  let build name f =
    let h, s, _ = Item.timed name (fun () -> f alg p) in
    (h, s)
  in
  let ind, ind_s =
    if engine = Inc then (None, 0.0)
    else build "Independence.mutex" Independence.mutex
  in
  let sym, sym_s =
    if engine = Por_sym_compact then build "Symmetry.mutex" Symmetry.mutex
    else (None, 0.0)
  in
  ((ind, sym), ind_s, sym_s)

let check ?(domains = 1) engine alg p (ind, sym) =
  let config = if p.Mutex_intf.n >= 4 then config_n4 else config_n3 in
  Span.with_ "Props.check_mutex" (fun () ->
      Props.check_mutex ~config ~engine:Explore.Incremental ~domains
        ?independence:ind ?symmetry:sym
        ~compact:(engine = Por_sym_compact) alg p)

let split = function
  | Explore.Ok s -> ("ok", s)
  | Explore.Violation { stats; _ } -> ("violation", stats)

let stats_counts (s : Explore.stats) =
  [ ("runs", s.Explore.runs); ("states", s.states);
    ("pruned_dedup", s.pruned_dedup); ("pruned_sym", s.pruned_sym);
    ("pruned_por", s.pruned_por); ("fp_collisions", s.fp_collisions);
    ("seen_pop", s.seen_pop); ("truncated", Bool.to_int s.truncated) ]

let row ~name ~kind ~engine ~n =
  { Item.file = "BENCH_mcheck.json"; table = "entries";
    key =
      [ ("name", Some (Util.Str name)); ("kind", Some (Util.Str kind));
        ("engine", Some (Util.Str engine)); ("n", Some (Util.Int n));
        ("domains", None) ];
    required = true }

let make_item ~label ~setup_s ~wall_s ~words ~expect ~row r =
  let verdict, s = split r in
  let failures =
    []
    |> Item.check (verdict = expect)
         (Printf.sprintf "verdict %s, expected %s" verdict expect)
    |> Item.check (not s.Explore.truncated) "search truncated"
  in
  Item.make ~setup_s ~label ~wall_s ~words ~work:s.Explore.states
    ~counts:(stats_counts s) ~row failures

let verified_item (((module A : Mutex_intf.ALG) as alg), n, engine) =
  let p = Mutex_intf.params n in
  let h, ind_s, sym_s = hints engine alg p in
  let r, wall_s, words = Util.measure (fun () -> check engine alg p h) in
  make_item
    ~label:(Printf.sprintf "%s n=%d %s" A.name n (engine_name engine))
    ~setup_s:(ind_s +. sym_s) ~wall_s ~words ~expect:"ok"
    ~row:(row ~name:A.name ~kind:"mutex" ~engine:(engine_name engine) ~n)
    r

let broken_item () =
  let r, wall_s, words =
    Item.timed "Props.check_mutex_recoverable" (fun () ->
        Props.check_mutex_recoverable ~engine:Explore.Incremental ~pairs:1
          Fixtures.broken_recovery_queue (Mutex_intf.params 2))
  in
  make_item ~label:"fixture-broken-recovery-queue n=2 pairs=1" ~setup_s:0.0
    ~wall_s ~words ~expect:"violation"
    ~row:
      (row ~name:"fixture-broken-recovery-queue pairs=1" ~kind:"faults"
         ~engine:"incremental" ~n:2)
    r

let rep ~seed:_ = Item.each verified_item verified @ Item.each broken_item [ () ]
