(* cf-solo: the contention-free sweep on the streaming harness.  All of
   its work is in Proc/Sim_mem -> Wheel -> Measures.Online; it never
   touches Explore or Cfc_native.  The O(n) solo paths (bakery,
   one-bit) have large seen-sets; the O(log n)/O(1) ones (tree,
   tournament, mcs) have tiny ones, so a fold change that helps only one
   kind shows. *)

open Cfc_mutex
open Cfc_core

let points =
  [ (Registry.bakery, 4096); (Registry.one_bit, 8192); (Registry.tree, 65536);
    (Registry.peterson_tournament, 65536); (Registry.mcs, 65536) ]

let point (((module A : Mutex_intf.ALG) as alg), n) =
  let p = Mutex_intf.params n in
  (* The harness instantiates internally; the same construction, timed
     on its own, is this workload's set-up cost. *)
  let _, setup_s, _ =
    Item.timed "Mutex_harness.system" (fun () -> Mutex_harness.system alg p ())
  in
  let r, wall_s, words =
    Item.timed "Mutex_harness.contention_free_streaming" (fun () ->
        Mutex_harness.contention_free_streaming alg p)
  in
  let m = r.Mutex_harness.max in
  let accesses =
    Array.fold_left (fun acc s -> acc + s.Measures.steps) 0
      r.Mutex_harness.per_process
  in
  let failures =
    []
    |> Item.check
         (A.predicted_cf_steps p = Some m.Measures.steps)
         "cf_steps differs from predicted_cf_steps"
    |> Item.check
         (A.predicted_cf_registers p = Some m.Measures.registers)
         "cf_registers differs from predicted_cf_registers"
  in
  Item.make ~setup_s
    ~label:(Printf.sprintf "%s n=%d" A.name n)
    ~wall_s ~words ~work:accesses
    ~counts:
      [ ("cf_steps", m.Measures.steps); ("cf_registers", m.Measures.registers);
        ("pids", Array.length r.Mutex_harness.per_process);
        ("accesses", accesses) ]
    ~row:
      { Item.file = "BENCH_scale.json"; table = "cf_entries";
        key = [ ("name", Some (Util.Str A.name)); ("n", Some (Util.Int n)) ];
        (* The committed sweep has no one-bit n=8192 point. *)
        required = false }
    failures

let rep ~seed:_ = Item.each point points
