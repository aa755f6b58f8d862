(* kv-zipf: the sharded KV service on the event wheel under Zipfian YCSB
   traffic (4096 clients, theta 0.99, 16 buckets, 4096 keys).  It runs
   the same Wheel/Online/Monitor layers as cf-solo, but contended:
   thousands of live processes, per-shard folds that keep RMR holder
   sets, writes beside scans.  tree-lamport is left out: at 4096 clients
   its spin work outgrows memory. *)

open Cfc_mutex
open Cfc_workload

let default_seed = 42
let clients = 4096

let config ~seed mix =
  { Kv_sim.kc_clients = clients; kc_buckets = 16; kc_keys = 4096; kc_ops = 4;
    kc_mean_think = 4 * clients; kc_theta = 0.99; kc_mix = mix;
    kc_seed = seed }

let items =
  [ (Registry.mcs, Ycsb.mix_a); (Registry.mcs, Ycsb.mix_e);
    (Registry.peterson_tournament, Ycsb.mix_a) ]

(* BENCH_kv.json's 4096-client grid is mix A only, so the mix-E item's
   turn count at the default seed is pinned here. *)
let mix_e_turns = 465_480

(* The per-client streams Kv_sim.run builds when it spawns each client:
   built here on their own, they are the workload's set-up cost.  Every
   item draws from the same 4096-key theta=0.99 Zipf, and building a
   stream costs the same whatever its mix, so one repetition builds the
   first item's set once and charges it to that item. *)
let build_streams (kc : Kv_sim.kv_config) =
  Span.with_ "Ycsb.stream" (fun () ->
      for client = 0 to kc.Kv_sim.kc_clients - 1 do
        ignore
          (Sys.opaque_identity
             ( Ycsb.stream ~seed:kc.kc_seed ~client ~nkeys:kc.kc_keys
                 ~theta:kc.kc_theta kc.kc_mix,
               Workload.think_stream ~seed:kc.kc_seed ~pid:client ))
      done)

let item ~seed ~setup_s (((module A : Mutex_intf.ALG) as alg), mix) =
  let kc = config ~seed mix in
  let r, wall_s, words =
    Item.timed "Kv_sim.run" (fun () -> Kv_sim.run alg kc)
  in
  let ops = clients * kc.Kv_sim.kc_ops in
  let mix_name = mix.Ycsb.mix_name in
  let failures =
    []
    |> Item.check (r.Kv_sim.kr_lost_updates = 0) "lost updates"
    |> Item.check (r.Kv_sim.kr_torn_scans = 0) "torn scans"
    |> Item.check (r.Kv_sim.kr_ops = ops) "operations missing"
    |> Item.check (r.Kv_sim.kr_acquisitions = ops) "acquisitions missing"
    |> Item.check
         (seed <> default_seed || mix_name <> "E"
         || r.Kv_sim.kr_turns = mix_e_turns)
         "turns differ from the pinned default-seed count"
  in
  (* The committed rows hold the default seed only. *)
  let row =
    if seed <> default_seed then None
    else
      Some
        { Item.file = "BENCH_kv.json"; table = "wheel_entries";
          key =
            [ ("name", Some (Util.Str A.name)); ("driver", Some (Util.Str "wheel"));
              ("clients", Some (Util.Int clients));
              ("theta", Some (Util.Float 0.99)); ("mix", Some (Util.Str mix_name)) ];
          (* Mix E has no 4096-client row; its count is pinned above. *)
          required = mix_name = "A" }
  in
  Item.make ~setup_s
    ~label:(Printf.sprintf "%s mix=%s" A.name mix_name)
    ~wall_s ~words ~work:ops
    ~counts:
      [ ("ops", r.Kv_sim.kr_ops); ("acquisitions", r.kr_acquisitions);
        ("lost_updates", r.kr_lost_updates); ("torn_scans", r.kr_torn_scans);
        ("turns", r.kr_turns); ("total_steps", r.kr_total_steps);
        ("spawned", r.kr_spawned); ("live_peak", r.kr_live_peak);
        ("entry_steps_max", r.kr_entry_steps_max) ]
    ?row failures

let rep ~seed =
  let (), setup_s, _ =
    Util.measure (fun () -> build_streams (config ~seed (snd (List.hd items))))
  in
  Item.each
    (fun (i, it) -> item ~seed ~setup_s:(if i = 0 then setup_s else 0.0) it)
    (List.mapi (fun i it -> (i, it)) items)
