(* native-lock: the lock service on real domains, a closed loop of two
   clients (one per domain) with geometric think time (mean 64 relax
   turns) and a 4-write critical section, on plain Native_mem.  It is
   the only workload in Cfc_native.  Saturation (think 0) is left out:
   on a 2-core host its throughput swings by a factor of four between
   runs. *)

open Cfc_mutex
open Cfc_native

let domains = 2
let rounds = 50_000

let config ~seed =
  { Lock_service.domains; rounds; mean_think = 64; cs_len = 4; seed;
    crash_every = 0 }

let item ~seed (((module A : Mutex_intf.ALG) as alg)) =
  let r, call_s, words =
    Item.timed "Lock_service.run" (fun () ->
        Lock_service.run ~instrument:false alg (config ~seed))
  in
  (* Lock_service times barrier release to last join; the rest of the
     call is arena creation and domain spawn/join. *)
  let wall_s = Float.of_int r.Lock_service.elapsed_ns *. 1e-9 in
  let acquisitions = domains * rounds in
  let failures =
    []
    |> Item.check r.Lock_service.exclusion_ok "mutual exclusion violated"
    |> Item.check (r.Lock_service.acquisitions = acquisitions)
         "acquisitions missing"
  in
  Item.make ~setup_s:(call_s -. wall_s) ~label:A.name ~wall_s ~words
    ~work:acquisitions
    ~counts:[ ("acquisitions", r.Lock_service.acquisitions) ]
    ~timings:
      [ ("acq_p50_ns", r.Lock_service.p50_ns); ("acq_p99_ns", r.p99_ns) ]
    failures

let rep ~seed = Item.each (item ~seed) [ Registry.mcs; Registry.tas_lock ]
