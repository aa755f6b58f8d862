(* Per-layer probes for the traced run.  Each probe times calls into one
   module's public functions, inside spans, and reports ns and minor
   words per unit of that layer's work.  The probes are the same for
   every workload, since each result line carries every per-layer metric
   that BENCHMARK.json lists.  NOTES.md says which end-to-end metric each
   should move, and where. *)

open Cfc_runtime
open Cfc_mutex
open Cfc_core
open Cfc_mcheck
open Cfc_workload
open Cfc_native

type acc = { mutable s : float; mutable words : float; mutable units : int }

let acc () = { s = 0.0; words = 0.0; units = 0 }

(* Time [f] into [a] inside a span named [name]; [f] returns how many
   units of work it did. *)
let into name a f =
  let units, s, words = Item.timed name f in
  a.s <- a.s +. s;
  a.words <- a.words +. words;
  a.units <- a.units + units

let ns a = if a.units = 0 then 0.0 else a.s *. 1e9 /. Float.of_int a.units
let words a = if a.units = 0 then 0.0 else a.words /. Float.of_int a.units

(* ---- Proc / Scheduler / Wheel / Trace / Measures / Online / Monitor ---- *)

(* The bare resume loop: perform each suspended access on its register
   and resume, with no scheduler, trace or sink.  Returns the accesses. *)
let drive body =
  let open Effect.Deep in
  let rec go n = function
    | Proc.Done -> n
    | Proc.Failed e -> raise e
    | Proc.Read (r, k) -> go (n + 1) (continue k (Register.read r))
    | Proc.Write (r, v, k) ->
      Register.write r v;
      go (n + 1) (continue k ())
    | Proc.Write_field (r, index, width, v, k) ->
      Register.write_field r ~index ~width v;
      go (n + 1) (continue k ())
    | Proc.Xchg (r, v, k) -> go (n + 1) (continue k (Register.fetch_and_store r v))
    | Proc.Cas (r, expected, v, k) ->
      go (n + 1) (continue k (Register.compare_and_set r ~expected v))
    | Proc.Bit_op (r, op, k) -> go (n + 1) (continue k (Register.bit_op r op))
    | Proc.Region (_, k) | Proc.Pause k | Proc.Sleep (_, k) -> go n (continue k ())
  in
  go 0 (Proc.start body)

type ladder = {
  proc : acc;
  sched : acc;
  wheel : acc;
  traced_wheel : acc;
  fold : acc;
  online : acc;
  monitor : acc;
}

let ladder_point (l : ladder) failures (((module A : Mutex_intf.ALG) as alg), n) =
  let p = Mutex_intf.params n in
  let memory, procs = Mutex_harness.system alg p () in
  let spawn i = procs.(i) in
  let wheel_run sink pid =
    let w = Wheel.create ~sink ~nprocs:n ~spawn () in
    Wheel.wake w pid;
    ignore (Wheel.run w : Wheel.stopped);
    Wheel.turns w
  in
  List.iter
    (fun pid ->
      Memory.reset memory;
      into "Proc.start loop" l.proc (fun () -> drive procs.(pid));
      Memory.reset memory;
      into "Runner.run solo" l.sched (fun () ->
          let o =
            Runner.run ~max_steps:max_int ~memory ~pick:(Schedule.solo pid) procs
          in
          Trace.length o.Runner.trace);
      Memory.reset memory;
      into "Wheel.run null_sink" l.wheel (fun () -> wheel_run Wheel.null_sink pid);
      Memory.reset memory;
      let trace = Trace.create () in
      into "Wheel.run trace_sink" l.traced_wheel (fun () ->
          ignore (wheel_run (Wheel.trace_sink trace) pid : int);
          Trace.length trace);
      let events = Trace.length trace in
      let materialised = ref Measures.zero in
      into "Measures.mutex_contention_free" l.fold (fun () ->
          materialised := Measures.mutex_contention_free trace ~nprocs:n ~pid;
          events);
      let online = Measures.Online.create ~nprocs:n in
      into "Measures.Online.feed" l.online (fun () ->
          Trace.iter
            (fun e -> Measures.Online.feed online ~pid:e.Event.pid e.Event.body)
            trace;
          events);
      let monitor = Spec.Monitor.mutual_exclusion () in
      into "Spec.Monitor.feed" l.monitor (fun () ->
          Trace.iter
            (fun e -> Spec.Monitor.feed monitor ~pid:e.Event.pid e.Event.body)
            trace;
          events);
      if Measures.Online.contention_free online ~pid <> !materialised then
        failures := Printf.sprintf "%s n=%d pid %d: Online <> materialised fold" A.name n pid
                    :: !failures;
      if Spec.Monitor.result monitor <> None then
        failures := Printf.sprintf "%s n=%d: monitor flagged a solo run" A.name n
                    :: !failures)
    (Mutex_harness.sample_pids n)

let fresh_ladder () =
  { proc = acc (); sched = acc (); wheel = acc (); traced_wheel = acc ();
    fold = acc (); online = acc (); monitor = acc () }

let rungs l =
  [ l.proc; l.sched; l.wheel; l.traced_wheel; l.fold; l.online; l.monitor ]

let ladder failures =
  let l = fresh_ladder () in
  Printf.printf
    "  ladder ns per unit:                 events   proc  sched  wheel \
     +trace   fold online monitor\n";
  List.iter
    (fun (((module A : Mutex_intf.ALG) as alg), n) ->
      let point = fresh_ladder () in
      Span.with_ (Printf.sprintf "ladder %s n=%d" A.name n) (fun () ->
          ladder_point point failures (alg, n));
      Printf.printf "  %-32s %9d%s\n"
        (Printf.sprintf "%s n=%d" A.name n)
        point.fold.units
        (String.concat ""
           (List.map (fun a -> Printf.sprintf " %6.0f" (ns a)) (rungs point)));
      List.iter2
        (fun total a ->
          total.s <- total.s +. a.s;
          total.words <- total.words +. a.words;
          total.units <- total.units + a.units)
        (rungs l) (rungs point))
    Cf_solo.points;
  let events = l.fold.units in
  let trace_extra = (l.traced_wheel.s -. l.wheel.s) *. 1e9 /. Float.of_int events in
  [ ("proc.ns_per_access", ns l.proc, "ns");
    ("proc.words_per_access", words l.proc, "words");
    ("scheduler.ns_per_event", ns l.sched, "ns");
    ("scheduler.words_per_event", words l.sched, "words");
    ("wheel.ns_per_turn", ns l.wheel, "ns");
    ("wheel.words_per_turn", words l.wheel, "words");
    ("trace.ns_per_event", trace_extra, "ns");
    ("measures.ns_per_event", ns l.fold, "ns");
    ("online.ns_per_event", ns l.online, "ns");
    ("online.words_per_event", words l.online, "words");
    ("online.wheel_ratio", ns l.online /. ns l.wheel, "ratio");
    ("monitor.ns_per_event", ns l.monitor, "ns");
    ("cf.events", Float.of_int events, "count") ]

(* ---- Explore, Independence, Symmetry set-up ---- *)

let engine_key = function
  | Mcheck.Inc -> "inc"
  | Mcheck.Por -> "por"
  | Mcheck.Por_sym_compact -> "sym"

let explore failures =
  let ind = acc () and sym = acc () in
  let totals = Array.make 6 0 and pruned = ref 0 and all_words = ref 0.0 in
  let per_engine =
    List.map
      (fun (((module A : Mutex_intf.ALG) as alg), n, engine) ->
        let p = Mutex_intf.params n in
        let hints, ind_s, sym_s = Mcheck.hints engine alg p in
        ind.s <- ind.s +. ind_s;
        sym.s <- sym.s +. sym_s;
        let r, s, w = Util.measure (fun () -> Mcheck.check engine alg p hints) in
        let verdict, st = Mcheck.split r in
        Printf.printf
          "  %s n=%d %s: %s, %d states, pruned dedup %d por %d sym %d, \
           fp collisions %d, seen %d, %.0f ns/state\n"
          A.name n (Mcheck.engine_name engine) verdict st.Explore.states
          st.pruned_dedup st.pruned_por st.pruned_sym st.fp_collisions
          st.seen_pop (s *. 1e9 /. Float.of_int st.states);
        if verdict <> "ok" || st.Explore.truncated then
          failures := Printf.sprintf "%s n=%d: %s" A.name n verdict :: !failures;
        List.iteri
          (fun i v -> totals.(i) <- totals.(i) + v)
          [ st.Explore.states; st.pruned_dedup; st.pruned_por; st.pruned_sym;
            st.fp_collisions; st.seen_pop ];
        pruned := !pruned + st.pruned_dedup + st.pruned_por + st.pruned_sym;
        all_words := !all_words +. w;
        ( Printf.sprintf "explore.%s.ns_per_state" (engine_key engine),
          s *. 1e9 /. Float.of_int st.Explore.states, "ns" ))
      Mcheck.verified
  in
  (* ROADMAP's keep-or-delete question for the parallel mode: states/s at
     two domains over one, on the tree-lamport n=3 POR item. *)
  let alg = Registry.tree and p = Mutex_intf.params 3 in
  let hints, _, _ = Mcheck.hints Mcheck.Por alg p in
  let rate domains =
    let r, s, _ =
      Util.measure (fun () -> Mcheck.check ~domains Mcheck.Por alg p hints)
    in
    let _, st = Mcheck.split r in
    Float.of_int st.Explore.states /. s
  in
  let speedup = rate 2 /. rate 1 in
  let states = totals.(0) in
  [ ("explore.states", Float.of_int states, "count");
    ("explore.pruned_dedup", Float.of_int totals.(1), "count");
    ("explore.pruned_por", Float.of_int totals.(2), "count");
    ("explore.pruned_sym", Float.of_int totals.(3), "count");
    ("explore.fp_collisions", Float.of_int totals.(4), "count");
    ("explore.seen_pop", Float.of_int totals.(5), "count");
    ("explore.prune_ratio",
      Float.of_int !pruned /. Float.of_int (states + !pruned), "ratio") ]
  @ per_engine
  @ [ ("explore.words_per_state", !all_words /. Float.of_int states, "words");
      ("explore.par2_speedup", speedup, "ratio");
      ("independence.build_s", ind.s, "s");
      ("symmetry.build_s", sym.s, "s") ]

(* ---- State_key, Symmetry.canon, Spec.Inc ---- *)

(* Keys captured along one seeded random schedule of a checked mcheck
   system; the build time of each key is measured as it is captured. *)
let repeat = 64

let capture ~seed build (alg, n) =
  let memory, procs = Mutex_harness.system alg (Mutex_intf.params n) () in
  let trace = Trace.create () in
  let sched = Scheduler.create ~memory ~trace procs in
  let rng = Random.State.make [| seed; n |] in
  let keys = ref [] in
  let rec walk steps =
    match Scheduler.runnable sched with
    | [] -> ()
    | _ when steps = 0 -> ()
    | live ->
      let pid = List.nth live (Random.State.int rng (List.length live)) in
      ignore (Scheduler.step sched pid : Scheduler.step_result);
      into "State_key.of_system" build (fun () ->
          for _ = 2 to repeat do
            ignore (Sys.opaque_identity (State_key.of_system memory sched trace))
          done;
          keys := State_key.of_system memory sched trace :: !keys;
          repeat);
      walk (steps - 1)
  in
  walk 2_000;
  (Array.of_list (List.rev !keys), trace)

let keys ~seed =
  let build = acc () and hash = acc () and fp = acc () and canon = acc ()
  and inc = acc () in
  List.iter
    (fun (alg, n, _) ->
      let p = Mutex_intf.params n in
      let keys, trace = capture ~seed build (alg, n) in
      let batch name a f =
        into name a (fun () ->
            for _ = 1 to repeat do
              Array.iter (fun k -> ignore (Sys.opaque_identity (f k))) keys
            done;
            repeat * Array.length keys)
      in
      batch "State_key.hash" hash State_key.hash;
      batch "State_key.fingerprint" fp (fun k -> State_key.fingerprint k 0);
      (match Symmetry.mutex alg p with
      | Some group -> batch "Symmetry.canon" canon (Symmetry.canon group)
      | None -> ());
      into "Spec.Inc.feed" inc (fun () ->
          for _ = 1 to repeat do
            let run = Spec.Inc.start Spec.Inc.mutual_exclusion ~nprocs:n in
            ignore (Sys.opaque_identity (run.Spec.Inc.feed trace ~from:0))
          done;
          repeat * Trace.length trace))
    Mcheck.verified;
  [ ("state_key.build_ns", ns build, "ns"); ("state_key.hash_ns", ns hash, "ns");
    ("state_key.fingerprint_ns", ns fp, "ns");
    ("symmetry.canon_ns", ns canon, "ns");
    ("spec_inc.ns_per_event", ns inc, "ns") ]

(* ---- Ycsb, Kv_sim ---- *)

let kv ~seed failures =
  let kc = Kv_zipf.config ~seed Ycsb.mix_a in
  let stream = acc () and next = acc () in
  let streams = ref [||] in
  into "Ycsb.stream" stream (fun () ->
      streams :=
        Array.init kc.Kv_sim.kc_clients (fun client ->
            Ycsb.stream ~seed ~client ~nkeys:kc.kc_keys ~theta:kc.kc_theta
              kc.kc_mix);
      Array.length !streams);
  into "Ycsb.next" next (fun () ->
      let draws = 64 in
      for _ = 1 to draws do
        Array.iter (fun s -> ignore (Sys.opaque_identity (Ycsb.next s))) !streams
      done;
      draws * Array.length !streams);
  let r, s, _ = Item.timed "Kv_sim.run" (fun () -> Kv_sim.run Registry.mcs kc) in
  if r.Kv_sim.kr_lost_updates <> 0 || r.kr_torn_scans <> 0 then
    failures := "kv probe: lost update or torn scan" :: !failures;
  let per a b = Float.of_int a /. Float.of_int b in
  [ ("ycsb.stream_ns", ns stream, "ns"); ("ycsb.next_ns", ns next, "ns");
    ("kv_sim.turns_per_op", per r.kr_turns r.kr_ops, "turns");
    ("kv_sim.steps_per_acq", per r.kr_total_steps r.kr_acquisitions, "steps");
    ("kv_sim.ns_per_turn", s *. 1e9 /. Float.of_int r.kr_turns, "ns");
    ("wheel.live_peak", Float.of_int r.kr_live_peak, "count") ]

(* ---- Native_mem, Instr_mem ---- *)

let native ~seed failures =
  let locks = [ Registry.mcs; Registry.tas_lock ] in
  let run ~instrument ~domains ~mean_think =
    List.fold_left
      (fun (ns, acqs, counters) alg ->
        let r =
          Span.with_ "Lock_service.run" @@ fun () ->
          Lock_service.run ~instrument alg
            { Lock_service.domains; rounds = 100_000; mean_think; cs_len = 4;
              seed; crash_every = 0 }
        in
        if not r.Lock_service.exclusion_ok then
          failures := "native probe: exclusion violated" :: !failures;
        ( ns + r.elapsed_ns, acqs + r.acquisitions,
          Instr_mem.add counters r.counters ))
      (0, 0, Instr_mem.zero) locks
  in
  let per_acq ~instrument =
    let ns, acqs, _ = run ~instrument ~domains:1 ~mean_think:0 in
    Float.of_int ns /. Float.of_int acqs
  in
  let plain = per_acq ~instrument:false in
  let instr = per_acq ~instrument:true in
  (* RMR and CAS failures need contention: the native-lock configuration. *)
  let _, acqs, c = run ~instrument:true ~domains:2 ~mean_think:64 in
  [ ("native_mem.ns_per_acq", plain, "ns"); ("instr_mem.ns_per_acq", instr, "ns");
    ("instr_mem.rmr_per_acq",
      Float.of_int c.Instr_mem.rmr /. Float.of_int acqs, "rmr");
    ("instr_mem.cas_fail_ratio",
      (if c.Instr_mem.cas_attempts = 0 then 0.0
       else
         Float.of_int c.Instr_mem.cas_failures
         /. Float.of_int c.Instr_mem.cas_attempts),
      "ratio") ]

let run ~seed =
  let failures = ref [] in
  let probe name f = Span.with_ ("probe " ^ name) f in
  let metrics =
    probe "ladder" (fun () -> ladder failures)
    @ probe "explore" (fun () -> explore failures)
    @ probe "keys" (fun () -> keys ~seed)
    @ probe "kv" (fun () -> kv ~seed failures)
    @ probe "native" (fun () -> native ~seed failures)
  in
  (metrics, List.rev !failures)
