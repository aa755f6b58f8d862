(* Tests for the measurement framework itself: the §2.2 fragment
   definitions on hand-built traces, the bound formulas of Theorems 1-7,
   and the sandwich lower-bound <= measured <= upper-bound on real
   algorithms. *)

open Cfc_base
open Cfc_runtime
open Cfc_mutex
open Cfc_core

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Measures on hand-built traces                                       *)
(* ------------------------------------------------------------------ *)

let mk_regs () =
  let m = Memory.create () in
  (Memory.alloc ~name:"r1" ~width:4 ~init:0 m,
   Memory.alloc ~name:"r2" ~width:4 ~init:0 m)

(* The §2.2 worst-case entry window: steps taken while another process
   occupies its critical section or exit code do not count. *)
let test_wc_entry_window () =
  let r1, r2 = mk_regs () in
  let t = Trace.create () in
  let ev pid body = ignore (Trace.record t ~pid body) in
  ev 1 (Event.Region_change Event.Trying);
  ev 1 (Event.Access (r1, Event.A_write 1));
  ev 1 (Event.Region_change Event.Critical);
  ev 0 (Event.Region_change Event.Trying);
  ev 0 (Event.Access (r1, Event.A_read 1));   (* p1 in CS: must not count *)
  ev 0 (Event.Access (r2, Event.A_read 0));   (* p1 in CS: must not count *)
  ev 1 (Event.Region_change Event.Exiting);
  ev 1 (Event.Access (r1, Event.A_write 0));  (* p1 exit step *)
  ev 1 (Event.Region_change Event.Remainder);
  ev 0 (Event.Access (r1, Event.A_read 0));   (* counts *)
  ev 0 (Event.Access (r1, Event.A_write 2));  (* counts *)
  ev 0 (Event.Region_change Event.Critical);
  let entries = Measures.mutex_wc_entry t ~nprocs:2 in
  (match List.filter (fun (pid, _) -> pid = 0) entries with
  | [ (_, s) ] ->
    check "p0 entry steps" 2 s.Measures.steps;
    check "p0 entry registers" 1 s.Measures.registers
  | other -> Alcotest.failf "expected 1 entry for p0, got %d" (List.length other));
  (match List.filter (fun (pid, _) -> pid = 1) entries with
  | [ (_, s) ] -> check "p1 entry steps" 1 s.Measures.steps
  | other -> Alcotest.failf "expected 1 entry for p1, got %d" (List.length other));
  let exits = Measures.mutex_wc_exit t ~nprocs:2 in
  match exits with
  | [ (1, s) ] -> check "p1 exit steps" 1 s.Measures.steps
  | _ -> Alcotest.fail "expected exactly p1's exit fragment"

(* Contention-free measure: only Trying and Exiting accesses count;
   critical-section work is free. *)
let test_cf_regions () =
  let r1, r2 = mk_regs () in
  let t = Trace.create () in
  let ev pid body = ignore (Trace.record t ~pid body) in
  ev 0 (Event.Region_change Event.Trying);
  ev 0 (Event.Access (r1, Event.A_write 1));
  ev 0 (Event.Access (r2, Event.A_read 0));
  ev 0 (Event.Region_change Event.Critical);
  ev 0 (Event.Access (r2, Event.A_write 3));  (* CS work: not counted *)
  ev 0 (Event.Region_change Event.Exiting);
  ev 0 (Event.Access (r1, Event.A_write 0));
  ev 0 (Event.Region_change Event.Remainder);
  let s = Measures.mutex_contention_free t ~nprocs:1 ~pid:0 in
  check "cf steps" 3 s.Measures.steps;
  check "cf registers" 2 s.Measures.registers;
  check "cf writes" 2 s.Measures.write_steps;
  check "cf reads" 1 s.Measures.read_steps

(* Multiple entries by the same process produce one fragment each. *)
let test_repeated_entries () =
  let r1, _ = mk_regs () in
  let t = Trace.create () in
  let ev pid body = ignore (Trace.record t ~pid body) in
  for i = 1 to 3 do
    ev 0 (Event.Region_change Event.Trying);
    for _ = 1 to i do
      ev 0 (Event.Access (r1, Event.A_read 0))
    done;
    ev 0 (Event.Region_change Event.Critical);
    ev 0 (Event.Region_change Event.Exiting);
    ev 0 (Event.Region_change Event.Remainder)
  done;
  let entries = Measures.mutex_wc_entry t ~nprocs:1 in
  check "three fragments" 3 (List.length entries);
  let steps = List.map (fun (_, s) -> s.Measures.steps) entries in
  Alcotest.(check (list int)) "growing" [ 1; 2; 3 ] steps

(* decisions/at_most_one_winner plumbing. *)
let test_decisions () =
  let t = Trace.create () in
  let ev pid body = ignore (Trace.record t ~pid body) in
  ev 0 (Event.Region_change (Event.Decided 1));
  ev 1 (Event.Region_change (Event.Decided 0));
  ev 2 (Event.Region_change (Event.Decided 0));
  Alcotest.(check (list (pair int int)))
    "decisions" [ (0, 1); (1, 0); (2, 0) ]
    (Measures.decisions t ~nprocs:3);
  check_bool "one winner ok" true (Spec.at_most_one_winner t ~nprocs:3 = None);
  ev 1 (Event.Region_change (Event.Decided 1));
  check_bool "two winners flagged" true
    (Spec.at_most_one_winner t ~nprocs:3 <> None)

(* Recovery paths: a path opens at Recover, counts the pid's accesses,
   and closes at its next Critical; a second crash abandons the open
   fragment. *)
let test_recovery_paths () =
  let r1, r2 = mk_regs () in
  let t = Trace.create () in
  let ev pid body = ignore (Trace.record t ~pid body) in
  ev 0 (Event.Region_change Event.Trying);
  ev 0 (Event.Access (r1, Event.A_write 1));
  ev 0 Event.Crash;
  ev 0 Event.Recover;
  ev 0 (Event.Access (r1, Event.A_read 1));
  ev 0 (Event.Access (r2, Event.A_write 2));
  ev 0 (Event.Region_change Event.Critical);
  (* p1: first recovery is abandoned by a second crash, second one
     completes with a single step. *)
  ev 1 Event.Crash;
  ev 1 Event.Recover;
  ev 1 (Event.Access (r1, Event.A_read 1));
  ev 1 Event.Crash;
  ev 1 Event.Recover;
  ev 1 (Event.Access (r2, Event.A_read 2));
  ev 1 (Event.Region_change Event.Critical);
  (* p0's later CS re-entry without a crash opens no new path. *)
  ev 0 (Event.Region_change Event.Exiting);
  ev 0 (Event.Region_change Event.Remainder);
  ev 0 (Event.Region_change Event.Trying);
  ev 0 (Event.Region_change Event.Critical);
  let paths = Measures.recovery_paths t ~nprocs:2 in
  match paths with
  | [ (0, s0); (1, s1) ] ->
    check "p0 path steps" 2 s0.Measures.steps;
    check "p0 path registers" 2 s0.Measures.registers;
    check "p1 path steps" 1 s1.Measures.steps;
    check "p1 path registers" 1 s1.Measures.registers
  | _ ->
    Alcotest.failf "expected one completed path per pid, got %d"
      (List.length paths)

(* Recovery RMR: same fragment windows as [recovery_paths] (one-to-one),
   under the cold-cache rule — the crash invalidates the dying
   incarnation's copies, so a register cached before the crash is remote
   again on the recovery path; another process's write invalidates as
   usual. *)
let test_recovery_rmr () =
  let r1, r2 = mk_regs () in
  let t = Trace.create () in
  let ev pid body = ignore (Trace.record t ~pid body) in
  ev 0 (Event.Region_change Event.Trying);
  ev 0 (Event.Access (r1, Event.A_write 1)); (* p0 caches r1... *)
  ev 0 Event.Crash;                          (* ...and loses it *)
  ev 0 Event.Recover;
  ev 0 (Event.Access (r1, Event.A_read 1));  (* remote: cold cache *)
  ev 0 (Event.Access (r1, Event.A_read 1));  (* local: just re-cached *)
  ev 0 (Event.Access (r2, Event.A_write 2)); (* remote: first touch *)
  ev 0 (Event.Region_change Event.Critical);
  let paths = Measures.recovery_paths t ~nprocs:2 in
  let rmrs = Measures.recovery_rmr t ~nprocs:2 in
  check "one path" 1 (List.length paths);
  (match (paths, rmrs) with
  | [ (0, s) ], [ (0, rmr) ] ->
    check "path steps" 3 s.Measures.steps;
    check "rmr counts cold registers, not steps" 2 rmr
  | _ -> Alcotest.fail "recovery_rmr disagrees with recovery_paths");
  (* A second crash–recover pair on the same process: the re-cached r1
     is lost again, and the completed fragments stay one-to-one. *)
  ev 0 (Event.Region_change Event.Exiting);
  ev 0 Event.Crash;
  ev 0 Event.Recover;
  ev 0 (Event.Access (r1, Event.A_read 1));  (* remote again *)
  ev 1 (Event.Access (r1, Event.A_write 7)); (* p1 invalidates p0 *)
  ev 0 (Event.Access (r1, Event.A_read 7));  (* remote: invalidated *)
  ev 0 (Event.Region_change Event.Critical);
  let paths = Measures.recovery_paths t ~nprocs:2 in
  let rmrs = Measures.recovery_rmr t ~nprocs:2 in
  Alcotest.(check (list (pair int int)))
    "per-incarnation rmr" [ (0, 2); (0, 2) ] rmrs;
  check "still one path per completed recovery" 2 (List.length paths);
  (* The second incarnation's fragment counts only its own accesses — the
     pre-crash fragment is not double-attributed. *)
  (match List.rev paths with
  | (0, s) :: _ -> check "second path steps" 2 s.Measures.steps
  | _ -> Alcotest.fail "missing second path")

(* Write-invalidate holders on hand-built traces, materialised and
   streaming side by side: both must give the exact counts below.  The
   streaming fold keeps per-pid access stamps against each register's
   last-write stamp instead of holder sets, so these pin the cases where
   the two encodings could drift apart. *)
let check_holders ~what t ~nprocs ~remote ~rmr =
  let online = Measures.Online.create ~nprocs in
  Measures.Online.feed_trace online t;
  let ints = Alcotest.(list int) and rmrs = Alcotest.(list (pair int int)) in
  Alcotest.check ints (what ^ ": remote (materialised)") remote
    (Array.to_list (Measures.remote_accesses t ~nprocs));
  Alcotest.check ints (what ^ ": remote (online)") remote
    (Array.to_list (Measures.Online.remote_accesses online));
  Alcotest.check rmrs (what ^ ": recovery rmr (materialised)") rmr
    (Measures.recovery_rmr t ~nprocs);
  Alcotest.check rmrs (what ^ ": recovery rmr (online)") rmr
    (Measures.Online.recovery_rmr online)

let test_holder_stamps () =
  let r, _ = mk_regs () in
  (* Another process's write invalidates a reader's copy. *)
  let t = Trace.create () in
  let ev pid body = ignore (Trace.record t ~pid body) in
  ev 0 (Event.Access (r, Event.A_read 0));   (* p0 remote: first touch *)
  ev 1 (Event.Access (r, Event.A_write 1));  (* p1 remote: first touch *)
  ev 0 (Event.Access (r, Event.A_read 1));   (* p0 remote: invalidated *)
  check_holders ~what:"invalidate" t ~nprocs:2 ~remote:[ 2; 1 ] ~rmr:[];
  (* A crash evicts only under the recovery model: the re-read after
     Recover is a recovery RMR, but not a remote access. *)
  let t = Trace.create () in
  let ev pid body = ignore (Trace.record t ~pid body) in
  ev 0 (Event.Region_change Event.Trying);
  ev 0 (Event.Access (r, Event.A_read 0));   (* remote: first touch *)
  ev 0 Event.Crash;
  ev 0 Event.Recover;
  ev 0 (Event.Access (r, Event.A_read 0));   (* cold cache, still cached *)
  ev 0 (Event.Region_change Event.Critical);
  check_holders ~what:"crash eviction" t ~nprocs:1 ~remote:[ 1 ]
    ~rmr:[ (0, 1) ];
  (* A pid's own write leaves it the sole holder: its later accesses
     stay local, every other copy is gone. *)
  let t = Trace.create () in
  let ev pid body = ignore (Trace.record t ~pid body) in
  ev 1 (Event.Access (r, Event.A_read 0));   (* p1 remote: first touch *)
  ev 0 (Event.Access (r, Event.A_read 0));   (* p0 remote: first touch *)
  ev 0 (Event.Access (r, Event.A_write 1));  (* p0 local: holds r *)
  ev 0 (Event.Access (r, Event.A_read 1));   (* p0 local: sole holder *)
  ev 0 (Event.Access (r, Event.A_write 2));  (* p0 local *)
  ev 1 (Event.Access (r, Event.A_read 2));   (* p1 remote: invalidated *)
  ev 1 (Event.Access (r, Event.A_write 3));  (* p1 local: re-cached *)
  ev 0 (Event.Access (r, Event.A_read 3));   (* p0 remote: invalidated *)
  check_holders ~what:"own write" t ~nprocs:2 ~remote:[ 2; 2 ] ~rmr:[]

(* [Online.feed] rejects a pid outside [0, nprocs) whatever it was fed
   before: on a fresh fold, after valid events, and right after the same
   bad pid was rejected. *)
let test_online_pid_range () =
  let r, _ = mk_regs () in
  let body = Event.Access (r, Event.A_read 0) in
  let rejects what online pid =
    Alcotest.check_raises what
      (Invalid_argument "Measures.Online: pid out of range") (fun () ->
        Measures.Online.feed online ~pid body)
  in
  let online = Measures.Online.create ~nprocs:2 in
  rejects "pid -1 on a fresh fold" online (-1);
  rejects "pid -1 again" online (-1);
  rejects "pid = nprocs on a fresh fold" online 2;
  Measures.Online.feed online ~pid:0 body;
  rejects "pid -1 after a valid event" online (-1);
  rejects "pid = nprocs after a valid event" online 2;
  Measures.Online.feed online ~pid:1 body;
  Alcotest.(check int) "only valid events counted" 2
    (Measures.Online.events_seen online);
  Alcotest.(check int) "only valid pids spawned" 2
    (Measures.Online.spawned online)

(* Window resets on hand-built traces.  The streaming fold keeps one
   register table per process whose r/w bits per window are valid only
   if the register's stamp postdates the window's last reset, so these
   pin every way a window restarts over registers it saw before: the
   materialised measures are the reference, and the expected samples
   below keep both honest. *)
let check_online_matches ~what t ~nprocs =
  let online = Measures.Online.create ~nprocs in
  Measures.Online.feed_trace online t;
  let eq tag a b = check_bool (what ^ ": " ^ tag) true (a = b) in
  eq "per_process"
    (Array.to_list (Measures.Online.per_process online))
    (Array.to_list (Measures.per_process_samples t ~nprocs));
  for pid = 0 to nprocs - 1 do
    eq "contention_free"
      (Measures.Online.contention_free online ~pid)
      (Measures.mutex_contention_free t ~nprocs ~pid)
  done;
  eq "wc_entries" (Measures.Online.wc_entries online)
    (Measures.mutex_wc_entry t ~nprocs);
  eq "wc_exits" (Measures.Online.wc_exits online)
    (Measures.mutex_wc_exit t ~nprocs);
  eq "recovery_paths" (Measures.Online.recovery_paths online)
    (Measures.recovery_paths t ~nprocs);
  eq "recovery_rmr" (Measures.Online.recovery_rmr online)
    (Measures.recovery_rmr t ~nprocs);
  eq "remote_accesses"
    (Array.to_list (Measures.Online.remote_accesses online))
    (Array.to_list (Measures.remote_accesses t ~nprocs))

let sample ~steps ~regs ~r ~w ~rr ~wr =
  { Measures.steps; registers = regs; read_steps = r; write_steps = w;
    read_registers = rr; write_registers = wr }

let check_samples what expected got =
  if expected <> got then
    Alcotest.failf "%s: expected %a, got %a" what Measures.pp_sample expected
      Measures.pp_sample got

let test_online_window_resets () =
  let r1, r2, r3 =
    match Memory.alloc_array ~name:"r" ~width:4 ~init:0 (Memory.create ()) 3 with
    | [| r1; r2; r3 |] -> (r1, r2, r3)
    | _ -> assert false
  in
  (* Entry window reset by an occupied pre-state in the middle of p0's
     Trying, twice (p0 even accesses r1 while p1 occupies its critical
     section), then re-accesses of r1 and r2 touched before the reset. *)
  let t = Trace.create () in
  let ev pid body = ignore (Trace.record t ~pid body) in
  ev 0 (Event.Region_change Event.Trying);
  ev 0 (Event.Access (r1, Event.A_read 0));
  ev 0 (Event.Access (r2, Event.A_write 1));
  ev 1 (Event.Region_change Event.Trying);
  ev 1 (Event.Region_change Event.Critical);
  ev 0 (Event.Access (r1, Event.A_read 0));  (* occupied: not in window *)
  ev 1 (Event.Region_change Event.Exiting);
  ev 1 (Event.Access (r1, Event.A_write 2));
  ev 1 (Event.Region_change Event.Remainder);
  ev 0 (Event.Access (r1, Event.A_read 2));  (* window starts here *)
  ev 0 (Event.Access (r1, Event.A_write 3));
  ev 0 (Event.Access (r3, Event.A_read 0));
  ev 0 (Event.Access (r2, Event.A_read 1));
  ev 0 (Event.Region_change Event.Critical);
  check_online_matches ~what:"entry reset mid-Trying" t ~nprocs:2;
  (match Measures.mutex_wc_entry t ~nprocs:2 with
  | [ (1, _); (0, s) ] ->
    check_samples "p0 window counts only post-reset accesses"
      (sample ~steps:4 ~regs:3 ~r:3 ~w:1 ~rr:3 ~wr:1) s
  | _ -> Alcotest.fail "expected two entry windows");
  check_samples "p0 cf covers the whole Trying section"
    (sample ~steps:7 ~regs:3 ~r:5 ~w:2 ~rr:3 ~wr:2)
    (Measures.mutex_contention_free t ~nprocs:2 ~pid:0);
  (* Exiting -> Exiting restarts the exit fragment: the second fragment
     re-touches r1 and r2 from the abandoned first one. *)
  let t = Trace.create () in
  let ev pid body = ignore (Trace.record t ~pid body) in
  ev 0 (Event.Region_change Event.Trying);
  ev 0 (Event.Access (r1, Event.A_read 0));
  ev 0 (Event.Region_change Event.Critical);
  ev 0 (Event.Region_change Event.Exiting);
  ev 0 (Event.Access (r1, Event.A_write 1));
  ev 0 (Event.Access (r2, Event.A_read 0));
  ev 0 (Event.Access (r3, Event.A_write 1));
  ev 0 (Event.Region_change Event.Exiting);
  ev 0 (Event.Access (r2, Event.A_write 2));
  ev 0 (Event.Access (r1, Event.A_write 0));
  ev 0 (Event.Region_change Event.Remainder);
  check_online_matches ~what:"exit restart" t ~nprocs:1;
  (match Measures.mutex_wc_exit t ~nprocs:1 with
  | [ (0, s) ] ->
    check_samples "restarted exit fragment"
      (sample ~steps:2 ~regs:2 ~r:0 ~w:2 ~rr:0 ~wr:2) s
  | _ -> Alcotest.fail "expected one exit fragment");
  (* A recovery window reopened after a crash during recovery: the new
     incarnation re-touches the previous ones' registers, and its path
     and RMR count only its own accesses (all cold after the crash). *)
  let t = Trace.create () in
  let ev pid body = ignore (Trace.record t ~pid body) in
  ev 0 (Event.Region_change Event.Trying);
  ev 0 (Event.Access (r1, Event.A_write 1));
  ev 0 Event.Crash;
  ev 0 Event.Recover;
  ev 0 (Event.Access (r1, Event.A_read 1));
  ev 0 (Event.Access (r2, Event.A_write 1));
  ev 0 Event.Crash;
  ev 0 Event.Recover;
  ev 0 (Event.Access (r2, Event.A_read 1));
  ev 0 (Event.Access (r1, Event.A_write 2));
  ev 0 (Event.Access (r2, Event.A_read 1));
  ev 0 (Event.Region_change Event.Critical);
  check_online_matches ~what:"recovery reopened" t ~nprocs:1;
  (match (Measures.recovery_paths t ~nprocs:1, Measures.recovery_rmr t ~nprocs:1) with
  | [ (0, s) ], [ (0, rmr) ] ->
    check_samples "reopened recovery path"
      (sample ~steps:3 ~regs:2 ~r:2 ~w:1 ~rr:1 ~wr:1) s;
    check "cold registers of the last incarnation" 2 rmr
  | _ -> Alcotest.fail "expected one completed recovery")

(* Every recoverable lock's exact recovery costs, via the harness (which
   itself goes through [Measures.recovery_paths]): every crash point
   yields a completed recovery ([Stalled] would be a deadlock
   regression), costing exactly the closed form of its crash region —
   [rec_steps_held] in [Critical], [rec_steps_not_held] outside the
   critical/exit code, and one of the two in the ambiguous [Exiting]
   (the release may or may not have taken effect).  The recovery RMR
   equals the path's register count: the restarted incarnation starts
   with a cold cache, so solo every distinct register is remote once —
   the §1.2 registers-equal-remotes claim extended to recovery. *)
let test_recoverable_recovery_exact () =
  List.iter
    (fun (module A : Mutex_intf.ALG) ->
      let p = Mutex_intf.params 4 in
      let forms = Option.get (A.recovery p) in
      let sweep = Recovery_harness.solo_sweep (module A : Mutex_intf.ALG) p in
      check_bool (A.name ^ ": sweep non-empty") true (sweep <> []);
      Alcotest.(check int) (A.name ^ ": no stalled points") 0
        (List.length (Recovery_harness.stalled sweep));
      List.iter
        (fun (pt : Recovery_harness.sweep_point) ->
          match pt.Recovery_harness.outcome with
          | Recovery_harness.Stalled -> ()
          | Recovery_harness.Recovered { path; rmr } ->
            let label what =
              Printf.sprintf "%s: crash@%d (%s) %s" A.name
                pt.Recovery_harness.crash_step
                (Format.asprintf "%a" Event.pp_region
                   pt.Recovery_harness.crash_region)
                what
            in
            (match pt.Recovery_harness.crash_region with
            | Event.Critical ->
              check (label "steps = held form")
                forms.Mutex_intf.rec_steps_held path.Measures.steps;
              check (label "registers = held form")
                forms.Mutex_intf.rec_registers_held path.Measures.registers
            | Event.Exiting ->
              check_bool (label "steps within forms") true
                (path.Measures.steps = forms.Mutex_intf.rec_steps_held
                || path.Measures.steps = forms.Mutex_intf.rec_steps_not_held)
            | _ ->
              check (label "steps = not-held form")
                forms.Mutex_intf.rec_steps_not_held path.Measures.steps;
              check (label "registers = not-held form")
                forms.Mutex_intf.rec_registers_not_held
                  path.Measures.registers);
            check (label "rmr = cold-cache registers") path.Measures.registers
              rmr)
        sweep)
    Registry.recoverable

(* Crash during recovery: re-crash the restarted incarnation at every
   step of (and just past) its recovery path.  The final incarnation
   must still recover, at a cost that is itself one of the closed
   forms — recovery code re-entered from the top is just another
   recovery. *)
let test_double_crash_sweep () =
  List.iter
    (fun (module A : Mutex_intf.ALG) ->
      let p = Mutex_intf.params 3 in
      let forms = Option.get (A.recovery p) in
      let points = Recovery_harness.double_sweep (module A : Mutex_intf.ALG) p in
      check_bool (A.name ^ ": double sweep non-empty") true (points <> []);
      check_bool (A.name ^ ": some re-crash hit the recovery path") true
        (List.exists
           (fun (pt : Recovery_harness.double_point) ->
             pt.Recovery_harness.second_crash
             > pt.Recovery_harness.first_crash)
           points);
      List.iter
        (fun (pt : Recovery_harness.double_point) ->
          match pt.Recovery_harness.final with
          | Recovery_harness.Stalled ->
            Alcotest.failf "%s: stalled after crash@%d+%d" A.name
              pt.Recovery_harness.first_crash
              pt.Recovery_harness.second_crash
          | Recovery_harness.Recovered { path; rmr } ->
            check_bool
              (Printf.sprintf "%s: crash@%d+%d cost is a closed form" A.name
                 pt.Recovery_harness.first_crash
                 pt.Recovery_harness.second_crash)
              true
              (path.Measures.steps = forms.Mutex_intf.rec_steps_held
              || path.Measures.steps = forms.Mutex_intf.rec_steps_not_held);
            check "double-crash rmr = cold-cache registers"
              path.Measures.registers rmr)
        points)
    Registry.recoverable

(* ------------------------------------------------------------------ *)
(* Occupancy windows across crash–recovery                             *)
(* ------------------------------------------------------------------ *)

(* A crash + recovery inside someone's entry window must not corrupt the
   winner's §2.2 fragment: the recovered process restarts in Remainder,
   so it stops occupying the critical section / exit code from the
   recovery on.  Before trace-level region bookkeeping learned about
   [Recover] events, the crashed incarnation's stale [Exiting] region
   (i) clipped the winner's entry fragment to zero steps and (ii)
   attached a spurious exit fragment to the restarted incarnation. *)
let run_crash_proto ~faults ~mid =
  let memory = Memory.create () in
  let module M = (val Sim_mem.mem memory) in
  let a = M.alloc ~name:"a" ~width:4 ~init:0 () in
  let b = M.alloc ~name:"b" ~width:4 ~init:0 () in
  let scratch = M.alloc ~name:"s" ~width:4 ~init:0 () in
  (* 4 accesses per cycle: read a (entry), write scratch (CS), write a +
     write b (exit) — a two-step exit so a fault can land mid-exit. *)
  let proc me () =
    Proc.region Event.Trying;
    ignore (M.read a);
    Proc.region Event.Critical;
    M.write scratch me;
    Proc.region Event.Exiting;
    M.write a me;
    M.write b me;
    Proc.region Event.Remainder
  in
  let procs = [| proc 0; proc 1 |] in
  (* p1 first (all 4 accesses fault-free, 3 when crashed mid-exit), then
     p0's full cycle, then whatever is left of p1. *)
  let prefix = List.init (if mid then 3 else 4) (fun _ -> 1) in
  let pick =
    Schedule.pref_then prefix
      (Schedule.pref_then [ 0; 0; 0; 0 ] (Schedule.solo 1))
  in
  Runner.run ~memory ~pick ~faults procs

let test_winner_fragment_survives_fault () =
  let fragment_of out =
    match
      List.filter (fun (pid, _) -> pid = 0)
        (Measures.mutex_wc_entry out.Runner.trace ~nprocs:2)
    with
    | [ (_, s) ] -> s
    | other ->
      Alcotest.failf "expected exactly one p0 entry, got %d"
        (List.length other)
  in
  let clean = fragment_of (run_crash_proto ~faults:[] ~mid:false) in
  check "fault-free winner fragment" 1 clean.Measures.steps;
  (* Crash p1 just before scheduler step 3 — after its exit's first
     write, before the second — and restart it in the same step. *)
  let faults =
    [ Fault.crash ~step:3 ~pid:1; Fault.recover ~step:3 ~pid:1 ]
  in
  let out = run_crash_proto ~faults ~mid:true in
  let faulted = fragment_of out in
  check "winner fragment unchanged by mid-exit crash" clean.Measures.steps
    faulted.Measures.steps;
  check "winner registers unchanged" clean.Measures.registers
    faulted.Measures.registers;
  (* The restarted incarnation's completed exit is the only p1 exit
     fragment; the half-done pre-crash exit must not leak one. *)
  let p1_exits =
    List.filter (fun (pid, _) -> pid = 1)
      (Measures.mutex_wc_exit out.Runner.trace ~nprocs:2)
  in
  (match p1_exits with
  | [ (_, s) ] -> check "restarted exit steps" 2 s.Measures.steps
  | other ->
    Alcotest.failf "expected exactly one p1 exit fragment, got %d"
      (List.length other));
  (* regions_at agrees: after the recovery (and before p1 restarts), p1
     is back in Remainder, not ghost-occupying Exiting. *)
  let crash_seq =
    Trace.fold
      (fun acc e ->
        match e.Event.body with Event.Recover -> e.Event.seq | _ -> acc)
      (-1) out.Runner.trace
  in
  let regions = Trace.regions_at out.Runner.trace (crash_seq + 1) ~nprocs:2 in
  check_bool "p1 region reset on recovery" true
    (Event.region_equal regions.(1) Event.Remainder)

(* ------------------------------------------------------------------ *)
(* Remote accesses: local spin vs spin on shared (§1.2 / YA93)         *)
(* ------------------------------------------------------------------ *)

let rmr_per_acq (module A : Mutex_intf.ALG) ~n ~rounds ~cs_len ~seed =
  let p = Mutex_intf.params n in
  let memory = Memory.create () in
  let module M = (val Sim_mem.mem memory) in
  let module L = A.Make (M) in
  let inst = L.create p in
  let scratch = M.alloc ~name:"s" ~width:8 ~init:0 () in
  let proc me () =
    for _ = 1 to rounds do
      Proc.region Event.Trying;
      L.lock inst ~me;
      Proc.region Event.Critical;
      for k = 1 to cs_len do
        M.write scratch (k land 255)
      done;
      Proc.region Event.Exiting;
      L.unlock inst ~me;
      Proc.region Event.Remainder
    done
  in
  let out =
    Runner.run ~memory ~pick:(Schedule.random ~seed) (Array.init n proc)
  in
  let remote = Measures.remote_accesses out.Runner.trace ~nprocs:n in
  float_of_int (Array.fold_left ( + ) 0 remote) /. float_of_int (n * rounds)

(* The mcs-lock waiter spins on a flag only its predecessor writes, so
   its remote accesses per acquisition stay bounded at any contention;
   tas-lock spins with test-and-set writes on the one shared bit, so its
   remote count grows with contention. *)
let prop_local_spin_vs_shared_spin =
  QCheck.Test.make ~count:15 ~name:"mcs bounded rmr, tas grows (YA93)"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let mcs6 = rmr_per_acq Registry.mcs ~n:6 ~rounds:5 ~cs_len:20 ~seed in
      let tas2 = rmr_per_acq Registry.tas_lock ~n:2 ~rounds:5 ~cs_len:20 ~seed in
      let tas6 = rmr_per_acq Registry.tas_lock ~n:6 ~rounds:5 ~cs_len:20 ~seed in
      mcs6 <= 20.0 && tas6 > tas2 && tas6 > 2.0 *. mcs6)

(* ------------------------------------------------------------------ *)
(* Bound formulas                                                      *)
(* ------------------------------------------------------------------ *)

let test_bound_values () =
  (* Spot values computed by hand: n=2^16, l=1: log n=16, loglog n=4,
     denom = 1-2+12 = 11. *)
  let v = Bounds.mutex_cf_step_lower ~n:65536 ~l:1 in
  check_bool "thm1 value" true (abs_float (v -. (16. /. 11.)) < 1e-9);
  (* n=2^16, l=16: sqrt(16/20). *)
  let v = Bounds.mutex_cf_register_lower ~n:65536 ~l:16 in
  check_bool "thm2 value" true (abs_float (v -. sqrt (16. /. 20.)) < 1e-9);
  check "thm3 step upper n=2^16 l=4" (7 * 4)
    (Bounds.mutex_cf_step_upper ~n:65536 ~l:4);
  check "thm3 reg upper n=2^16 l=4" (3 * 4)
    (Bounds.mutex_cf_register_upper ~n:65536 ~l:4);
  (* Degenerate smalls return 0 rather than exploding. *)
  check_bool "n=1 is vacuous" true (Bounds.mutex_cf_step_lower ~n:1 ~l:1 = 0.);
  check_bool "n=2 l=1 denom<=0 vacuous" true
    (Bounds.mutex_cf_step_lower ~n:2 ~l:1 = 0.)

let test_bound_monotone () =
  (* The step lower bound grows with n and shrinks with l. *)
  let ns = [ 16; 256; 65536; 1 lsl 20 ] in
  let rec pairs = function
    | a :: (b :: _ as rest) ->
      check_bool "monotone in n" true
        (Bounds.mutex_cf_step_lower ~n:b ~l:4
        >= Bounds.mutex_cf_step_lower ~n:a ~l:4);
      pairs rest
    | _ -> ()
  in
  pairs ns;
  List.iter
    (fun l ->
      check_bool "antitone in l" true
        (Bounds.mutex_cf_step_lower ~n:65536 ~l
        >= Bounds.mutex_cf_step_lower ~n:65536 ~l:(l + 4)))
    [ 1; 4; 8 ]

let test_naming_table_shape () =
  check "five columns" 5 (List.length Bounds.naming_table);
  (* The tas column is all linear; rmw all log. *)
  (match Bounds.naming_table with
  | ("tas", a, b, c, d) :: _ ->
    List.iter
      (fun cell -> check_bool "tas linear" true (cell = Bounds.Linear))
      [ a; b; c; d ]
  | _ -> Alcotest.fail "tas first");
  match List.rev Bounds.naming_table with
  | ("rmw", a, b, c, d) :: _ ->
    List.iter
      (fun cell -> check_bool "rmw log" true (cell = Bounds.Log))
      [ a; b; c; d ]
  | _ -> Alcotest.fail "rmw last"

(* ------------------------------------------------------------------ *)
(* Sandwich: lower bound <= measured <= upper bound                    *)
(* ------------------------------------------------------------------ *)

(* Theorem 1/2 lower bounds hold for every register-model algorithm at
   its true atomicity. *)
let prop_lower_bounds_hold =
  QCheck.Test.make ~count:40
    ~name:"theorem 1 and 2 lower bounds hold for all measured algorithms"
    QCheck.(pair (int_range 2 40) (int_range 1 8))
    (fun (n, l) ->
      List.for_all
        (fun (module A : Mutex_intf.ALG) ->
          let p = { Mutex_intf.n; l } in
          if not (A.supports p) then true
          else begin
            let r = Mutex_harness.contention_free (module A) p in
            let atomicity = r.Mutex_harness.atomicity_observed in
            let s = r.Mutex_harness.max in
            float_of_int s.Measures.steps
            > Bounds.mutex_cf_step_lower ~n ~l:atomicity -. 1e-9
            && float_of_int s.Measures.registers
               >= Bounds.mutex_cf_register_lower ~n ~l:atomicity -. 1e-9
          end)
        Registry.register_model)

(* The tree meets Theorem 3 with the capacity-(2^l - 1) caveat: measured
   = 7·⌈log_c n⌉ <= 7·⌈log n/(l-1)⌉, and equals the paper's 7·⌈log n/l⌉
   whenever the depths coincide. *)
let prop_tree_upper =
  QCheck.Test.make ~count:60 ~name:"tree within theorem 3 upper bounds"
    QCheck.(pair (int_range 2 2000) (int_range 2 8))
    (fun (n, l) ->
      let p = { Mutex_intf.n; l } in
      let r = Mutex_harness.contention_free Registry.tree p in
      let s = r.Mutex_harness.max in
      let loose = 7 * Ixmath.ceil_div (Ixmath.ceil_log2 (max 2 n)) (l - 1) in
      s.Measures.steps <= max loose (Bounds.mutex_cf_step_upper ~n ~l)
      && s.Measures.registers * 7 = s.Measures.steps * 3)

(* Lemma 3's inequality is satisfied by the measured (r, w) of every
   correct detector: a sanity check that the combinatorial lemma and our
   instrumentation speak the same language. *)
let prop_lemma3_on_detectors =
  QCheck.Test.make ~count:40
    ~name:"lemma 3 inequality holds for measured detector complexities"
    QCheck.(pair (int_range 2 64) (int_range 1 6))
    (fun (n, l) ->
      List.for_all
        (fun (module D : Mutex_intf.DETECTOR) ->
          let p = { Mutex_intf.n; l } in
          if not (D.supports p) then true
          else begin
            let r = Detect_harness.contention_free (module D) p in
            let s = r.Detect_harness.max in
            Bounds.lemma3_holds ~n ~l:r.Detect_harness.atomicity_observed
              ~r:s.Measures.read_registers ~w:s.Measures.write_steps
          end)
        Registry.detectors)

(* Lemma 6 likewise for register complexity. *)
let prop_lemma6_on_detectors =
  QCheck.Test.make ~count:40
    ~name:"lemma 6 inequality holds for measured detector complexities"
    QCheck.(pair (int_range 2 64) (int_range 1 6))
    (fun (n, l) ->
      List.for_all
        (fun (module D : Mutex_intf.DETECTOR) ->
          let p = { Mutex_intf.n; l } in
          if not (D.supports p) then true
          else begin
            let r = Detect_harness.contention_free (module D) p in
            let s = r.Detect_harness.max in
            Bounds.lemma6_holds ~n ~l:r.Detect_harness.atomicity_observed
              ~c:s.Measures.registers ~w:s.Measures.write_registers
          end)
        Registry.detectors)

(* The §2.4 corollary: bits accessed contention-free >= l + c - 1 where c
   is the Theorem 1 bound; our tree with atomicity l accesses about
   l·(steps) bits, comfortably above. *)
let test_bits_accessed () =
  List.iter
    (fun (n, l) ->
      let p = { Mutex_intf.n; l } in
      let r = Mutex_harness.contention_free Registry.tree p in
      let bits_touched =
        l * r.Mutex_harness.max.Measures.steps
      in
      check_bool
        (Printf.sprintf "n=%d l=%d bits %d >= bound" n l bits_touched)
        true
        (float_of_int bits_touched >= Bounds.bits_accessed_lower ~n ~l))
    [ (16, 2); (256, 2); (256, 4); (4096, 3) ]

(* ------------------------------------------------------------------ *)
(* Streaming (Online) vs materialised measures                         *)
(* ------------------------------------------------------------------ *)

(* One contended run of [alg] at [n]; the trace is then replayed into
   [Measures.Online] and [Spec.Monitor], and every streaming measure
   with a materialised counterpart must agree EXACTLY — same samples,
   same fragment lists, same order.  This is the gate that lets the
   EXP-SCALE sweeps trust the streaming numbers at n where no trace can
   be materialised. *)
let assert_online_equals_materialised ?faults ~pick ~what alg n =
  let (module A : Mutex_intf.ALG) = alg in
  let p = Mutex_intf.params n in
  let out = Mutex_harness.run ~rounds:2 ?faults ~pick:(pick ()) alg p in
  let trace = out.Runner.trace in
  let online = Measures.Online.create ~nprocs:n in
  Measures.Online.feed_trace online trace;
  let ctx tag = Printf.sprintf "%s n=%d %s: %s" A.name n what tag in
  let eq tag a b = check_bool (ctx tag) true (a = b) in
  eq "events_seen" (Measures.Online.events_seen online) (Trace.length trace);
  eq "per_process"
    (Array.to_list (Measures.Online.per_process online))
    (Array.to_list (Measures.per_process_samples trace ~nprocs:n));
  for pid = 0 to n - 1 do
    eq "contention_free"
      (Measures.Online.contention_free online ~pid)
      (Measures.mutex_contention_free trace ~nprocs:n ~pid)
  done;
  eq "wc_entries"
    (Measures.Online.wc_entries online)
    (Measures.mutex_wc_entry trace ~nprocs:n);
  eq "wc_exits"
    (Measures.Online.wc_exits online)
    (Measures.mutex_wc_exit trace ~nprocs:n);
  eq "recovery_paths"
    (Measures.Online.recovery_paths online)
    (Measures.recovery_paths trace ~nprocs:n);
  eq "recovery_rmr"
    (Measures.Online.recovery_rmr online)
    (Measures.recovery_rmr trace ~nprocs:n);
  eq "decisions"
    (Measures.Online.decisions online)
    (Measures.decisions trace ~nprocs:n);
  (* The materialised holder masks stop at 62 processes. *)
  if n <= 62 then
    eq "remote_accesses"
      (Array.to_list (Measures.Online.remote_accesses online))
      (Array.to_list (Measures.remote_accesses trace ~nprocs:n));
  (* The streaming exclusion monitors agree with the trace checkers —
     the plain one only on crash-free runs (a crashed holder makes the
     plain checker's verdict meaningless, matching Spec's own docs). *)
  let feed_monitor m =
    Trace.iter (fun e -> Spec.Monitor.feed m ~pid:e.Event.pid e.Event.body) trace;
    Spec.Monitor.result m
  in
  if faults = None then
    eq "mutual_exclusion"
      (feed_monitor (Spec.Monitor.mutual_exclusion ()))
      (Spec.mutual_exclusion trace ~nprocs:n);
  eq "mutual_exclusion_recoverable"
    (feed_monitor (Spec.Monitor.mutual_exclusion_recoverable ()))
    (Spec.mutual_exclusion_recoverable trace ~nprocs:n)

let schedules n =
  [ ("round-robin", fun () -> Schedule.round_robin ());
    ("random", fun () -> Schedule.random ~seed:(11 * n + 1)) ]

(* Every registry algorithm, crash-free, at n in {2, 3, 8} under two
   schedule families. *)
let test_online_equals_materialised_registry () =
  List.iter
    (fun n ->
      List.iter
        (fun ((module A : Mutex_intf.ALG) as alg) ->
          if A.supports (Mutex_intf.params n) then
            List.iter
              (fun (what, pick) ->
                assert_online_equals_materialised ~pick ~what alg n)
              (schedules n))
        Registry.all)
    [ 2; 3; 8 ]

(* The recoverable locks again, now under seeded chaos plans: the
   recovery-path and recovery-RMR accumulators must match through
   crash eviction and restart. *)
let test_online_equals_materialised_faults () =
  List.iter
    (fun n ->
      List.iter
        (fun ((module A : Mutex_intf.ALG) as alg) ->
          let p = Mutex_intf.params n in
          if A.supports p && A.recovery p <> None then
            List.iter
              (fun seed ->
                let faults =
                  Fault.chaos ~seed ~nprocs:n ~pairs:2 ~horizon:(40 * n)
                in
                List.iter
                  (fun (what, pick) ->
                    assert_online_equals_materialised ~faults ~pick
                      ~what:(Printf.sprintf "%s chaos seed=%d" what seed)
                      alg n)
                  (schedules n))
              [ 1; 2; 3 ])
        Registry.recoverable)
    [ 2; 3; 8 ]

(* Past the old caps: 70 processes is beyond the 62-bit holder masks,
   so this covers the streaming holder stamps (crash eviction included)
   where no bitmask encoding could, and bakery's per-process scans grow
   every accumulator table far past its initial 8 slots. *)
let test_online_equals_materialised_large () =
  let n = 70 in
  List.iter
    (fun seed ->
      let faults = Fault.chaos ~seed ~nprocs:n ~pairs:2 ~horizon:(40 * n) in
      List.iter
        (fun (what, pick) ->
          assert_online_equals_materialised ~faults ~pick
            ~what:(Printf.sprintf "%s chaos seed=%d" what seed)
            Registry.rec_tas n)
        (schedules n))
    [ 1; 2 ];
  assert_online_equals_materialised
    ~pick:(fun () -> Schedule.round_robin ())
    ~what:"round-robin" Registry.bakery n

(* Randomized amplification: arbitrary seeds drive both the schedule and
   the fault plan; a cheap spin lock and a recoverable lock cover the
   plain and crash paths. *)
let prop_online_equivalence =
  QCheck.Test.make ~count:40 ~name:"online measures = materialised (seeded)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let pick = ("seeded", fun () -> Schedule.random ~seed) in
      assert_online_equals_materialised ~pick:(snd pick) ~what:"qcheck"
        Registry.lamport_fast 3;
      let faults = Fault.chaos ~seed ~nprocs:3 ~pairs:2 ~horizon:60 in
      assert_online_equals_materialised ~faults ~pick:(snd pick)
        ~what:"qcheck chaos" Registry.rec_tas 3;
      true)

(* The wheel-driven streaming harness returns the exact same cf_result
   as the trace-driven one, per process. *)
let test_cf_streaming_equals_materialised () =
  List.iter
    (fun ((module A : Mutex_intf.ALG) as alg) ->
      let p = Mutex_intf.params 8 in
      if A.supports p then begin
        let a = Mutex_harness.contention_free alg p in
        let b = Mutex_harness.contention_free_streaming alg p in
        check_bool (A.name ^ " max sample") true
          (a.Mutex_harness.max = b.Mutex_harness.max);
        check_bool (A.name ^ " per-process samples") true
          (a.Mutex_harness.per_process = b.Mutex_harness.per_process);
        check (A.name ^ " atomicity observed")
          a.Mutex_harness.atomicity_observed b.Mutex_harness.atomicity_observed
      end)
    Registry.all

let () =
  Alcotest.run "cfc_core"
    [ ( "measures",
        [ Alcotest.test_case "wc entry window" `Quick test_wc_entry_window;
          Alcotest.test_case "cf regions" `Quick test_cf_regions;
          Alcotest.test_case "repeated entries" `Quick test_repeated_entries;
          Alcotest.test_case "decisions" `Quick test_decisions;
          Alcotest.test_case "recovery paths" `Quick test_recovery_paths;
          Alcotest.test_case "recovery rmr (cold cache, per incarnation)"
            `Quick test_recovery_rmr;
          Alcotest.test_case "write-invalidate holder stamps" `Quick
            test_holder_stamps;
          Alcotest.test_case "online pid range check" `Quick
            test_online_pid_range;
          Alcotest.test_case "online window resets" `Quick
            test_online_window_resets;
          Alcotest.test_case "exact recovery cost (all recoverable locks)"
            `Quick test_recoverable_recovery_exact;
          Alcotest.test_case "double-crash sweep (crash during recovery)"
            `Quick test_double_crash_sweep;
          Alcotest.test_case "winner fragment survives mid-exit crash"
            `Quick test_winner_fragment_survives_fault;
          QCheck_alcotest.to_alcotest prop_local_spin_vs_shared_spin ] );
      ( "streaming",
        [ Alcotest.test_case "online = materialised (registry)" `Quick
            test_online_equals_materialised_registry;
          Alcotest.test_case "online = materialised (chaos faults)" `Quick
            test_online_equals_materialised_faults;
          Alcotest.test_case "online = materialised (n = 70)" `Quick
            test_online_equals_materialised_large;
          QCheck_alcotest.to_alcotest prop_online_equivalence;
          Alcotest.test_case "cf streaming harness = trace harness" `Quick
            test_cf_streaming_equals_materialised ] );
      ( "bounds",
        [ Alcotest.test_case "spot values" `Quick test_bound_values;
          Alcotest.test_case "monotonicity" `Quick test_bound_monotone;
          Alcotest.test_case "naming table shape" `Quick
            test_naming_table_shape ] );
      ( "sandwich",
        [ QCheck_alcotest.to_alcotest prop_lower_bounds_hold;
          QCheck_alcotest.to_alcotest prop_tree_upper;
          QCheck_alcotest.to_alcotest prop_lemma3_on_detectors;
          QCheck_alcotest.to_alcotest prop_lemma6_on_detectors;
          Alcotest.test_case "bits accessed corollary" `Quick
            test_bits_accessed ] ) ]
