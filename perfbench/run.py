#!/usr/bin/env python3
"""Run one benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Builds perfbench/main.exe from source with dune (release profile, build
directory $CARGO_TARGET_DIR or .bench_build), runs the workload, checks
the deterministic counts it reports against the committed BENCH_*.json
rows, and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  Exits non-zero, printing no result, when
the checkout cannot be built or the run breaks.  See NOTES.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no dune-project and lib/ at %s: not a checkout of the repository"
             % ROOT)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    cmd = [dune, "build", "--root", ROOT, "--build-dir", build_dir,
           "--profile", "release", "perfbench/main.exe"]
    try:
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    return os.path.join(build_dir, "default", "perfbench", "main.exe")


def run_exe(exe, args):
    """Stream the executable's output and return its RESULT record."""
    proc = subprocess.Popen([exe] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or result is None:
        fail("main.exe exited with %s" % proc.returncode)
    return result


def committed_row(cache, row):
    path = os.path.join(ROOT, row["file"])
    if path not in cache:
        with open(path) as f:
            cache[path] = json.load(f)
    matches = [r for r in cache[path][row["table"]]
               if all(r.get(k) == v for k, v in row["key"].items())]
    return matches[0] if len(matches) == 1 else None


def check_rows(items):
    """Failed runs added by counts that differ from their committed row."""
    cache, failed = {}, 0
    for it in items:
        if it["row"] is None:
            continue
        row = committed_row(cache, it["row"])
        if row is None and not it["row"]["required"]:
            print("  %s: no committed row to compare" % it["label"])
            continue
        if row is None:
            bad = ["no unique committed row in %s" % it["row"]["file"]]
        else:
            bad = ["%s=%s (committed %s)" % (k, v, row[k])
                   for k, v in it["counts"].items()
                   if k in row and int(row[k]) != v]
        if bad:
            print("  %s: %s" % (it["label"], "; ".join(bad)))
            failed += it["runs"] - it["failed_runs"]
        else:
            print("  %s: counts equal %s" % (it["label"], row_name(it["row"])))
    return failed


def row_name(row):
    return "%s %s" % (row["file"], " ".join(
        "%s=%s" % (k, v) for k, v in row["key"].items() if v is not None))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % a.workload)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(os.path.join(ROOT, build_dir))
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    res = run_exe(exe, ["--workload", a.workload, "--seed", str(a.seed),
                        "--seconds", str(a.seconds), "--trace", str(a.trace),
                        "--out", out_dir])
    with open(os.path.join(out_dir, "result-%s-%d-%d.json"
                           % (a.workload, a.seed, a.trace)), "w") as f:
        json.dump(res, f, indent=1)

    print("committed rows:")
    failed = res["failed"] + check_rows(res["items"])
    for it in res["items"]:
        if not it["reproducible"]:
            print("  %s: counts changed between repetitions" % it["label"])

    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    metrics = res["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in wanted) or any(
            metrics[m["name"]]["unit"] != m["unit"] for m in wanted):
        fail("metrics do not match BENCHMARK.json: %s" % sorted(metrics))

    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
