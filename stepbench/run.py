#!/usr/bin/env python3
"""Build and run the RBX step benchmark.

    python3 stepbench/run.py --workload box_p7_e27 --seed 1 --seconds 20 --trace 0

Builds the `rbx-stepbench` crate next to this file (offline, release, into
$CARGO_TARGET_DIR or `.bench_build`), runs it on one CPU, and passes its
output through. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Before passing the result
on, the metric names, units and directions are checked against
`BENCHMARK.json`, so the ledger and that file cannot drift apart.

    python3 stepbench/run.py --check-counts 5 6

is the steadiness proof: on every workload, two traced runs with seed 5
must report exactly the same deterministic counts, and a run with seed 6
must pass the correctness gate too.

    python3 stepbench/run.py --make-reference 0 63

records the final observables of seeds 0..63 of every workload into
`stepbench/reference.json` (run it only when the trajectory changes on
purpose, and say so in the change log).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Each run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

WORKLOADS = ("box_p7_e27", "box_p5_e125", "cyl_p5_r2_io")
# Counts that depend only on the trajectory, never on timing.
EXACT_COUNTS = ("la.fgmres_iters", "la.pcg_iters", "gs.shared_values", "io.checkpoint_mb")

# Reference tolerances (see gate.rs): plate Nusselt numbers within NU_TOL of
# conduction, the per-seed kinetic energy within KE_REL_TOL, and every seed
# inside the recorded band widened by KE_BAND_MARGIN on both sides.
NU_TOL = 1e-4
KE_REL_TOL = 1e-5
KE_BAND_MARGIN = 4.0


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        res = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if res.returncode != 0:
        fail(f"build failed with code {res.returncode}")
    binary = os.path.join(os.path.abspath(target), "release", "rbx-stepbench")
    if not os.path.isfile(binary):
        fail(f"no binary at {binary}")
    return binary


def one_cpu():
    """Keep the benchmark on one CPU (the highest it may use).

    On a small shared host the hypervisor deschedules each vCPU on its own,
    so threads that wait on each other across two vCPUs stall whenever
    either is taken away: the two-rank cylinder ran 25 ms/step on a quiet
    host and 74-133 ms/step under 30 % steal. On one CPU a stall costs only
    the time it lasts, as it does for a single thread."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run(binary, args):
    try:
        res = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, preexec_fn=one_cpu)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if res.returncode != 0:
        sys.stdout.write(res.stdout)
        fail(f"benchmark exited with code {res.returncode}")
    return res.stdout


def check_ledger(binary):
    """BENCHMARK.json must list exactly the ledger the binary reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ledger = json.loads(run(binary, ["--ledger"]).strip().splitlines()[-1])
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"], m["better"]) for m in ledger[key]]
        have = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        if want != have:
            diff = sorted(set(want) ^ set(have))
            fail(f"BENCHMARK.json {key} differs from the ledger: {diff}")
    return ledger


def make_reference(binary, lo, hi):
    workloads = {}
    for name in WORKLOADS:
        ke = {}
        nu_dev = 0.0
        for seed in range(lo, hi + 1):
            out = run(binary, ["--workload", name, "--seed", str(seed), "--seconds", "0",
                               "--finals"])
            trajs = json.loads(out.strip().splitlines()[-1])["trajectories"]
            ke[str(seed)] = [t["ke"] for t in trajs]
            for t in trajs:
                nu_dev = max(nu_dev, abs(t["nu_hot"] - 1.0), abs(t["nu_cold"] - 1.0))
            print(f"{name} seed {seed}: {trajs}", file=sys.stderr)
        if nu_dev > NU_TOL:
            fail(f"{name}: plate Nu deviates {nu_dev:.2e} from conduction, over {NU_TOL}")
        every = [k for kes in ke.values() for k in kes]
        workloads[name] = {
            "nu": 1.0,
            "nu_tol": NU_TOL,
            "ke_rel_tol": KE_REL_TOL,
            "ke_min": min(every) / KE_BAND_MARGIN,
            "ke_max": max(every) * KE_BAND_MARGIN,
            "ke_by_seed": ke,
        }
    doc = {
        "about": "Final wall Nusselt numbers and kinetic energies of every trajectory of a "
                 "run seed after warm-up plus one episode, recorded by `run.py "
                 "--make-reference`. Nu is checked against conduction (the plates are still "
                 "conductive this early) within nu_tol; kinetic energy against the recorded "
                 "value within ke_rel_tol (not bitwise), and against the band [ke_min, "
                 "ke_max] for any seed.",
        "workloads": workloads,
    }
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def check_counts(binary, seed, other_seed):
    ok = True
    for name in WORKLOADS:
        runs = []
        for s in (seed, seed, other_seed):
            out = run(binary, ["--workload", name, "--seed", str(s), "--seconds", "3",
                               "--trace", "1"])
            runs.append(json.loads(out.strip().splitlines()[-1]))
        counts = [{k: r["metrics"][k]["value"] for k in EXACT_COUNTS} for r in runs]
        same = counts[0] == counts[1]
        correct = all(r["correct"] for r in runs)
        ok &= same and correct
        print(f"{name}: seed {seed} twice {'identical' if same else 'DIFFERENT'} {counts[0]}"
              f"{'' if same else ' vs ' + str(counts[1])}; seed {other_seed} {counts[2]}; "
              f"correct {[r['correct'] for r in runs]}")
    if not ok:
        fail("steadiness check failed")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--make-reference", nargs=2, type=int, metavar=("FIRST", "LAST"))
    p.add_argument("--check-counts", nargs=2, type=int, metavar=("SEED", "OTHER_SEED"))
    a = p.parse_args()

    binary = build()
    if a.make_reference:
        make_reference(binary, *a.make_reference)
        return
    if a.check_counts:
        check_counts(binary, *a.check_counts)
        return
    if a.workload is None or a.seed is None or a.seconds is None:
        fail("--workload, --seed and --seconds are required")
    ledger = check_ledger(binary)

    out = run(binary, ["--workload", a.workload, "--seed", str(a.seed),
                       "--seconds", str(a.seconds), "--trace", str(a.trace)])
    lines = out.rstrip("\n").splitlines()
    if not lines:
        fail("benchmark printed nothing")
    result = json.loads(lines[-1])
    want = [m["name"] for m in ledger["per_layer" if a.trace else "end_to_end"]]
    if list(result["metrics"]) != want:
        fail(f"metrics {sorted(set(want) ^ set(result['metrics']))} missing or extra")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
