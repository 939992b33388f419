#!/usr/bin/env python3
"""Build and run the radsurf benchmark.

    python3 radbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 radbench/run.py --self-test

Run from the root of a checkout.  The first call configures and builds the
library sources plus the radbench program (Release) into the build
directory ($CARGO_TARGET_DIR, else .bench_build); later calls rebuild
incrementally.  The program's last stdout line is the result JSON; a failed
build or run exits non-zero without printing one.

--self-test runs every workload on a token budget, checks that each prints
every metric of BENCHMARK.json with its unit, and that every correctness
gate fails the run when its check is fed a violated input.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "radbench")
# OpenMP team size, pinned so throughput is comparable between runs and
# hosts with at least this many CPUs.
OMP_THREADS = 4
RUN_TIMEOUT_S = 170

# Gates each workload carries, and the violation that must trip each.
# strike_rotated_d17 and burst_aware_d5 run by name but are not listed in
# BENCHMARK.json: single-threaded d=17 walks and per-realization rebuilds
# track the shared host's speed drift (run-to-run spreads of 0.2-0.26
# measured), too close to the largest bound the benchmark may set.
GATES = {
    "paper_sweep": ["ler"],
    "strike_rotated_d17": ["ler", "replay_engine", "residual"],
    "burst_aware_d5": ["ler", "rebuild"],
    "serve_rep5_200r": ["mismatch", "protocol"],
}


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def child_env(bdir):
    env = dict(os.environ)
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # compiler and runtime scratch stay in the checkout
    env["OMP_NUM_THREADS"] = str(min(OMP_THREADS, len(os.sched_getaffinity(0))))
    return env


def build():
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    env = child_env(bdir)
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j",
                  str(len(os.sched_getaffinity(0)))])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if r.returncode != 0:
            sys.exit("radbench: build failed: " + " ".join(cmd))
    return os.path.join(bdir, "radbench"), env


def run_radbench(binary, env, args):
    try:
        r = subprocess.run([binary] + args, cwd=ROOT, env=env,
                           stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("radbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return r.returncode, r.stdout


def result_of(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test(binary, env):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    # Every workload radbench runs, including the two BENCHMARK.json does
    # not list (see GATES).
    for workload in GATES:
        base = ["--workload", workload, "--seed", "7", "--seconds", "1",
                "--tiny"]
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run_radbench(binary, env, base + ["--trace", trace])
            res = result_of(out) if code == 0 else None
            if res is None:
                problems.append("%s trace=%s: exit %d" % (workload, trace, code))
                continue
            if not res["correct"] or res["failed"] != 0:
                problems.append("%s trace=%s: not correct: %s" % (
                    workload, trace,
                    [l for l in out.splitlines() if "FAILED" in l]))
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append("%s trace=%s: metric %s missing or not in %s"
                                    % (workload, trace, m["name"], m["unit"]))
            print("ok   %-20s trace=%s  %d metrics" % (
                workload, trace, len(res["metrics"])))
        for gate in GATES[workload]:
            code, out = run_radbench(binary, env,
                                     base + ["--trace", "0", "--violate", gate])
            res = result_of(out) if code == 0 else None
            fired = res is not None and not res["correct"] and res["failed"] > 0
            if not fired:
                problems.append("%s: gate %s did not fire" % (workload, gate))
            print("%s %-20s gate %s fires" % ("ok  " if fired else "FAIL",
                                              workload, gate))
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    binary, env = build()
    if a.self_test:
        return self_test(binary, env)
    if not a.workload:
        ap.error("--workload is required")
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", a.trace]
    if a.trace == "1":
        args += ["--trace-out", os.path.join(
            build_dir(), "trace_%s_%d.json" % (a.workload, a.seed))]
    code, out = run_radbench(binary, env, args)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
