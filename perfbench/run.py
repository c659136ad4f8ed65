#!/usr/bin/env python3
"""LabFlow-1 benchmark: builds the program and the benchmark binary from
source, then runs one workload, the self-test, or a steadiness study.

  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --steady [--seed N] [--out FILE]
  python3 perfbench/run.py --compare FIRST.json SECOND.json

A workload run prints progress lines and, as its last line, one JSON object
with the keys correct, attempted, failed and metrics; --seconds defaults to
run_seconds in BENCHMARK.json. The steadiness mode runs every workload ten
times, untraced, on seeds 1 to 10 (or ten times on --seed N), prints each
end-to-end metric's median, quartiles and spread, and can save the set;
--compare checks two saved sets against the bounds in BENCHMARK.json. See
perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "labflow_perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUNS = 10            # runs per workload in the steadiness mode
DEFAULT_SEED = 1996  # the seed of the reference figures


def build():
    """Configures (once) and builds the benchmark binary; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: the program's sources (src/) are not here; "
                         "nothing to benchmark\n")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4",
                  "--target", "labflow_perfbench"])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env) != 0:
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def binary_args(extra):
    return [BINARY, "--workdir", WORK_DIR] + extra


def run_once(workload, seed, seconds):
    """Runs one untraced workload run and returns its result line."""
    out = subprocess.run(
        binary_args(["--workload", workload, "--seed", str(seed),
                     "--seconds", "%g" % seconds, "--trace", "0"]),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError("%s seed %d failed (exit %d): %s" % (
            workload, seed, out.returncode, out.stderr.strip()[-500:]))
    # The binary exits with 1 after printing a result whose answers are
    # wrong or whose events failed; the caller reports that result.
    return result


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def verdict(spread, bound):
    if spread < bound / 3:
        return "steady"
    return "within bound" if spread <= bound else "UNRESOLVED"


def steady(seed, out):
    """Runs every workload RUNS times: on seeds 1..RUNS, or RUNS times on
    `seed` when one is given (run-to-run noise without input changes)."""
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {"runs": RUNS, "seed": seed, "workloads": {}}
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        samples = {}
        shares = []
        for i in range(RUNS):
            run_seed = seed if seed is not None else i + 1
            r = run_once(name, run_seed, spec["run_seconds"])
            if not r["correct"] or r["failed"]:
                print("%s seed %d: %s, %d of %d events failed" % (
                    name, run_seed,
                    "answers correct" if r["correct"] else "answers WRONG",
                    r["failed"], r["attempted"]))
                ok = False
            shares.append(r["failed"] / r["attempted"])
            for metric, v in r["metrics"].items():
                samples.setdefault(metric, []).append(v["value"])
            sys.stderr.write("  %s seed %d done\n" % (name, run_seed))
        result["workloads"][name] = {"metrics": samples,
                                     "failed_share": shares}
        print("%s (%d runs, failed share %s)" % (
            name, RUNS, sorted(set(shares))))
        print("  %-20s %14s %14s %14s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for metric, values in sorted(samples.items()):
            med, q1, q3, spread = summarize(values)
            bound = bounds[metric]
            ok = ok and spread <= bound
            print("  %-20s %14.6g %14.6g %14.6g %7.2f%% %6g %s" % (
                metric, med, q1, q3, 100 * spread, bound,
                verdict(spread, bound)))
    if out:
        with open(out, "w") as f:
            json.dump(result, f, indent=1)
    return 0 if ok else 1


def compare(first_path, second_path):
    """Checks two saved --steady sets against the bounds: for every workload
    and end-to-end metric, the medians differ by at most the bound in either
    direction and both spreads are within it; the failed shares are equal."""
    spec = load_spec()
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    ok = True
    for name, a in first["workloads"].items():
        b = second["workloads"].get(name)
        if b is None:
            print("%s: missing from %s" % (name, second_path))
            ok = False
            continue
        if sorted(set(a["failed_share"])) != sorted(set(b["failed_share"])):
            print("%s: failed share differs: %s vs %s" % (
                name, a["failed_share"], b["failed_share"]))
            ok = False
        print(name)
        for m in spec["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            va, vb = a["metrics"].get(metric), b["metrics"].get(metric)
            if not va or not vb:
                print("  %-20s missing" % metric)
                ok = False
                continue
            ma, _, _, sa = summarize(va)
            mb, _, _, sb = summarize(vb)
            change = (mb - ma) / ma
            if abs(change) > bound:
                status = "DRIFT BEYOND BOUND"
            elif max(sa, sb) > bound:
                status = "UNRESOLVED (spread beyond bound)"
            else:
                status = "ok"
            ok = ok and status == "ok"
            print("  %-20s median %12.6g -> %12.6g  %+7.2f%%  "
                  "spreads %5.2f%% / %5.2f%%  bound %g  %s" % (
                      metric, ma, mb, 100 * change, 100 * sa, 100 * sb,
                      bound, status))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--steady", action="store_true")
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = p.parse_args()

    if args.compare:
        return compare(*args.compare)
    if not build():
        return 1
    if args.self_test:
        return subprocess.call(binary_args(["--self-test"]))
    if args.steady:
        return steady(args.seed, args.out)
    if not args.workload:
        p.error("--workload is required")
    seconds = (args.seconds if args.seconds is not None
               else load_spec()["run_seconds"])
    sys.stdout.flush()
    return subprocess.call(binary_args([
        "--workload", args.workload,
        "--seed", str(args.seed if args.seed is not None else DEFAULT_SEED),
        "--seconds", "%g" % seconds, "--trace", str(args.trace)]))


if __name__ == "__main__":
    sys.exit(main())
