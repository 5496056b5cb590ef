#!/usr/bin/env python3
"""Whole-scenario host benchmark for the resource-container simulator.

Builds hostbench (hostbench/CMakeLists.txt) from the repository's sources on
first use, runs one workload spec in fresh processes through the public xp
API, checks every simulated output against the recorded reference, and
prints one JSON result as the last line of stdout.

  python3 hostbench/run.py --workload rc_churn --seed 3 --seconds 20 --trace 0
  python3 hostbench/run.py --self-test      # the correctness check, tested
  python3 hostbench/run.py --record         # rewrite the references

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run (spans go to .bench_build/hostbench/spans/). The exit
code is 0 only when every run matched its reference. See hostbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
BINARY = os.path.join(BUILD, "hostbench")
SPANS = os.path.join(BUILD, "spans")
REFERENCE = os.path.join(HERE, "reference")

WORKLOADS = ("rc_churn", "unmod_flood", "hoard_io")
# Spec seeds with recorded references. --seed N runs SEEDS[N % len(SEEDS)].
# 42 is the default seed, used while sizing the workloads; the others were
# held out until the references were recorded.
SEEDS = (42, 7919, 104729, 1299709)
SETUP_REPS = 30        # parse+compile repetitions before each timed run
CHILD_TIMEOUT_S = 150  # one hostbench process


def fail(msg):
    print("hostbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "xp", "runner.h")):
        fail("simulator sources (src/) not found next to hostbench/; nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    if subprocess.call(["cmake", "--build", BUILD, "-j", "3"], stdout=sys.stderr) != 0:
        fail("build failed")


def spec_path(workload):
    return os.path.join(HERE, "workloads", workload + ".json")


def hostbench(mode, workload, seed, *extra):
    """Runs one hostbench process; returns its JSON document or None."""
    cmd = [BINARY, "--mode", mode, "--spec", spec_path(workload), "--seed", str(seed)]
    cmd += [str(x) for x in extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        print("hostbench: %s %s seed %d timed out" % (mode, workload, seed),
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("hostbench: %s %s seed %d exited %d" % (mode, workload, seed,
                                                      proc.returncode), file=sys.stderr)
        return None
    return json.loads(proc.stdout)


def load_reference(workload):
    with open(os.path.join(REFERENCE, workload + ".json")) as f:
        return json.load(f)["seeds"]


def mismatch(outputs, expected):
    """First difference between a run's simulated outputs and the reference.

    References are recorded only from runs whose in-spec assertions all
    passed, so an exact match also means every assertion held.
    """
    for key in ("digest", "digest_events", "ok"):
        if outputs[key] != expected[key]:
            return "%s %r != reference %r" % (key, outputs[key], expected[key])
    for key in ("metrics", "assertions", "counters"):
        got = {m[0]: m[1:] for m in outputs[key]}
        want = {m[0]: m[1:] for m in expected[key]}
        # A counter the simulator adds later is not a difference; one it
        # drops or renames is.
        if key == "counters":
            missing = [name for name in want if name not in got]
            if missing:
                return "counters missing from the run: %s" % ", ".join(missing)
        elif [m[0] for m in outputs[key]] != [m[0] for m in expected[key]]:
            return "%s names differ from the reference" % key
        for name in want:
            if got[name] != want[name]:
                return "%s %s = %s, reference %s" % (key, name, got[name], want[name])
    return None


def check(doc, expected, what):
    """(attempted, failed) for a hostbench document checked against `expected`."""
    if doc is None:
        return 1, 1
    failed = 0
    for outputs in doc["outputs"]:
        diff = mismatch(outputs, expected)
        if diff:
            print("hostbench: %s: %s" % (what, diff), file=sys.stderr)
            failed += 1
    return len(doc["outputs"]), failed


def bench(args):
    seed = SEEDS[args.seed % len(SEEDS)]
    expected = load_reference(args.workload)[str(seed)]
    what = "%s seed %d" % (args.workload, seed)

    timed = hostbench("time", args.workload, seed, "--seconds", args.seconds,
                      "--setup-reps", SETUP_REPS)
    attempted, failed = check(timed, expected, what + " (timed)")
    # Audited check run: conservation violations exit the process nonzero.
    audited = hostbench("audit", args.workload, seed)
    a, f = check(audited, expected, what + " (audited)")
    attempted, failed = attempted + a, failed + f

    traced = None
    if args.trace:
        spans = os.path.join(SPANS, "%s-seed%d.json" % (args.workload, seed))
        traced = hostbench("trace", args.workload, seed, "--spans", spans,
                           "--run-id", "%s/%d" % (args.workload, seed))
        a, f = check(traced, expected, what + " (traced)")
        attempted, failed = attempted + a, failed + f

    metrics = {}
    if timed is not None:
        run_s = statistics.median(timed["run_s"])
        if not args.trace:
            metrics = {
                "host_s_per_sim_s": {"value": run_s / timed["sim_s"], "unit": "s/s"},
                "setup_s": {"value": statistics.median([p + c for p, c in
                                             zip(timed["parse_s"], timed["compile_s"])]),
                            "unit": "s"},
                "peak_rss_mb": {"value": timed["peak_rss_kb"] / 1024.0, "unit": "MB"},
            }
        elif traced is not None and audited is not None:
            metrics = dict(traced["layers"])
            for name, key in (("xp.parse_ms", "parse_s"), ("xp.compile_ms", "compile_s"),
                              ("xp.teardown_ms", "teardown_s")):
                metrics[name] = {"value": statistics.median(timed[key]) * 1e3, "unit": "ms"}
            metrics["trace.overhead_frac"] = {"value": traced["run_s"] / run_s - 1.0,
                                              "unit": "fraction"}
            metrics["verify.audit_overhead_frac"] = {"value": audited["run_s"] / run_s - 1.0,
                                                     "unit": "fraction"}
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def record(workloads):
    os.makedirs(REFERENCE, exist_ok=True)
    for w in workloads:
        seeds = {}
        for seed in SEEDS:
            doc = hostbench("time", w, seed, "--seconds", 0, "--min-reps", 2,
                            "--setup-reps", 0)
            if doc is None:
                fail("%s seed %d did not run" % (w, seed))
            first = doc["outputs"][0]
            if not first["ok"]:
                fail("%s seed %d: in-spec assertions fail; not recording" % (w, seed))
            if any(o != first for o in doc["outputs"][1:]):
                fail("%s seed %d: repeated runs differ; not recording" % (w, seed))
            seeds[str(seed)] = first
            print("recorded %s seed %d digest %s" % (w, seed, first["digest"]))
        with open(os.path.join(REFERENCE, w + ".json"), "w") as f:
            json.dump({"workload": w, "seeds": seeds}, f, indent=1)
            f.write("\n")
    return 0


def self_test(workloads):
    """The reference check must accept the current code and reject a perturbed run."""
    problems = []
    for w in workloads:
        reference = load_reference(w)
        for seed in SEEDS:
            expected = reference[str(seed)]
            runs = {
                "untraced": hostbench("time", w, seed, "--seconds", 0, "--min-reps", 1,
                                      "--setup-reps", 0),
                "audited": hostbench("audit", w, seed),
                "traced": hostbench("trace", w, seed, "--spans",
                                    os.path.join(SPANS, "self-test.json")),
            }
            for name, doc in runs.items():
                _, failed = check(doc, expected, "%s seed %d %s" % (w, seed, name))
                if failed:
                    problems.append("%s seed %d: %s run differs from the reference"
                                    % (w, seed, name))
            traced, untraced = runs["traced"], runs["untraced"]
            if traced and untraced and traced["outputs"][0] != untraced["outputs"][0]:
                problems.append("%s seed %d: traced outputs differ from untraced" % (w, seed))
            # Each recorded counter is compared: a reference with one counter
            # changed must reject the untraced run.
            if untraced:
                for i, (name, value) in enumerate(expected["counters"]):
                    tampered = dict(expected)
                    tampered["counters"] = list(expected["counters"])
                    tampered["counters"][i] = [name, repr(float(value) + 1)]
                    if not mismatch(untraced["outputs"][0], tampered):
                        problems.append("%s seed %d: a change of counter %s was not detected"
                                        % (w, seed, name))
            perturbed = hostbench("time", w, seed, "--seconds", 0, "--min-reps", 1,
                                  "--setup-reps", 0, "--extra-clients", 1)
            caught = perturbed and mismatch(perturbed["outputs"][0], expected)
            if not caught:
                problems.append("%s seed %d: a one-client perturbation was not detected"
                                % (w, seed))
            print("self-test %s seed %d: untraced/audited/traced checked; +1 client: %s"
                  % (w, seed, caught or "NOT DETECTED"))
    for p in problems:
        print("FAIL " + p)
    print("self-test %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build()
    os.makedirs(SPANS, exist_ok=True)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.record:
        return record(workloads)
    if args.self_test:
        return self_test(workloads)
    if not args.workload:
        fail("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
