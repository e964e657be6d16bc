#!/usr/bin/env python3
"""Paper-workload benchmark for the BFree simulator.

Builds the simulator libraries and the benchmark driver from source,
runs one workload in its own process and prints the driver's result as
the last line of standard output:

    python3 perfbench/run.py --workload vgg16-8b --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
and writes a Chrome trace-event file next to the build. Two more modes
serve the benchmark itself:

    python3 perfbench/run.py --smoke    # tiny networks, asserts every metric
    python3 perfbench/run.py --record   # re-record digests.json

The build goes to $CARGO_TARGET_DIR, else .bench_build, at the root of
the checkout. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("vgg16-8b", "vgg16-4b", "lstm-8b")
SMOKE_WORKLOADS = ("smoke-cnn", "smoke-lstm")
# Seeds whose output digests are stored in digests.json.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d)


def child_env(bdir):
    """Keep compiler and driver temporaries inside the checkout."""
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group and wait for it. On a timeout
    or an interrupt the whole group (compilers under the build tool
    too) is killed and reaped before the exception propagates."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise
    return p.returncode, out


def run_quiet(cmd, env, timeout):
    """Run a build step with its output on stderr; fail on error."""
    try:
        code, _ = run_group(cmd, timeout, stdout=sys.stderr,
                            stderr=sys.stderr, env=env)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if code != 0:
        fail("failed: " + " ".join(cmd))


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at " + os.path.join(ROOT, "src"))
    env = child_env(bdir)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, env, BUILD_TIMEOUT_S)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    run_quiet(["cmake", "--build", bdir, "--target", "perfbench_driver",
               "-j", jobs], env, BUILD_TIMEOUT_S)
    return os.path.join(bdir, "perfbench_driver")


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_json(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def run_driver(exe, bdir, workload, seed, seconds, trace, expect=None):
    """Run one workload; return (info, result) parsed from its stdout."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", git_commit(), "--trace-dir", bdir]
    if expect:
        cmd += ["--expect", expect]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                              text=True, env=child_env(bdir))
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % RUN_TIMEOUT_S)
    if code != 0:
        fail("driver exited with code %d" % code)
    lines = out.strip().splitlines()
    if len(lines) < 2:
        fail("driver printed no result")
    try:
        info = json.loads(lines[-2])["perfbench"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError):
        fail("driver output is not the expected JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("driver result has the wrong keys")
    return info, result


def list_metrics(exe, workload, trace):
    r = subprocess.run([exe, "--workload", workload, "--trace", str(trace),
                        "--list-metrics"], stdout=subprocess.PIPE,
                       text=True, timeout=60)
    if r.returncode != 0:
        fail("--list-metrics failed for " + workload)
    return r.stdout.split()


def check_trace_file(path):
    """Chrome trace events: every span has a name, start, end, parent
    and inference id, and sits inside its parent."""
    with open(path) as f:
        doc = json.load(f)
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    assert spans, "no spans in " + path
    by_name = {}
    for e in spans:
        a = e["args"]
        assert e["name"] and e["dur"] >= 0, e
        assert a["end_us"] >= a["start_us"] and a["inference"] == e["id"], e
        by_name[(e["name"], e["id"])] = e
    for e in spans:
        p = e["args"]["parent"]
        if p is None:
            continue
        parent = by_name[(p, e["id"])]
        assert parent["ts"] <= e["ts"], e
        assert e["ts"] + e["dur"] <= parent["ts"] + parent["dur"] + 1e-3, e


def smoke(exe, bdir):
    """Run the driver on the tiny networks and assert every metric."""
    bench = load_json(os.path.join(os.pardir, "BENCHMARK.json"))
    e2e = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for w in WORKLOADS:
        assert list_metrics(exe, w, 0) == e2e, w
        assert list_metrics(exe, w, 1) == per_layer, w
    for w in SMOKE_WORKLOADS:
        for trace in (0, 1):
            info, res = run_driver(exe, bdir, w, DEFAULT_SEED, 1, trace)
            names = list_metrics(exe, w, trace)
            got = res["metrics"]
            assert res["correct"] and res["failed"] == 0, (w, trace, info)
            assert res["attempted"] >= 1, (w, trace)
            assert sorted(got) == sorted(names), (w, trace, sorted(got))
            for m in got.values():
                assert isinstance(m["value"], (int, float)), m
                assert math.isfinite(m["value"]) and m["unit"], m
            if trace:
                check_trace_file(info["trace_file"])
            print("smoke %s trace=%d: %d metrics ok"
                  % (w, trace, len(got)))
    print("smoke ok")


def record(exe, bdir):
    """Re-record the stored digests of the default and held-out seeds."""
    digests = {}
    for w in WORKLOADS:
        digests[w] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            info, res = run_driver(exe, bdir, w, seed, 1, 0)
            if not res["correct"]:
                fail("%s seed %d is not correct: %s"
                     % (w, seed, info["problems"]))
            digests[w][str(seed)] = info["digest"]
            print("%s seed %d: %s" % (w, seed, info["digest"]))
    with open(os.path.join(HERE, "digests.json"), "w") as f:
        json.dump(digests, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    # A terminated benchmark still stops and reaps its children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + SMOKE_WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if not (args.smoke or args.record or args.workload):
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    exe = build(bdir)
    if args.smoke:
        return smoke(exe, bdir)
    if args.record:
        return record(exe, bdir)

    expect = load_json("digests.json").get(args.workload, {}).get(
        str(args.seed))
    info, result = run_driver(exe, bdir, args.workload, args.seed,
                              args.seconds, args.trace, expect)
    print(json.dumps({"perfbench": info}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
