#!/usr/bin/env python3
"""Build and run the CHOPPER end-to-end benchmark (see README.md here).

Run from the repository root:

    python3 perfbench/run.py --workload kmeans-tuned --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds `perfbench` (Release) from the sources
next to this directory into $CARGO_TARGET_DIR (default .bench_build) under
the repository root; later calls rebuild incrementally. Build output goes to
stderr. The benchmark runs in <build dir>/perfbench-run/<workload>/, where it
leaves only the span file of a traced run. Its stdout is passed through, so
the last line is the benchmark's JSON result.
"""

import json
import os
import signal
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880

_child = None


def _stop_child(signum, _frame):
    if _child is not None and _child.poll() is None:
        _child.kill()
        _child.wait()
    sys.exit(128 + signum)


def _call(cmd, timeout, **kwargs):
    """Run cmd to completion; kill and reap it on timeout or signal."""
    global _child
    _child = subprocess.Popen(cmd, **kwargs)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _child.kill()
        _child.wait()
        sys.exit("perfbench: %s timed out after %d s" % (cmd[0], timeout))
    code = _child.returncode
    _child = None
    return code, out


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure + build the benchmark binary; return its path."""
    for need in ("src/CMakeLists.txt", "bench/harness.cc", "bench/chaos.cc"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            sys.exit("perfbench: %s is missing; run from a full source checkout"
                     % need)
    bdir = os.path.join(build_dir(), "perfbench")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        code, _ = _call(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def workdir(workload):
    d = os.path.join(build_dir(), "perfbench-run", workload or "default")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    return d


def arg_value(args, flag):
    for i, a in enumerate(args[:-1]):
        if a == flag:
            return args[i + 1]
    return None


def run_bench(binary, args, capture=False):
    """Run the benchmark binary with args; return (exit code, stdout)."""
    cwd = workdir(arg_value(args, "--workload"))
    return _call([binary] + args, RUN_TIMEOUT_S, cwd=cwd,
                 stdout=subprocess.PIPE if capture else None,
                 universal_newlines=True)


def parse_output(out):
    """(result object from the last line, context object) of one run."""
    lines = out.strip().splitlines()
    context = {}
    for line in lines:
        if line.startswith("context: "):
            context = json.loads(line[len("context: "):])
    return json.loads(lines[-1]), context


def self_test(binary):
    """Reduced-size check of the benchmark's own contract."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)

    def run_tiny(workload, trace):
        args = ["--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--tiny"]
        code, out = run_bench(binary, args, capture=True)
        expect(code == 0, "%s trace=%d exited %d" % (workload, trace, code))
        try:
            return parse_output(out)
        except (ValueError, IndexError):
            problems.append("%s trace=%d printed no result" % (workload, trace))
            return {"metrics": {}}, {}

    def check_metrics(workload, result, declared):
        for m in declared:
            got = result.get("metrics", {}).get(m["name"])
            expect(got is not None and got.get("unit") == m["unit"],
                   "%s: metric %s missing or not in %s"
                   % (workload, m["name"], m["unit"]))

    for w in spec["workloads"]:
        name = w["name"]
        tuned = name.endswith("-tuned")
        (r1, c1), (r2, c2) = run_tiny(name, 0), run_tiny(name, 0)
        rt, _ = run_tiny(name, 1)
        check_metrics(name, r1, spec["end_to_end"])
        check_metrics(name, rt, spec["per_layer"])
        sim = [r["metrics"].get("sim_makespan_s", {}).get("value")
               for r in (r1, r2)]
        expect(sim[0] is not None and sim[0] == sim[1],
               "%s: sim_makespan_s differs across runs: %s" % (name, sim))
        expect(c1.get("digest") is not None and c1.get("digest") == c2.get("digest"),
               "%s: digest differs across runs" % name)
        for r, c in ((r1, c1), (r2, c2)):
            expect(r.get("failed") == 0 and r.get("correct") is True
                   and c.get("failed_run_ratio") == 0,
                   "%s: failed_run_ratio is not 0" % name)
            if tuned:
                expect(c.get("untraced_events") == 0,
                       "%s: untraced run emitted events" % name)
        if tuned:
            events = rt.get("metrics", {}).get("obs.events", {}).get("value")
            expect(events == 0, "%s: obs.events is %s, not 0" % (name, events))
        print("self-test %s: %s" % (name, "ok" if not problems else "FAILED"))
    for p in problems:
        print("  " + p)
    return 0 if not problems else 1


def main(argv):
    signal.signal(signal.SIGTERM, _stop_child)
    signal.signal(signal.SIGINT, _stop_child)
    binary = build()
    if argv == ["--self-test"]:
        return self_test(binary)
    code, _ = run_bench(binary, argv)
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
