#!/usr/bin/env python3
"""termalg benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Workloads are `census`, `term_analysis` and `subterm` (reasons in
workloads.WHY). Every op is a call into termalg's public API: an
in-process `termalg.cli.main(argv)` with stdout captured, or a library
call such as `termalg.cp3_set`. A run makes one untimed warm-up pass over
the workload's op list, then repeats the list until --seconds have passed
(and enough ops for the tail percentile were timed), then checks every
output against the oracle in tests/oracle.py and the recorded digests.

Reported times are in reference seconds. The speed of a shared machine
drifts by up to 2x within minutes, while an op's time relative to a fixed
piece of pure-Python work run next to it drifts far less. So the
reference work runs between ops, about every REF_EVERY_S seconds of op
time, and each op time is multiplied by REF_S over the mean of the
reference times just before and after it: the time on a machine where
the reference work takes REF_S. Raw times and scales are in the record.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced passes and reports the per-layer metrics, per pass, as medians
over the traced passes. The last stdout line is the summary
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full record: inputs, environment, kernel lane, per-op medians, failures.
If termalg's compiled kernels import, the same run is repeated in a child
process with them blocked, and its record is kept under "lanes".
"""

import argparse
import contextlib
import importlib.metadata
import importlib.util
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from checks import Checker, sha256
from setup_probe import block_compiled_lane
from tracer import METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 11
TAIL_LEVELS = (0.99, 0.90, 0.75)
TAIL_BEYOND = 10  # samples a tail percentile must have above it
MIN_TIMED_OPS = math.ceil(TAIL_BEYOND / (1 - TAIL_LEVELS[-1]))
TRACE_PAIRS = 3  # fewest untraced/traced pass pairs in a traced run
REF_S = 0.01  # nominal time of reference_work(), the unit of reported times
REF_EVERY_S = 0.05
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small inputs, for the tests")
    p.add_argument("--lane", choices=("python",), help="block the compiled kernels")
    return p.parse_args(argv)


def reference_work():
    """Fixed pure-Python work (tuples, indexing, dict updates), independent
    of termalg; about REF_S seconds on the machine the benchmark was tuned on."""
    table = tuple(range(64))
    seen = {}
    for i in range(5000):
        key = tuple(table[(j * 7 + i) % 64] for j in range(16))
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def reference_s():
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def tail(latencies):
    """(percentile, value) at the highest level with enough samples beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    for level in TAIL_LEVELS:
        rank = math.ceil(level * n)
        if n - rank >= TAIL_BEYOND:
            return level, ordered[rank - 1]
    return 0.5, statistics.median(ordered)


def measure_setup(files, lane):
    """Samples of import plus load, each in a fresh interpreter, in
    reference seconds (reference work run just before each probe)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py")]
    if lane:
        cmd += ["--lane", lane]
    samples = []
    for _ in range(SETUP_REPEATS):
        scale = REF_S / reference_s()
        done = subprocess.run(cmd + files, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(done.stdout.splitlines()[-1])
        if not Path(probe["module"]).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"set-up imported termalg from {probe['module']}")
        samples.append(probe["setup_s"] * scale)
    return samples


class Runner:
    """Runs the op list and keeps every output for the checks."""

    def __init__(self, termalg, cli, ops):
        self.termalg = termalg
        self.cli = cli
        self.ops = ops
        self.calls = [self._prepare(op) for op in ops]
        self.texts = [{} for _ in ops]  # digest -> output text
        self.runs = []  # (op index, digest, exited ok, traced)
        self.last_ref = reference_s()

    def _prepare(self, op):
        if op["cmd"] != "cp3_set":
            argv = workloads.argv(op)
            return lambda: self._cli(argv)
        alg = self.termalg.load_algebra(workloads.ALGEBRA_FILES[op["algebra"]])
        term = self.termalg.parse(op["term"], alg)
        n, subset = op["n"], op["set"]
        return lambda: (True, repr(self.termalg.cp3_set(term, alg, n, subset)))

    def _cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(argv)
        return code == 0, out.getvalue()

    def run_pass(self, traced=False):
        """One pass over the ops: {"traced", "latencies" (raw seconds, in op
        order), "scales" (reference scale of each op)}."""
        latencies, scales = [], []
        clock = time.perf_counter
        since_ref = 0.0
        for i, call in enumerate(self.calls):
            start = clock()
            try:
                ok, text = call()
            except Exception as exc:  # a crashing op is a failed op
                ok, text = False, f"{type(exc).__name__}: {exc}"
            elapsed = clock() - start
            latencies.append(elapsed)
            digest = sha256(text)
            self.texts[i].setdefault(digest, text)
            self.runs.append((i, digest, ok, traced))
            since_ref += elapsed
            if since_ref >= REF_EVERY_S or i == len(self.calls) - 1:
                before, self.last_ref = self.last_ref, reference_s()
                scale = 2 * REF_S / (before + self.last_ref)
                scales += [scale] * (len(latencies) - len(scales))
                since_ref = 0.0
        return {"traced": traced, "latencies": latencies, "scales": scales}

    def failures(self, checker, untraced):
        """(failed op count, first reasons). `untraced` holds the digest
        of each op's untraced output, which a traced run must reproduce."""
        verdicts = {}
        for i, texts in enumerate(self.texts):
            for digest, text in texts.items():
                verdicts[i, digest] = checker.check(self.ops[i], text)
        failed, reasons = 0, []
        for i, digest, ok, traced in self.runs:
            why = verdicts[i, digest]
            if not ok:
                why = "nonzero exit or exception"
            elif traced and digest != untraced[i]:
                why = "traced output differs from the untraced one"
            if why:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"{self.ops[i]['label']}: {why}")
        return failed, reasons


def timed_passes(runner, seconds, min_passes, trace):
    """Warm-up, then passes until time is up. Returns the pass records and
    the digest of each op's warm-up output."""
    runner.run_pass()
    warm_digests = [d for _, d, _, _ in runner.runs]
    tracer = Tracer() if trace else None
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        passes.append(runner.run_pass())
        if tracer:
            tracer.reset()
            tracer.install()
            try:
                passes.append(runner.run_pass(traced=True))
            finally:
                tracer.uninstall()
            passes[-1]["layers"] = tracer.snapshot()
        if time.perf_counter() >= deadline and len(passes) >= min_passes:
            break
    for p in passes:
        p["wall_s"] = sum(p["latencies"])
        p["scaled_s"] = sum(x * s for x, s in zip(p["latencies"], p["scales"]))
    return passes, warm_digests


def end_to_end(passes, n_ops, setup_samples):
    latencies = [x * s for p in passes for x, s in zip(p["latencies"], p["scales"])]
    level, value = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": n_ops / statistics.median(p["scaled_s"] for p in passes),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": value * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"op_tail": {"percentile": level, "samples": len(latencies)}}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, extra


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    values = {}
    for name, unit in METRICS.items():
        if name in traced[0]["layers"]:
            values[name] = statistics.median_low(
                p["layers"][name] * (p["scaled_s"] / p["wall_s"] if unit == "s" else 1)
                for p in traced
            )
    plain = statistics.median(p["scaled_s"] for p in passes if not p["traced"])
    values["trace.overhead_frac"] = statistics.median(p["scaled_s"] for p in traced) / plain - 1
    return {k: {"value": values[k], "unit": METRICS[k]} for k in METRICS}


def load_oracle():
    spec = importlib.util.spec_from_file_location("oracle", ROOT / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def numpy_version():
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return None


def python_lane(argv):
    """Repeat this run in a child process with the compiled kernels blocked."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv, "--lane", "python"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    record, summary = done.stdout.splitlines()[-2:]
    return json.loads(record), json.loads(summary)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    missing = [p for p in ("src/termalg/__init__.py", "tests/oracle.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} has no {' or '.join(missing)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.lane:
        block_compiled_lane()

    sys.path.insert(0, str(ROOT / "src"))
    import termalg
    from termalg import cli

    if not Path(termalg.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported termalg from {termalg.__file__}", file=sys.stderr)
        return 2
    oracle = load_oracle()
    ops = workloads.build(args.workload, args.seed, workloads.Judge(oracle), smoke=args.smoke)
    files = sorted({workloads.ALGEBRA_FILES[op["algebra"]] for op in ops})
    setup_samples = measure_setup(files, args.lane)

    runner = Runner(termalg, cli, ops)
    min_passes = 2 * TRACE_PAIRS if args.trace else math.ceil(MIN_TIMED_OPS / len(ops))
    passes, warm_digests = timed_passes(runner, args.seconds, min_passes, args.trace)
    if args.trace:
        metrics, extra = per_layer(passes), {}
    else:
        metrics, extra = end_to_end(passes, len(ops), setup_samples)

    failed, reasons = runner.failures(Checker(oracle), warm_digests)
    attempted = len(runner.runs)
    by_label = {}
    for p in passes:
        if not p["traced"]:
            for op, x, s in zip(ops, p["latencies"], p["scales"]):
                by_label.setdefault(op["label"], []).append(x * s)
    record = {
        "benchmark": "termalg",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "lane": termalg.BACKEND,
        "why": workloads.WHY[args.workload],
        "deferred": [d for d in workloads.DEFERRED if d["workload"] == args.workload],
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version(),
            "machine": platform.machine(),
        },
        "inputs": ops,
        "reference_s": REF_S,
        "setup_samples_s": setup_samples,
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_scale": [p["scaled_s"] / p["wall_s"] for p in passes],
        "op_median_ms": {k: statistics.median(v) * 1e3 for k, v in by_label.items()},
        **extra,
        "fail_ratio": failed / attempted,
        "failures": reasons,
        "metrics": metrics,
    }
    if termalg.BACKEND != "python" and not args.lane:
        child, summary = python_lane(argv)
        record["lanes"] = {"python": child}
        attempted += summary["attempted"]
        failed += summary["failed"]
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
