"""Run the glyphcode benchmark.

    python3 benchmarks/run.py --workload doc10k_clean --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
One workload runs in this process.  ``--workload all`` (the default) runs each
workload in a fresh interpreter, one after another.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics untraced, the per-layer metrics with
``--trace 1``).  The full result goes to ``.bench_results/``.  The exit code
is 1 when any output, guard or digest check fails and 2 when the checkout has
no library to run.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads, so the run is single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3

# end-to-end metrics of the result line: name -> unit.  Op times are gated in
# multiples of the host probe's time (see harness.HostProbe); the same times
# in ms are printed beside them.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "peak_rss_mb": "MB",
}
UNITS = {
    **END_TO_END,
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "host_probe_us": "us",
    "embed_letters_per_s": "1/s",
    "extract_letters_per_s": "1/s",
    "sign_letters_per_s": "1/s",
    "verify_letters_per_s": "1/s",
    "simulate_letters_per_s": "1/s",
    "build_s": "s",
    "fit_s": "s",
    "op_fail_frac": "frac",
}


def _import_library():
    if not (SRC / "glyphcode" / "__init__.py").is_file():
        print(f"error: no glyphcode sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import glyphcode

    if Path(glyphcode.__file__).resolve().parent != SRC / "glyphcode":
        print(f"error: glyphcode imported from {glyphcode.__file__}", file=sys.stderr)
        sys.exit(2)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    import sympy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure_setup(name: str) -> list[float]:
    """Wall time of fresh interpreters that import the library and set the
    workload up (codebook built and read back through formats)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", name],
            cwd=ROOT, check=True,
        )
        times.append(time.perf_counter() - start)
    return times


def golden_digests(workload) -> dict[str, str]:
    """Digests of what the first op at the default seed writes."""
    from harness import Recorder

    return workload.op(Recorder(traced=False), workload.inputs(DEFAULT_SEED, 0)).digests


def run_one(args) -> int:
    import harness
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    if args.setup_only:
        workload.setup()
        return 0
    env = environment(args)
    setup_times = measure_setup(workload.name)
    workload.setup()
    # the digest op also warms the interpreter before the timed loop
    got = golden_digests(workload)
    rec, stats = harness.run_ops(workload, args.seed, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    want = json.loads(DIGESTS.read_text())[workload.name]
    if got != want:
        stats.correct = False
        stats.errors.append(f"digest mismatch at seed {DEFAULT_SEED}: {got} != {want}")

    printed: dict[str, tuple[float, str]] = {}
    latency = harness.op_latency(stats.op_ms, stats.op_ref)
    if args.trace:
        metrics, seconds = harness.layer_report(rec, stats)
        for name, value in metrics.items():
            printed[name] = (value, harness.LAYER_METRICS[name][0])
        for name, value in seconds.items():
            printed[name] = (value, "us" if name.endswith("_us") else "s")
        unreached = [n for n in harness.LAYERS if f"{n}.s" not in seconds] + ["outline"]
        result_metrics = metrics
    else:
        e2e = {
            "setup_s": statistics.median(setup_times),
            **{k: v for k, v in latency.items() if k in END_TO_END},
            "peak_rss_mb": peak_rss_mb,
        }
        ms = {k: latency[k] for k in ("op_p50_ms", "op_tail_ms")}
        rates = harness.call_rates(rec, stats)
        for name, value in {**e2e, **ms, "host_probe_us": stats.probe_us, **rates}.items():
            printed[name] = (value, UNITS[name])
        printed["op_fail_frac"] = (
            harness.failure_share(stats.failed, stats.attempted), "frac"
        )
        result_metrics = e2e

    print(f"workload {workload.name}: {workload.why}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("closed loop, one client, single-threaded; no queue, so no wait time to report")
    print(
        f"ops {stats.attempted} attempted, {stats.failed} failed; "
        f"op_tail_ms and op_tail_ref are p{latency['op_tail_pct']} of {latency['ops']} untraced ops"
    )
    if args.trace:
        print(
            f"traced ops {len(stats.traced_op_ms)}, op_p50_ms "
            f"{harness.percentile(stats.traced_op_ms, 50):.6g} traced against "
            f"{latency['op_p50_ms']:.6g} untraced; layer seconds are self time per traced op"
        )
        print("not reached: " + ", ".join(unreached))
    for name, (value, unit) in printed.items():
        print(f"  {name} = {value:.6g} {unit}")
    for err in stats.errors:
        print("error: " + err, file=sys.stderr)

    result = {
        "correct": stats.correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {
            name: {"value": value, "unit": UNITS.get(name) or harness.LAYER_METRICS[name][0]}
            for name, value in result_metrics.items()
        },
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({
        **result,
        "environment": env,
        "printed": {k: {"value": v, "unit": u} for k, (v, u) in printed.items()},
        "setup_s_samples": setup_times,
        "op_ms": stats.op_ms,
        "op_ref": stats.op_ref,
        "traced_op_ms": stats.traced_op_ms,
        "errors": stats.errors,
    }, indent=1))
    if args.trace:
        spans = [[s.name, s.start, s.end, s.parent, s.op] for s in rec.spans]
        Path(f"{stem}-spans.json").write_text(json.dumps(spans))
    print(json.dumps(result))
    return 0 if stats.correct else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter, so module caches start empty."""
    import workloads

    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def record_digests() -> int:
    import workloads

    digests = {}
    for name, make in workloads.WORKLOADS.items():
        workload = make()
        workload.setup()
        digests[name] = golden_digests(workload)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    _import_library()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the current library")
    args = parser.parse_args(argv)
    if args.record_digests:
        return record_digests()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
