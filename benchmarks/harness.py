"""Timing, tracing and summary helpers for the glyphcode benchmark.

A :class:`Recorder` times every call the benchmark makes into the library.
Untraced, it only sums the seconds spent per call name.  Traced, it also keeps
one span per call (name, start, end, parent, op id) in memory; the spans are
written out when the run ends and turned into per-layer self times here.
"""

from __future__ import annotations

import math
import random
import signal
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence


class CheckFailed(Exception):
    """An output the library guarantees was wrong (round trip, digest, guard)."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root span
    op: int


@dataclass
class Recorder:
    """Times library calls; keeps spans only when ``traced`` is set."""

    traced: bool
    op: int = -1
    spans: list[Span] = field(default_factory=list)
    call_seconds: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    # per-layer counts and samples, kept only while traced
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    samples: dict[str, list] = field(default_factory=lambda: defaultdict(list))
    op_seconds: float = 0.0  # library time of the current op (root spans only)
    _stack: list[int] = field(default_factory=list)  # open spans; -1 when untraced

    def start_op(self, op: int, traced: bool) -> None:
        self.op = op
        self.traced = traced
        self.op_seconds = 0.0

    def count(self, name: str, value: float = 1) -> None:
        if self.traced:
            self.counts[name] += value

    def sample(self, name: str, value: float) -> None:
        if self.traced:
            self.samples[name].append(value)

    @contextmanager
    def span(self, name: str):
        index = -1
        if self.traced:
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(name, 0.0, 0.0, parent, self.op))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if index >= 0:
                self.spans[index].start = start
                self.spans[index].end = end
            self.call_seconds[name] += end - start
            if not self._stack:
                self.op_seconds += end - start

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = _union_length(
            (max(a, s.start), min(b, s.end)) for a, b in children.get(i, ()) if b > a
        )
        out.append((s.end - s.start) - covered)
    return out


def self_seconds_by_name(spans: Sequence[Span]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] += t
    return dict(totals)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < pct <= 100:
        raise ValueError("pct must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def tail_percentile(n: int, beyond: int = 10) -> int:
    """Highest whole percentile with at least ``beyond`` of ``n`` values above
    it, never below the median (too few values leave only the median)."""
    if n < 1:
        raise ValueError("no values")
    return max(50, math.floor(100 * (n - beyond) / n))


def failure_share(failed: int, attempted: int) -> float:
    """Ops with a wrong output or a raised error, over ops attempted."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must be within [0, attempted]")
    return failed / attempted


# ---------------------------------------------------------------- host speed


class HostProbe:
    """Samples how fast the host runs this process while a workload runs.

    The benchmark runs on a few cores of a shared host.  Other tenants slow
    every process on it, by up to about 1.6x for tens of seconds to minutes
    at a time, with no steal time to show for it, so op times of the same code
    swing by more than any useful bound between runs minutes apart.

    Every ``period_s`` of wall time a SIGALRM handler times a fixed probe.  An
    op's time divided by the mean of the samples taken while it ran moves far
    less with the host than the op time does.  The probe is work of the kinds the
    library does: random reads over a list of Python ints small enough to
    stay in a core's L2 cache, and rational arithmetic with ``fractions``.
    It reads its list once before timing, so its time does not depend on what
    the workload left in the caches, and it calls no library code, so a
    change to the library moves only the op times.  A sample takes about
    0.4 ms, about 1% of the run.
    """

    def __init__(self, period_s: float = 0.05):
        rng = random.Random(0)
        self.period_s = period_s
        self.data = [rng.randrange(1 << 30, 1 << 31) for _ in range(8_000)]  # ~300 KB
        self.index = [rng.randrange(len(self.data)) for _ in range(3_000)]
        self.samples: list[float] = []
        self._previous = None

    def _reads(self) -> int:
        total = 0
        for i in self.index:
            total += self.data[i]
        return total

    def probe_seconds(self) -> float:
        self._reads()
        start = time.perf_counter()
        self._reads()
        f = Fraction(1, 3)
        for i in range(1, 40):
            f += Fraction(i, i + 7)
        return time.perf_counter() - start

    def _sample(self, *_):
        self.samples.append(self.probe_seconds())

    def __enter__(self) -> "HostProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean_us(self) -> float:
        return sum(self.samples) / len(self.samples) * 1e6


# ---------------------------------------------------------------- running


@dataclass
class RunStats:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    errors: list[str] = field(default_factory=list)
    op_ms: list[float] = field(default_factory=list)  # untraced ops
    traced_op_ms: list[float] = field(default_factory=list)
    # untraced op times over the mean HostProbe sample taken during each op
    op_ref: list[float] = field(default_factory=list)
    probe_us: float = 0.0  # mean HostProbe sample over the run
    work: dict[str, int] = field(default_factory=lambda: defaultdict(int))


def run_ops(workload, seed: int, seconds: float, traced: bool) -> tuple[Recorder, RunStats]:
    """Closed loop with one client until ``seconds`` have passed.

    A traced run alternates untraced and traced ops on the same input stream,
    so the tracing overhead is measured inside the run; it makes at least one
    op of each kind, an untraced run at least one op.
    """
    rec = Recorder(traced=False)
    stats = RunStats()
    deadline = time.perf_counter() + seconds
    minimum = 2 if traced else 1
    index = 0
    with HostProbe() as probe:
        while index < minimum or time.perf_counter() < deadline:
            inputs = workload.inputs(seed, index)
            op_traced = traced and index % 2 == 1
            rec.start_op(index, op_traced)
            first_sample = len(probe.samples)
            ok = False
            try:
                out = workload.op(rec, inputs)
                ok = out.ok
                for name, n in out.work.items():
                    stats.work[name] += n
            except CheckFailed as exc:
                stats.correct = False
                stats.errors.append(f"op {index}: {exc}")
            except Exception:  # a crash is a failed op; the run goes on and reports it
                stats.correct = False
                stats.errors.append(f"op {index}: {traceback.format_exc()}")
            if not ok and not workload.may_fail:
                stats.correct = False
            stats.attempted += 1
            stats.failed += not ok
            if op_traced:
                stats.traced_op_ms.append(rec.op_seconds * 1e3)
            else:
                stats.op_ms.append(rec.op_seconds * 1e3)
                # an op shorter than the probe period may take no sample of its own
                during = probe.samples[first_sample:] or probe.samples[-1:]
                stats.op_ref.append(rec.op_seconds * len(during) / sum(during))
            index += 1
    stats.probe_us = probe.mean_us()
    return rec, stats


def op_latency(op_ms: Sequence[float], op_ref: Sequence[float]) -> dict:
    """Median and tail op time, in ms and in multiples of the host probe's
    time during each op (``_ref``, which moves far less with the host)."""
    pct = tail_percentile(len(op_ms))
    return {
        "op_p50_ms": percentile(op_ms, 50),
        "op_tail_ms": percentile(op_ms, pct),
        "op_p50_ref": percentile(op_ref, 50),
        "op_tail_ref": percentile(op_ref, pct),
        "op_tail_pct": pct,
        "ops": len(op_ms),
    }


def call_rates(rec: Recorder, stats: RunStats) -> dict[str, float]:
    """End-to-end rates of the public calls the workload makes."""
    names = {
        "pipeline.embed": "embed_letters_per_s",
        "pipeline.extract": "extract_letters_per_s",
        "crypto.sign_scheme1": "sign_letters_per_s",
        "crypto.verify": "verify_letters_per_s",
        "channel.inject_errors": "simulate_letters_per_s",
    }
    out = {}
    for call, metric in names.items():
        if stats.work.get(call):
            out[metric] = stats.work[call] / rec.call_seconds[call]
    for call, metric in (("codebook.build_codebook", "build_s"), ("perceptual.fit", "fit_s")):
        if stats.work.get(call):
            out[metric] = rec.call_seconds[call] / stats.work[call]
    return out


# Layers timed in the traced run: one span name each.  Reported as mean self
# seconds per traced op (printed) and as a share of traced op time.
LAYERS = (
    "pipeline.letter_sequence",
    "pipeline.partition_blocks",
    "pipeline.frame",
    "crc.encode_phi",
    "crypto.key_map",
    "crc.ml_decode",
    "crypto.segment_text",
    "crypto.sign_scheme1",
    "crypto.verify",
    "formats.write_document",
    "formats.read_document",
    "formats.write_trace",
    "formats.read_trace",
    "formats.write_codebook",
    "formats.read_codebook",
    "channel.inject_errors",
    "channel.oracle",
    "codebook.build_codebook",
    "perceptual.synth_responses",
    "perceptual.fit",
    "perceptual.select_candidates",
)

# name -> (unit, better); the per-layer metrics of the result line
LAYER_METRICS = {
    **{f"{name}.share": ("frac", "lower") for name in LAYERS},
    "pipeline.partition_blocks.blocks": ("count", "higher"),
    "pipeline.partition_blocks.new_tuple_frac": ("frac", "lower"),
    "crc.ml_decode.exact": ("count", "higher"),
    "crc.ml_decode.corrected": ("count", "lower"),
    "crc.ml_decode.corrected_ml": ("count", "lower"),
    "crc.ml_decode.failed": ("count", "lower"),
    "channel.inject_errors.calls": ("count", "lower"),
    "channel.oracle.calls": ("count", "lower"),
    "codebook.kept_frac": ("frac", "higher"),
    "perceptual.fit.iterations": ("count", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


def layer_report(rec: Recorder, stats: RunStats) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and the seconds behind them.

    Returns (metrics for the result line, printed self seconds per traced op
    of the layers the run reached).  Counts are per traced op.
    """
    ops = len(stats.traced_op_ms)
    traced_s = sum(stats.traced_op_ms) / 1e3
    own = self_seconds_by_name(rec.spans)
    c = rec.counts
    metrics = {f"{name}.share": own.get(name, 0.0) / traced_s for name in LAYERS}
    blocks = c["pipeline.partition_blocks.blocks"]
    metrics.update({
        "pipeline.partition_blocks.blocks": blocks / ops,
        "pipeline.partition_blocks.new_tuple_frac":
            c["pipeline.partition_blocks.new_tuples"] / blocks if blocks else 0.0,
        "crc.ml_decode.exact": c["crc.ml_decode.exact"] / ops,
        "crc.ml_decode.corrected": c["crc.ml_decode.corrected"] / ops,
        "crc.ml_decode.corrected_ml": c["crc.ml_decode.corrected_ml"] / ops,
        "crc.ml_decode.failed": c["crc.ml_decode.ambiguous_fail"] / ops,
        "channel.inject_errors.calls": c["channel.inject_errors.calls"] / ops,
        "channel.oracle.calls": c["channel.oracle.calls"] / ops,
        "codebook.kept_frac":
            c["codebook.kept"] / c["codebook.candidates"] if c["codebook.candidates"] else 0.0,
        "perceptual.fit.iterations": c["perceptual.fit.iterations"] / ops,
        "trace.overhead_frac":
            percentile(stats.traced_op_ms, 50) / percentile(stats.op_ms, 50) - 1.0,
    })
    seconds = {f"{name}.s": own[name] / ops for name in LAYERS if name in own}
    glue = [own[n] for n in ("pipeline.embed", "pipeline.extract") if n in own]
    if glue:
        seconds["pipeline.embed+extract.glue.s"] = sum(glue) / ops
    corrected = rec.samples.get("crc.ml_decode.corrected_us")
    if corrected:
        seconds["crc.ml_decode.corrected_p50_us"] = percentile(corrected, 50)
    return metrics, seconds
