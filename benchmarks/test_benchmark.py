"""Tests of the benchmark itself: helpers, a tiny run of every workload, the
differential guard, the recorded digests and the result contract.

    python -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import workloads  # noqa: E402
from harness import CheckFailed, Recorder, Span  # noqa: E402

TINY = {
    "doc10k_clean": lambda: workloads.DocClean(letters=400),
    "wide1k_1err": lambda: workloads.WideOneError(letters=100),
    "channel_2err": lambda: workloads.ChannelTwoErrors(repeats=9),
    "font_prep": lambda: workloads.FontPrep(candidates=6, raters=60),
}


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 90) == 90
    assert harness.percentile(values, 100) == 100
    assert harness.percentile([7.0], 50) == 7.0
    assert harness.percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        harness.percentile([], 50)


@pytest.mark.parametrize("n", [1, 5, 20, 21, 25, 33, 100, 250, 1000, 5000])
def test_tail_percentile_leaves_ten_beyond(n):
    pct = harness.tail_percentile(n)
    values = list(range(n))

    def beyond(p):
        return sum(v > harness.percentile(values, p) for v in values)

    if n >= 20:
        assert beyond(pct) >= 10 and beyond(pct + 1) < 10
    else:
        assert pct == 50
    assert harness.tail_percentile(100) == 90
    assert harness.tail_percentile(1000) == 99


def test_self_time_subtracts_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 4.0, 0, 0),  # overlaps a: covered part counts once
        Span("leaf", 1.5, 2.5, 1, 0),
        Span("other", 20.0, 21.0, -1, 1),
    ]
    assert harness.self_times(spans) == pytest.approx([7.0, 1.0, 2.0, 1.0, 1.0])
    by_name = harness.self_seconds_by_name(spans + [Span("other", 30.0, 30.5, -1, 2)])
    assert by_name["other"] == pytest.approx(1.5)


def test_recorder_nests_spans_and_sums_root_time():
    rec = Recorder(traced=False)
    rec.start_op(0, traced=True)
    with rec.span("outer"):
        rec.call("inner", sum, [1, 2])
    rec.call("second", len, "ab")
    names = [(s.name, s.parent) for s in rec.spans]
    assert names == [("outer", -1), ("inner", 0), ("second", -1)]
    outer, _, second = rec.spans
    assert rec.op_seconds == pytest.approx((outer.end - outer.start) + (second.end - second.start))
    rec.start_op(1, traced=False)
    rec.call("untraced", len, "x")
    rec.count("ignored")
    assert len(rec.spans) == 3 and "ignored" not in rec.counts
    assert set(rec.call_seconds) == {"outer", "inner", "second", "untraced"}


def test_failure_share():
    assert harness.failure_share(0, 10) == 0.0
    assert harness.failure_share(3, 12) == 0.25
    with pytest.raises(ValueError):
        harness.failure_share(0, 0)
    with pytest.raises(ValueError):
        harness.failure_share(5, 4)


def test_host_probe_samples_and_restores_the_signal_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with harness.HostProbe(period_s=0.01) as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) > 5 and probe.mean_us() > 0


def test_op_latency_in_ms_and_probe_units():
    latency = harness.op_latency([4.0, 2.0, 3.0], [8.0, 5.0, 6.0])
    assert latency["op_p50_ms"] == 3.0 and latency["op_tail_ms"] == 3.0
    assert latency["op_p50_ref"] == 6.0 and latency["op_tail_ref"] == 6.0
    assert latency["op_tail_pct"] == 50 and latency["ops"] == 3


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_of_each_workload(name):
    workload = TINY[name]()
    workload.setup()
    rec, stats = harness.run_ops(workload, seed=3, seconds=0, traced=True)
    assert stats.errors == [] and stats.correct
    assert stats.attempted == 2 and len(stats.traced_op_ms) == 1
    assert stats.probe_us > 0 and len(stats.op_ref) == 1 and stats.op_ref[0] > 0
    metrics, seconds = harness.layer_report(rec, stats)
    assert set(metrics) == set(harness.LAYER_METRICS)
    assert all(v >= 0 for k, v in metrics.items() if k != "trace.overhead_frac")
    assert {s.op for s in rec.spans} == {1}
    rates = harness.call_rates(rec, stats)
    assert rates and all(v > 0 for v in rates.values())


def test_inputs_depend_only_on_seed():
    a, b = TINY["doc10k_clean"](), TINY["doc10k_clean"]()
    a.setup()
    b.setup()
    assert a.inputs(5, 2)[0] == b.inputs(5, 2)[0]
    assert a.inputs(5, 2)[0] != a.inputs(6, 2)[0]


def test_guard_rejects_a_rebuilt_embed_that_differs(monkeypatch):
    workload = TINY["wide1k_1err"]()
    workload.setup()
    real = workloads.pipeline.embed

    def shifted(*args, **kwargs):
        doc = real(*args, **kwargs)
        indices = (doc.glyph_indices[0] ^ 1,) + doc.glyph_indices[1:]
        return workloads.pipeline.EncodedDocument(doc.text, indices, doc.codebook_id)

    monkeypatch.setattr(workloads.pipeline, "embed", shifted)
    rec = Recorder(traced=False)
    rec.start_op(0, traced=True)
    text, bits, _ = workload.inputs(1, 0)
    with pytest.raises(CheckFailed):
        workloads.embed(rec, text, workload.cb, bits)


def test_digests_match_recorded():
    import run

    recorded = json.loads((HERE / "digests.json").read_text())
    for name, make in workloads.WORKLOADS.items():
        workload = make()
        workload.setup()
        assert run.golden_digests(workload) == recorded[name], name


def test_benchmark_json_matches_the_result_line():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == (
        harness.LAYER_METRICS
    )


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "channel_2err",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
