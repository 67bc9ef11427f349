"""Tests of the benchmark harness itself (not of the database).

Run with ``PYTHONPATH=src python -m pytest benchmarks/layers -q``; not
part of the tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import estimators  # noqa: E402
import procs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------
def test_block_best_drops_a_stall_that_hits_one_repetition():
    clean = [0.010] * 50
    stalled = list(clean)
    stalled[10:16] = [0.100] * 6  # an interference burst in repetition 2
    rate, blocks = estimators.block_best_rate([clean, stalled, clean], 100)
    assert blocks == 50
    assert rate == pytest.approx(100 / 0.010)
    # A whole-run wall clock over the same data is off by a quarter.
    naive = 3 * 50 * 100 / (2 * sum(clean) + sum(stalled))
    assert naive < 0.8 * rate


def test_block_best_survives_stalls_in_two_of_three_repetitions():
    clean = [0.010] * 30
    early, late = list(clean), list(clean)
    early[0:10] = [0.030] * 10
    late[5:25] = [0.020] * 20
    rate, _ = estimators.block_best_rate([early, late, clean], 10)
    assert rate == pytest.approx(10 / 0.010)


def test_block_best_keeps_a_non_stationary_timeline():
    # Every repetition slows down in the same blocks (a migration):
    # that is signal, and stays.
    timeline = [0.010] * 10 + [0.030] * 10 + [0.010] * 10
    rate, _ = estimators.block_best_rate([timeline] * 3, 20)
    assert rate == pytest.approx(30 * 20 / sum(timeline))


def test_block_best_uses_only_blocks_every_repetition_finished():
    rate, blocks = estimators.block_best_rate(
        [[0.01] * 12, [0.01] * 9, [0.01] * 15], 10)
    assert blocks == 9
    assert rate == pytest.approx(1000.0)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert estimators.percentile(samples, 50) == 50
    assert estimators.percentile(samples, 90) == 90
    assert estimators.percentile(samples, 99) == 99
    assert estimators.percentile([7.0], 90) == 7.0


@pytest.mark.parametrize("count, pct, ok", [
    (100, 90, True), (99, 90, False), (1000, 99, True), (999, 99, False),
    (20, 50, True), (19, 50, False),
])
def test_ten_samples_beyond_the_percentile(count, pct, ok):
    assert estimators.supports_percentile(count, pct) is ok


def test_quartile_spread_matches_the_contract_definition():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert estimators.quartile_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
def _workload(cls):
    return cls(workloads.Sizing(smoke=True), "", "")


@pytest.mark.parametrize("cls", workloads.WORKLOADS)
def test_stream_is_a_function_of_the_seed(cls):
    def digest(seed):
        stream = workloads.Stream(_workload(cls).blocks(seed))
        for _ in range(30):
            next(stream)
        return stream.digests[-1]

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)


def test_every_kv_block_holds_the_exact_mix():
    stream = _workload(workloads.KvEmbedded).blocks(3)
    for _ in range(5):
        kinds = [op[0] for op in next(stream)]
        assert [kinds.count(k) for k in ("select", "update", "scan", "literal")] \
            == [70, 20, 8, 2]
    block = next(_workload(workloads.KvWire).blocks(3))
    statements = sum(len(op[1]) if op[0] == "batch" else 1 for op in block)
    assert statements == workloads.KvWire.ops_per_block


def test_literal_selects_never_repeat_their_text():
    stream = _workload(workloads.KvEmbedded).blocks(3)
    texts = [op[1] for _ in range(50) for op in next(stream) if op[0] == "literal"]
    assert len(texts) == 100 and len(set(texts)) == 100


def test_tpcc_deck_is_the_paper_mix():
    deck = workloads.TPCC_DECK
    share = {name: deck.count(name) / len(deck) for name in set(deck)}
    assert share["new_order"] + share["new_order_rollback"] == 0.45
    assert share["payment"] == 0.43
    assert share["delivery"] == share["order_status"] == share["stock_level"] == 0.04


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
def test_self_time_is_span_minus_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("layer.inner", lambda: time.sleep(0.02))

    def outer_fn():
        time.sleep(0.01)
        inner()
        inner()

    outer = tracer.wrap("client.op", outer_fn, root=True)
    outer()
    client = tracer.totals()["client"]
    calls, total, self_s, _ = client["layer.inner"]
    assert calls == 2 and total == pytest.approx(self_s)
    root_calls, root_total, root_self, _ = client["client.op"]
    assert root_calls == 1 and tracer.op_id == 1
    assert root_self + total == pytest.approx(root_total)
    assert 0.008 < root_self < 0.02
    by_name = {s[0]: s for s in tracer.spans}
    assert by_name["layer.inner"][3] == by_name["client.op"][6]  # parent id


def test_install_wraps_and_restores_public_functions():
    from repro.exec.executor import Executor
    original = Executor.__dict__["run_select"]
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert Executor.__dict__["run_select"].__wrapped__ is original
    finally:
        uninstall()
    assert Executor.__dict__["run_select"] is original


# ----------------------------------------------------------------------
# Subprocess lifecycle
# ----------------------------------------------------------------------
def test_failed_start_reports_stderr_and_leaves_no_child(tmp_path):
    with pytest.raises(procs.ServerStartError) as info:
        procs.ServerProcess(
            "repro.net", ["--no-such-flag"], os.path.join(ROOT, "src"),
            str(tmp_path), start_timeout=20.0)
    assert "no-such-flag" in str(info.value)


def test_server_process_reports_usage_and_stops(tmp_path):
    server = procs.ServerProcess(
        "repro.net", [], os.path.join(ROOT, "src"), str(tmp_path))
    try:
        assert server.port > 0
        assert server.peak_rss_mb() > 1.0
        assert server.cpu_seconds() >= 0.0
    finally:
        server.stop()
    assert server.proc.poll() is not None
    server.stop()  # idempotent


# ----------------------------------------------------------------------
# BENCHMARK.json and the emitted result
# ----------------------------------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_meets_the_contract_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/layers"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert {w["name"] for w in SPEC["workloads"]} == \
        {cls.name for cls in workloads.WORKLOADS}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    runs = 4 + 22 * len(SPEC["workloads"])
    assert 1 <= SPEC["run_seconds"] <= 60
    assert runs * (SPEC["run_seconds"] + 12) < 3420  # 12 s set-up allowance


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_emitted_json_carries_every_metric(workload, trace):
    done = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "3", "--trace",
                           str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0
    if trace:
        path = os.path.join(HERE, "out", f"trace_{workload}.json")
        with open(path) as fh:
            spans = json.load(fh)["spans"]
        assert spans and {"id", "name", "start_us", "end_us", "parent",
                          "op_id", "thread"} <= set(spans[0])
        value = {k: v["value"] for k, v in result["metrics"].items()}
        # Layers that do no work on this workload report exactly zero.
        idle = {"kv_embedded": ("core.", "net.", "cluster.", "obs.", "tpcc."),
                "kv_wire": ("core.", "cluster.", "tpcc."),
                "tpcc_split_lazy": ("net.", "cluster.", "obs."),
                "tpcc_router": ("core.",)}[workload]
        for name in value:
            if name.startswith(idle):
                assert value[name] == 0, name
