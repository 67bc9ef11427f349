"""Overhead of the observability layer on the no-op migration hot loop.

The zero-cost-when-detached contract (``repro.obs``): every emission
site is guarded by a plain ``<owner>.obs is not None`` attribute check
— the same contract ``repro.core.faults`` established and
``bench_fault_overhead.py`` holds to numbers.  This benchmark prices
two configurations against the production default (``obs=None``):

* **attached but disabled** — ``Observability(metrics=False,
  tracing=False)``: the guards all pass and early-out on the
  ``active`` flag; this bounds the cost of the seams themselves and
  must stay under **2%**;
* **metrics enabled** (tracing off) — exact counters on every
  statement, commit, and claim round, plus the latency histogram at
  its default 1-in-16 statement sampling; must stay under **5%**;
* **tracing enabled** — the full request-tracing surface: head-sampled
  root statement spans (a coarser 1-in-64 period; a propagated trace
  context always traces), wait-event staging, and the trace ring;
  must also stay under **5%**;
* **history sampler** — the background metrics-history thread
  (``obs.attach_history()``) scraping the registry at its default
  250 ms cadence while the hot loop runs.  The sampler never touches
  the statement path — its cost is pure thread interference plus
  whatever per-metric locks the scrape takes — so it rides the same
  bounds: **<2%** over an attached-but-disabled bundle, **<5%** with
  metrics enabled.

The measured regime is the *no-op migration hot loop*: a lazy SPLIT is
submitted and drained down to one remaining granule (untimed), then we
time point SELECTs against already-migrated granules.  Each statement
still enters the Algorithm-1 claim loop — the interceptor scopes it,
``try_begin`` answers DONE, the loop breaks — which is the steady-state
path a live system pays on every query while a migration is in flight.
Timing the *initial* drain instead would amplify the instrumentation
~10x (a full migration transaction per statement) and measure the cost
of migrating, not the cost of observing.

Methodology — two noise sources, two countermeasures:

* **Heap-layout variance.**  Two separately-built ``Database``
  instances differ by ±10% on identical work (allocator layout, dict
  order), which swamps a ~2 µs/statement effect.  So both sides of
  every comparison run against the *same* database, engine, and
  session; only the ``obs`` attachment is swapped between timed passes
  (the attach points are plain attributes, re-read on every seam).
* **Scheduler noise and process-lifetime drift.**  Long timed passes
  drift several percent over a run on a loaded host, so the timing is
  interleaved at fine grain: short blocks of ~100 statements alternate
  attach state.  Three estimators are computed over the block series —
  the median per-pair ratio (cancels drift: both blocks of a pair move
  together), the total-time ratio (averages noise), and the ratio of
  per-side minimum blocks (noise is additive and one-sided, so the
  minimum estimates intrinsic cost) — and any one staying under the
  bound passes.  A genuine regression is intrinsic to every
  instrumented block and shows up in all three; an uncorrelated load
  spike does not.

The run that enforces the bounds also records them: every leg lands in
``results/obs_overhead.json`` as it finishes, pass or fail
(``python -m pytest benchmarks/bench_obs_overhead.py -q -s``; running
this file directly does the same).
"""

import gc
import itertools
import json
import os
import statistics
import time

from repro import BackgroundConfig, Database, LazyMigrationEngine
from repro.obs import Observability

ROWS = 600
BLOCK = 100  # statements per timed block
PAIRS = 60  # adjacent baseline/instrumented block pairs

SPLIT_DDL = """
CREATE TABLE left_part (id INT PRIMARY KEY, v INT);
INSERT INTO left_part (id, v) SELECT id, v FROM src;
CREATE TABLE right_part (id INT PRIMARY KEY, tag VARCHAR(10));
INSERT INTO right_part (id, tag) SELECT id, tag FROM src;
"""


def _setup():
    """Database + engine with a migration drained to one remaining
    granule, so the claim loop stays live for every later statement."""
    db = Database()
    s = db.connect()
    s.execute(
        "CREATE TABLE src (id INT PRIMARY KEY, grp INT, v INT, tag VARCHAR(10))"
    )
    for i in range(ROWS):
        s.execute(
            "INSERT INTO src VALUES (?, ?, ?, ?)", [i, i % 5, i * 10, f"t{i % 3}"]
        )
    engine = LazyMigrationEngine(
        db,
        background=BackgroundConfig(enabled=False),
    )
    session = db.connect()
    engine.submit("m", SPLIT_DDL)
    for i in range(ROWS - 1):
        session.execute("SELECT v FROM left_part WHERE id = ?", [i])
    assert engine.stats.tuples_migrated == ROWS - 1
    assert not engine.is_complete
    return db, engine, session


def _attach(db, engine, obs):
    """Swap the observability attachment on live objects.  Every seam
    re-reads its owner's ``obs`` attribute, so this flips the entire
    instrumentation surface without rebuilding any state."""
    db.obs = obs
    db.txns.obs = obs
    db.txns.wal.obs = obs
    db.txns.locks.obs = obs
    db.executor.obs = obs
    engine.obs = obs


def _time_block(session, execute, ids):
    started = time.perf_counter()
    for _ in range(BLOCK):
        execute("SELECT v FROM left_part WHERE id = ?", [next(ids)])
    return time.perf_counter() - started


def measure(make_obs):
    """Returns (total baseline seconds, total instrumented seconds,
    median per-block-pair overhead ratio) for ``obs=None`` vs
    ``make_obs()`` over fine-grained interleaved blocks on one shared
    database."""
    db, engine, session = _setup()
    obs = make_obs()
    execute = session.execute
    ids = itertools.cycle(range(ROWS - 1))
    for state in (None, obs, None, obs):  # warm both states, discarded
        _attach(db, engine, state)
        _time_block(session, execute, ids)
    gc.collect()
    gc.disable()  # no collection pauses inside timed blocks
    try:
        base_blocks: list[float] = []
        inst_blocks: list[float] = []
        for pair in range(PAIRS):
            # Alternate within-pair order so drift across a pair
            # cancels over the run instead of biasing one side.
            if pair % 2 == 0:
                _attach(db, engine, None)
                base_blocks.append(_time_block(session, execute, ids))
                _attach(db, engine, obs)
                inst_blocks.append(_time_block(session, execute, ids))
            else:
                _attach(db, engine, obs)
                inst_blocks.append(_time_block(session, execute, ids))
                _attach(db, engine, None)
                base_blocks.append(_time_block(session, execute, ids))
    finally:
        gc.enable()
        obs.close()  # stop any history sampler thread between legs
    assert not engine.is_complete  # every timed statement took the loop
    return base_blocks, inst_blocks


def _estimates(base_blocks, inst_blocks):
    """Three overhead estimators over the interleaved blocks.  Noise on
    this host is additive and one-sided (preemption only ever adds
    time), so each estimator discards it differently: the per-pair
    median cancels drift, the totals average it, and the ratio of
    per-side minima (every block runs identical work) estimates the
    intrinsic cost directly — a genuine regression is intrinsic and
    shows up in *all three*."""
    ratios = [i / b - 1.0 for b, i in zip(base_blocks, inst_blocks)]
    paired = statistics.median(ratios)
    total = sum(inst_blocks) / sum(base_blocks) - 1.0
    floor = min(inst_blocks) / min(base_blocks) - 1.0
    return paired, total, floor


_ARTIFACT = {"benchmark": "obs_overhead", "unit": "ratio", "legs": {}}


def _record(leg, entry):
    """Add one leg to this run's ``results/obs_overhead.json``."""
    _ARTIFACT["legs"][leg] = entry
    os.makedirs("results", exist_ok=True)
    with open(os.path.join("results", "obs_overhead.json"), "w") as sink:
        json.dump(_ARTIFACT, sink, indent=2)


def _check_overhead(make_obs, bound, leg):
    base_blocks, inst_blocks = measure(make_obs)
    paired, total, floor = _estimates(base_blocks, inst_blocks)
    if min(paired, total, floor) >= bound:
        # One re-measure: a genuine cost reproduces across both
        # attempts; an uncorrelated load spike on a shared box does not.
        base_blocks, inst_blocks = measure(make_obs)
        paired, total, floor = _estimates(base_blocks, inst_blocks)
    _record(leg, {
        "baseline_ms": sum(base_blocks) * 1e3,
        "instrumented_ms": sum(inst_blocks) * 1e3,
        "paired_median": paired,
        "total_ratio": total,
        "min_vs_min": floor,
    })
    print(
        f"\n{leg} overhead: baseline={sum(base_blocks) * 1e3:.1f}ms "
        f"instrumented={sum(inst_blocks) * 1e3:.1f}ms "
        f"paired-median delta={paired * 100:+.2f}% "
        f"total delta={total * 100:+.2f}% "
        f"min-vs-min delta={floor * 100:+.2f}%"
    )
    assert min(paired, total, floor) < bound, (
        f"{leg} cost {paired * 100:.2f}% (paired) / "
        f"{total * 100:.2f}% (total) / {floor * 100:.2f}% (min-vs-min), "
        f"bound {bound * 100:.0f}%"
    )


def test_disabled_instrumentation_is_cheap():
    """Attached-but-disabled observability: every guard passes, every
    emission early-outs.  Contract: <2% end-to-end."""
    _check_overhead(
        lambda: Observability(metrics=False, tracing=False),
        0.02,
        "disabled",
    )


def test_enabled_metrics_are_cheap():
    """Live counters + histograms on every seam (tracing off).
    Contract: <5% end-to-end."""
    _check_overhead(
        lambda: Observability(metrics=True, tracing=False),
        0.05,
        "metrics",
    )


def test_enabled_tracing_is_cheap():
    """Metrics + tracing, the full default configuration.  Untraced
    statements pay one signed clock read over the metrics path; the
    1-in-64 head-sampled roots pay the full span/context machinery,
    amortized.  Contract: <5% end-to-end."""
    _check_overhead(
        lambda: Observability(),
        0.05,
        "metrics+tracing",
    )


def _with_sampler(**obs_kwargs):
    """An observability bundle with the history sampler running — what
    a monitored deployment (bullfrogd with ``config.monitor``) attaches.
    The sampler thread scrapes concurrently with the timed blocks;
    ``measure()`` stops it via ``obs.close()``."""
    obs = Observability(**obs_kwargs)
    obs.attach_history()
    return obs


def test_history_sampler_on_disabled_bundle_is_cheap():
    """Sampler thread over an attached-but-disabled bundle: the
    statement path still only pays the guards; the scrape walks an
    (empty-valued) registry off to the side.  Contract: <2%."""
    _check_overhead(
        lambda: _with_sampler(metrics=False, tracing=False),
        0.02,
        "sampler-disabled",
    )


def test_history_sampler_with_metrics_is_cheap():
    """The monitored-production configuration: live counters and
    histograms on every seam plus the 250 ms history scrape taking
    per-metric locks against the hot loop.  Contract: <5%."""
    _check_overhead(
        lambda: _with_sampler(metrics=True, tracing=False),
        0.05,
        "sampler-metrics",
    )


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE: instrumentation is opt-in per statement
# ----------------------------------------------------------------------
def _measure_analyze():
    """Interleaved blocks of plain SELECT vs EXPLAIN ANALYZE SELECT on
    the same database/session (obs detached throughout).  This prices
    what ANALYZE *adds* — plan cloning, per-``next()`` clock reads, the
    interceptor timing — against the statement it wraps."""
    db, engine, session = _setup()
    _attach(db, engine, None)
    execute = session.execute
    ids = itertools.cycle(range(ROWS - 1))

    def plain_block():
        started = time.perf_counter()
        for _ in range(BLOCK):
            execute("SELECT v FROM left_part WHERE id = ?", [next(ids)])
        return time.perf_counter() - started

    def analyze_block():
        started = time.perf_counter()
        for _ in range(BLOCK):
            execute("EXPLAIN ANALYZE SELECT v FROM left_part WHERE id = ?", [next(ids)])
        return time.perf_counter() - started

    for _ in range(2):  # warm both paths, discarded
        plain_block()
        analyze_block()
    gc.collect()
    gc.disable()
    try:
        plain_blocks: list[float] = []
        analyze_blocks: list[float] = []
        for pair in range(PAIRS // 2):
            if pair % 2 == 0:
                plain_blocks.append(plain_block())
                analyze_blocks.append(analyze_block())
            else:
                analyze_blocks.append(analyze_block())
                plain_blocks.append(plain_block())
    finally:
        gc.enable()
    return plain_blocks, analyze_blocks


def test_analyze_cost_is_per_statement_opt_in():
    """EXPLAIN ANALYZE may cost whatever it costs on the statement it
    wraps — the contract is only that the price is *opt-in*.  The loose
    backstop here (instrumented run < 10x plain) catches pathological
    regressions (e.g. accidental plan re-instrumentation per row, or
    clock reads escaping into the uninstrumented path) without turning
    a deliberate per-row timing feature into a flaky perf assertion."""
    plain_blocks, analyze_blocks = _measure_analyze()
    ratio = sum(analyze_blocks) / sum(plain_blocks)
    _record("explain-analyze", {
        "baseline_ms": sum(plain_blocks) * 1e3,
        "instrumented_ms": sum(analyze_blocks) * 1e3,
        "total_ratio": ratio - 1.0,
    })
    print(
        f"\nEXPLAIN ANALYZE cost: plain={sum(plain_blocks) * 1e3:.1f}ms "
        f"analyze={sum(analyze_blocks) * 1e3:.1f}ms ratio={ratio:.2f}x"
    )
    assert ratio < 10.0, f"EXPLAIN ANALYZE ratio {ratio:.2f}x exceeds 10x backstop"


if __name__ == "__main__":
    import pytest

    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
