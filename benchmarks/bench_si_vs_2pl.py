"""Reader latency on in-flight migration granules: snapshot vs 2PL.

The figure-4 stall path from the reader's side.  A migration worker
walks the key space one granule at a time, holding each claim open for
``HOLD_MS`` to model per-granule migration cost (large granules, FK
group joins, I/O) before releasing it and migrating the granule for
real.  Readers probe the row whose granule is currently mid-migration:

* **read-committed (2PL)** readers go down the classic lazy path:
  the point read must claim-or-wait the granule, so it stalls in the
  skip-wait loop behind the in-flight claim for up to the hold time.
* **snapshot** readers pin a commit timestamp and serve the
  not-yet-visibly-migrated granule from the *pre-migration* source
  versions (the interceptor overlay) — they never touch the claim
  machinery and never block.

Both modes run the identical schedule on identical fresh databases;
the JSON written to ``results/si_bench.json`` records the latency
distribution per mode plus the headline ``p99_speedup``.

Run standalone (``PYTHONPATH=src python benchmarks/bench_si_vs_2pl.py``)
or under pytest — same code path; pytest additionally asserts that the
snapshot p99 beats the 2PL p99.  ``BULLFROG_SI_BENCH_SMOKE=1`` shrinks
the knobs for CI.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time

from repro import Database
from repro.core import BackgroundConfig, LazyMigrationEngine
from repro.core.bitmap import Claim

SMOKE = os.environ.get("BULLFROG_SI_BENCH_SMOKE", "") not in ("", "0")

ROWS = 48 if SMOKE else 96
HOLD_MS = 40.0 if SMOKE else 60.0
# The window must end before the worker runs out of unmigrated
# granules to hold (one hold period per granule).
WINDOW_S = 1.5 if SMOKE else 4.5
READERS = 2

SPLIT_DDL = """
CREATE TABLE left_part (id INT PRIMARY KEY, v INT);
INSERT INTO left_part (id, v) SELECT id, v FROM src;
CREATE TABLE right_part (id INT PRIMARY KEY, tag VARCHAR(10));
INSERT INTO right_part (id, tag) SELECT id, tag FROM src;
"""


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


def _summary(samples_ms: list[float]) -> dict:
    return {
        "ops": len(samples_ms),
        "mean_ms": statistics.fmean(samples_ms) if samples_ms else 0.0,
        "p50_ms": _percentile(samples_ms, 0.50),
        "p95_ms": _percentile(samples_ms, 0.95),
        "p99_ms": _percentile(samples_ms, 0.99),
        "max_ms": max(samples_ms) if samples_ms else 0.0,
    }


def _make_db(rows: int) -> Database:
    db = Database()
    s = db.connect(isolation="read_committed")
    s.execute(
        "CREATE TABLE src (id INT PRIMARY KEY, grp INT, v INT, tag VARCHAR(10))"
    )
    for i in range(rows):
        s.execute(
            "INSERT INTO src VALUES (?, ?, ?, ?)",
            [i, i % 5, i * 10, f"t{i % 3}"],
        )
    return db


def bench_mode(isolation: str) -> dict:
    """One head-to-head leg: a migration worker holds a fresh granule's
    claim open each period while readers at ``isolation`` probe a row
    in that granule."""
    db = _make_db(ROWS)
    engine = LazyMigrationEngine(
        db,
        background=BackgroundConfig(enabled=False),
        skip_wait_timeout=30.0,
    )
    engine.submit("split", SPLIT_DDL)
    runtime = engine.units[0]

    stop = threading.Event()
    granules_held = [0]
    # A row id inside the granule currently claimed by the worker.
    current_id = [0]

    def worker() -> None:
        s = db.connect(isolation="read_committed")
        for g in range(runtime.tracker.size):
            if stop.is_set():
                break
            if runtime.tracker.try_begin(g) is not Claim.MIGRATE:
                continue  # a racing reader already migrated it
            rows = list(runtime.anchor_table.heap.scan_range(*runtime.mapper.bounds(g)))
            if not rows:
                runtime.tracker.reset([g])
                continue
            current_id[0] = rows[0][1][0]  # (tid, row) -> row.id
            granules_held[0] += 1
            # Model the per-granule migration cost: the claim stays
            # in-flight for the hold window.
            time.sleep(HOLD_MS / 1000.0)
            runtime.tracker.reset([g])
            # Now migrate it for real down the ordinary lazy path.
            s.execute(
                "SELECT v FROM left_part WHERE id = ?", [current_id[0]]
            )
        stop.set()

    latencies_ms: list[float] = []
    errors = [0]
    latch = threading.Lock()

    def reader() -> None:
        s = db.connect(isolation=isolation)
        local: list[float] = []
        while not stop.is_set():
            hot = current_id[0]
            t0 = time.perf_counter()
            try:
                s.execute("SELECT v FROM left_part WHERE id = ?", [hot])
            except Exception:
                with latch:
                    errors[0] += 1
                continue
            local.append((time.perf_counter() - t0) * 1000.0)
        with latch:
            latencies_ms.extend(local)

    wt = threading.Thread(target=worker)
    rts = [threading.Thread(target=reader) for _ in range(READERS)]
    wt.start()
    # Give the worker a head start so the first reads already contend.
    time.sleep(HOLD_MS / 2000.0)
    for t in rts:
        t.start()
    time.sleep(WINDOW_S)
    stop.set()
    wt.join(timeout=60)
    for t in rts:
        t.join(timeout=60)

    out = _summary(latencies_ms)
    out.update(
        {
            "isolation": isolation,
            "errors": errors[0],
            "granules_held": granules_held[0],
            "tuples_migrated": engine.stats.tuples_migrated,
            "migration_complete": engine.is_complete,
        }
    )
    return out


def run_all(out_path: str = "results/si_bench.json") -> dict:
    rc = bench_mode("read_committed")
    si = bench_mode("snapshot")
    results = {
        "smoke": SMOKE,
        "scenario": "split",
        "rows": ROWS,
        "hold_ms": HOLD_MS,
        "window_s": WINDOW_S,
        "readers": READERS,
        "read_committed": rc,
        "snapshot": si,
        "p99_speedup": (rc["p99_ms"] / si["p99_ms"]) if si["p99_ms"] else None,
    }
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(results, fh, indent=2)
    for mode in (rc, si):
        print(
            f"{mode['isolation']:>14}: {mode['ops']:>5} reads, "
            f"p50 {mode['p50_ms']:7.2f}ms  p95 {mode['p95_ms']:7.2f}ms  "
            f"p99 {mode['p99_ms']:7.2f}ms  max {mode['max_ms']:7.2f}ms  "
            f"errors={mode['errors']}"
        )
    print(f"p99 speedup (2pl/si): {results['p99_speedup']:.1f}x")
    print(f"wrote {out_path}")
    return results


def test_si_readers_beat_2pl_during_migration():
    results = run_all()
    rc, si = results["read_committed"], results["snapshot"]
    assert rc["ops"] > 0 and si["ops"] > 0
    assert rc["errors"] == 0 and si["errors"] == 0
    # The headline: snapshot readers never wait on in-flight claims,
    # so their p99 sits well below the 2PL readers' hold-time stalls.
    assert si["p99_ms"] < rc["p99_ms"]
    # And the SI leg must not have migrated anything from the read path.
    assert si["p50_ms"] < HOLD_MS


if __name__ == "__main__":
    run_all()
