"""bench_layers: the repo's benchmark.  See README.md beside this file.

    python benchmarks/layers/run.py                      # all workloads, a table
    python benchmarks/layers/run.py --trace 1            # + per-layer metrics
    python benchmarks/layers/run.py --workload kv_wire --seed 7 --seconds 21 --trace 0
    python benchmarks/layers/run.py --smoke              # seconds, not comparable
    python benchmarks/layers/run.py --check-repeat       # noise evidence

With ``--workload`` the last line of standard output is the one JSON
object ``BENCHMARK.json`` describes; without it every workload runs and
the last line is a summary object ending in ``"claim": null`` — this
harness measures, it claims nothing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path[:0] = [HERE, SRC]

import estimators  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402  (imports repro: fails without src/)

REPS = 3
SMOKE_SECONDS = 1.5
CHECK_REPEAT_RUNS = 10

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


class RepResult:
    """What one repetition measured."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.block_times: list[float] = []
        self.latencies: dict[str, array] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.client_cpu_s = 0.0
        self.server_cpu_s = 0.0
        self.server_rss_mb = 0.0
        self.wire_bytes = 0
        self.digests: list[str] = []
        self.facts: dict[str, float] = {}
        self.traced: dict | None = None  # Tracer.totals() of a traced repetition

    def ops_per_s(self, ops_per_block: int) -> float:
        return estimators.block_best_rate([self.block_times], ops_per_block)[0]


def run_rep(
    workload: workloads.Workload,
    topology: str,
    seed: int,
    rep_seconds: float,
    tracer: tracing.Tracer | None = None,
) -> RepResult:
    """One repetition on a fresh database/server: set up, warm up,
    measure for ``rep_seconds``, check the outputs, tear down."""
    out = RepResult()
    clock = time.perf_counter
    gc.collect()  # the previous repetition's database: keeps peak RSS repeatable
    started = clock()
    uninstall = tracing.install(tracer) if tracer is not None else None
    try:
        with workload.open(topology, seed, rep_seconds) as rep:
            run_op = rep.run_op
            if tracer is not None:
                run_op = tracer.wrap("client.op", run_op, root=True)
            latencies = out.latencies

            def run_block(block: list[tuple]) -> None:
                for op in block:
                    begin = clock()
                    try:
                        bad = run_op(op)
                    except Exception as exc:  # noqa: BLE001 - a failed op is a result
                        bad = 1
                        if len(out.problems) < 5:
                            out.problems.append(f"{op[0]} raised {exc!r}")
                    end = clock()
                    out.failed += bad
                    kind = op[0]
                    if kind in latencies:
                        latencies[kind].append(end - begin)
                    else:
                        # Packed doubles: peak RSS must not follow how
                        # many ops a fast or slow run happened to fit in.
                        latencies[kind] = array("d", [end - begin])
                out.attempted += workload.ops_per_block

            stream = workloads.Stream(workload.blocks(seed))
            for _ in range(rep.warmup_blocks):
                run_block(next(stream))
            latencies.clear()
            stream.digests.clear()
            if tracer is not None:
                tracer.reset()
            rep.begin_measuring()
            gc.collect()
            server = rep.server
            conn = rep.conn
            bytes_before = conn.bytes_in + conn.bytes_out if conn else 0
            server_cpu = server.cpu_seconds() if server else 0.0
            client_cpu = time.process_time()
            out.setup_s = clock() - started
            deadline = clock() + rep_seconds
            while clock() < deadline:
                block = next(stream)
                begin = clock()
                run_block(block)
                out.block_times.append(clock() - begin)
                rep.poll()
            out.client_cpu_s = time.process_time() - client_cpu
            if server:
                out.server_cpu_s = server.cpu_seconds() - server_cpu
                out.server_rss_mb = server.peak_rss_mb()
            if conn:
                out.wire_bytes = conn.bytes_in + conn.bytes_out - bytes_before
            out.digests = stream.digests
            if tracer is not None:
                out.traced = tracer.totals()
            out.problems.extend(rep.verify())
            out.facts = rep.layer_facts()
    finally:
        if uninstall is not None:
            uninstall()
    return out


# ----------------------------------------------------------------------
# End-to-end metrics (tracing off, R repetitions)
# ----------------------------------------------------------------------
def class_samples(rep: RepResult, kinds: tuple[str, ...]) -> list[float]:
    """Sorted latencies of one op class (what ``percentile`` expects)."""
    return sorted(s for kind in kinds for s in rep.latencies.get(kind, ()))


def end_to_end(
    workload: workloads.Workload, reps: list[RepResult]
) -> tuple[dict[str, float], dict]:
    """``(metrics, info)``: the end-to-end metrics and the informational
    numbers printed beside them (sample counts, tails, stream hash)."""
    rate, blocks = estimators.block_best_rate(
        [rep.block_times for rep in reps], workload.ops_per_block)
    metrics = {
        "setup_s": statistics.median(rep.setup_s for rep in reps),
        "ops_per_s": rate,
        "cpu_ms_per_op": min(
            (rep.client_cpu_s + rep.server_cpu_s) * 1e3
            / (len(rep.block_times) * workload.ops_per_block)
            for rep in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        + statistics.median(rep.server_rss_mb for rep in reps),
    }
    info: dict = {"blocks_used": blocks, "samples": {}, "tails_ms": {},
                  "unsupported": []}
    for role, kinds in workload.classes.items():
        per_rep = [class_samples(rep, kinds) for rep in reps]
        count = info["samples"][role] = min(len(samples) for samples in per_rep)
        for pct in (50, 90, 99):
            value = min(estimators.percentile(samples, pct) * 1e3
                        for samples in per_rep)
            if pct == 50:
                metrics[f"{role}_p50_ms"] = value
            else:
                # Informational: on this box a tail percentile spreads
                # more than any bound the contract allows (see README).
                info["tails_ms"][f"{role}_p{pct}"] = round(value, 4)
            if not estimators.supports_percentile(count, pct):
                info["unsupported"].append(f"{role}_p{pct}")
    per_rep_rate = [rep.ops_per_s(workload.ops_per_block) for rep in reps]
    info["rep_spread_ops"] = (
        (max(per_rep_rate) - min(per_rep_rate)) / statistics.median(per_rep_rate))
    digests = {rep.digests[blocks - 1] for rep in reps}
    if len(digests) != 1:
        raise RuntimeError("repetitions ran different op streams")
    info["stream_sha256"] = digests.pop()
    for fact in reps[0].facts:
        info[fact] = statistics.median(rep.facts[fact] for rep in reps)
    return metrics, info


# ----------------------------------------------------------------------
# Per-layer metrics (one traced repetition, in-process topology)
# ----------------------------------------------------------------------
def per_layer(
    workload: workloads.Workload,
    deployed: RepResult,
    untraced: RepResult,
    traced: RepResult,
) -> dict[str, float]:
    totals = traced.traced
    ops = len(traced.block_times) * workload.ops_per_block
    foreground = ("client", "server")
    everywhere = foreground + ("background",)

    def cell(names, sides=foreground, prefix=False):
        """[calls, total_s, self_s, items] summed over span names/sides."""
        if isinstance(names, str):
            names = (names,)
        summed = [0, 0.0, 0.0, 0]
        for side in sides:
            for name, values in totals[side].items():
                if name in names or (prefix and name.startswith(names[0])):
                    for i, value in enumerate(values):
                        summed[i] += value
        return summed

    def per(value: float, count: float) -> float:
        return value / count if count else 0.0

    def us_per_call(span: list) -> float:
        return per(span[1] * us, span[0])

    us = 1e6
    parse, plan = cell("sql.parse"), cell("exec.plan")
    run = cell("exec.run_", prefix=True)
    lock, commit, wal = cell("txn.lock"), cell("txn.commit"), cell("txn.wal_append")
    intercept = cell("core.intercept")
    marked_fg = cell("core.mark_migrated")[3]
    marked_bg = cell("core.mark_migrated", ("background",))[3]
    statement_server = cell("exec.statement", ("server",))
    routed = cell("cluster.statement")
    first_hop = routed if routed[0] else statement_server
    rtt_wait = cell("net.recv_frame", ("client",))[2]
    pipeline = cell("net.pipeline_sync", ("client",))
    hooks = cell("obs.hook")
    txns = cell("tpcc.txn", ("client",))
    root = cell("client.op", ("client",))
    stmts = routed[0]
    deployed_ops = len(deployed.block_times) * workload.ops_per_block
    remote = workload.remote
    facts = traced.facts

    metrics = {
        "sql.parse_calls_per_op": per(parse[0], ops),
        "sql.parse_self_us_per_op": per(parse[2] * us, ops),
        "exec.plan_calls_per_op": per(plan[0], ops),
        "exec.plan_self_us_per_op": per(plan[2] * us, ops),
        "exec.run_self_us_per_op": per(run[2] * us, ops),
        "exec.dispatch_self_us_per_op": per(cell("exec.statement")[2] * us, ops),
        "exec.run_select_us_per_call": us_per_call(cell("exec.run_select")),
        "exec.run_update_us_per_call": us_per_call(cell("exec.run_update")),
        "txn.lock_acquires_per_op": per(lock[0], ops),
        "txn.lock_self_us_per_op": per(lock[2] * us, ops),
        "txn.lock_wait_us_per_op": per(facts.get("txn.lock_wait_s", 0.0) * us, ops),
        "txn.commit_self_us_per_op": per(commit[2] * us, ops),
        "txn.wal_append_us_per_op": per(wal[1] * us, ops),
        "txn.wal_records_per_op": per(wal[3], ops),
        "txn.aborts_per_op": per(cell("txn.abort")[0], ops),
        "storage.heap_reads_per_op": per(cell("storage.heap_read")[0], ops),
        "storage.heap_writes_per_op": per(cell("storage.heap_write")[0], ops),
        "storage.index_lookups_per_op": per(
            cell(("storage.index_lookup", "storage.index_scan"))[0], ops),
        "storage.self_us_per_op": per(cell("storage.", prefix=True)[2] * us, ops),
        "core.flip_ms": cell("core.submit", everywhere)[1] * 1e3,
        "core.intercept_calls_per_op": per(intercept[0], ops),
        "core.intercept_self_us_per_op": per(intercept[2] * us, ops),
        "core.fg_migrate_us_per_op": per(cell("core.migrate_scope")[1] * us, ops),
        "core.fg_granules": marked_fg,
        "core.bg_granules": marked_bg,
        "core.bg_busy_ms": cell("core.migrate_scope", ("background",))[1] * 1e3,
        "core.bg_passes": facts.get("core.bg_passes", 0),
        "core.claims_per_granule": per(
            cell("core.try_begin", everywhere)[0], marked_fg + marked_bg),
        "core.skip_waits": facts.get("core.skip_waits", 0),
        "core.tuples_migrated": facts.get("core.tuples_migrated", 0),
        "core.migration_complete_s": deployed.facts.get(
            "core.migration_complete_s", 0.0),
        "net.encode_us_per_op": per(
            cell(("net.encode", "net.encode_frame"))[2] * us, ops),
        "net.decode_us_per_op": per(cell("net.decode")[2] * us, ops),
        "net.frames_per_op": per(
            cell(("net.encode_frame", "net.recv_frame"), ("client",))[0], ops),
        "net.bytes_per_op": per(traced.wire_bytes, ops),
        "net.client_self_us_per_op": per(cell(
            ("net.execute", "net.txn", "net.pipeline_sync", "net.send_frame"),
            ("client",))[2] * us, ops),
        "net.rtt_wait_us_per_op": per(rtt_wait * us, ops),
        "net.server_exec_us_per_op": per(first_hop[1] * us, ops),
        "net.server_overhead_us_per_op": per((rtt_wait - first_hop[1]) * us, ops),
        "net.pipeline_us_per_stmt": per(pipeline[1] * us, pipeline[3]),
        "net.server_cpu_us_per_op": per(deployed.server_cpu_s * us, deployed_ops),
        "net.client_cpu_us_per_op": per(deployed.client_cpu_s * us, deployed_ops)
        if remote else 0.0,
        "obs.hook_calls_per_op": per(hooks[0], ops),
        "obs.hook_self_us_per_op": per(hooks[2] * us, ops),
        "cluster.route_plan_calls_per_stmt": per(cell("cluster.route_plan")[0], stmts),
        "cluster.route_plan_us_per_stmt": per(
            cell("cluster.route_plan")[1] * us, stmts),
        "cluster.forward_calls_per_txn": per(cell("cluster.forward")[0], txns[0]),
        "cluster.forward_us_per_stmt": per(cell("cluster.forward")[1] * us, stmts),
        "cluster.pool_acquire_us_per_stmt": per(
            cell("cluster.pool_acquire")[1] * us, stmts),
        "cluster.scatter_calls_per_txn": per(cell("cluster.scatter")[0], txns[0]),
        "cluster.scatter_us_per_call": us_per_call(cell("cluster.scatter")),
        "cluster.broadcast_calls_per_txn": per(
            cell("cluster.broadcast")[0], txns[0]),
        "cluster.router_self_us_per_stmt": per(routed[2] * us, stmts),
        "cluster.shard_exec_us_per_stmt": per(statement_server[1] * us, stmts),
        "cluster.server_cpu_ms_per_op": per(deployed.server_cpu_s * 1e3, deployed_ops)
        if stmts else 0.0,
        "tpcc.statements_per_txn": per(
            cell(("net.execute", "net.txn", "exec.statement"), ("client",))[0],
            txns[0]),
        "tpcc.client_self_us_per_txn": per(txns[2] * us, txns[0]),
        "client.unattributed_us_per_op": per(root[2] * us, ops),
        "client.failed_share": per(deployed.failed, deployed.attempted),
        "client.max_ms": max(
            max(samples) for samples in deployed.latencies.values()) * 1e3,
        "trace.op_wall_us": per(root[1] * us, ops),
        "trace.overhead_ratio": traced.ops_per_s(workload.ops_per_block)
        / untraced.ops_per_s(workload.ops_per_block),
    }
    for role, kinds in workload.classes.items():
        samples = class_samples(deployed, kinds)
        metrics[f"client.samples_{role}"] = len(samples)
        for pct in (90,) if role == "tertiary" else (90, 99):
            metrics[f"client.{role}_p{pct}_ms"] = (
                estimators.percentile(samples, pct) * 1e3)
    return metrics


# ----------------------------------------------------------------------
# Running one workload
# ----------------------------------------------------------------------
def run_workload(
    cls: type[workloads.Workload], seed: int, seconds: float,
    trace: bool, smoke: bool,
) -> dict:
    """The contract's result object for one workload, plus ``info``."""
    os.makedirs(OUT, exist_ok=True)
    workload = cls(workloads.Sizing(smoke), SRC, OUT)
    rep_seconds = seconds / REPS
    info: dict = {}
    if not trace:
        reps = [run_rep(workload, "deployed", seed, rep_seconds)
                for _ in range(REPS)]
        metrics, info = end_to_end(workload, reps)
    else:
        deployed = run_rep(workload, "deployed", seed, rep_seconds)
        untraced = (run_rep(workload, "inproc", seed, rep_seconds)
                    if workload.remote else deployed)
        tracer = tracing.Tracer()
        traced = run_rep(workload, "inproc", seed, rep_seconds, tracer)
        reps = [deployed, untraced, traced]
        metrics = per_layer(workload, deployed, untraced, traced)
        path = os.path.join(OUT, f"trace_{workload.name}.json")
        tracer.dump(path, {"workload": workload.name, "seed": seed,
                           "ops": traced.attempted})
        info["trace_file"] = os.path.relpath(path, ROOT)
    problems = [p for rep in reps for p in rep.problems]
    return {
        "correct": not problems and not any(rep.failed for rep in reps),
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
        "info": {**info, "problems": problems, "comparable": not smoke},
    }


def print_table(name: str, result: dict) -> None:
    print(f"== {name}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<36} {entry['value']:>14.4f} {entry['unit']}")
    for key, value in result["info"].items():
        print(f"  # {key}: {value}")


# ----------------------------------------------------------------------
# --check-repeat: the evidence behind the bounds
# ----------------------------------------------------------------------
def check_repeat(smoke: bool) -> int:
    """Two sets of seeded runs per workload through the BENCHMARK.json
    command, exactly as the driver makes them.  Per (workload, metric):
    each set's quartile spread and the second median's drift against
    the first, judged against the metric's bound.  Writes NOISE.json."""
    runs = 2 if smoke else CHECK_REPEAT_RUNS
    seconds = SMOKE_SECONDS if smoke else SPEC["run_seconds"]
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    noise: dict = {"runs_per_set": runs, "seconds": seconds, "workloads": {}}
    breaches = 0
    for entry in SPEC["workloads"]:
        sets: list[dict[str, list[float]]] = []
        for which in range(2):
            values: dict[str, list[float]] = {name: [] for name in bounds}
            for run in range(runs):
                command = SPEC["command"] + [
                    "--workload", entry["name"], "--seed", str(100 * which + run + 1),
                    "--seconds", str(seconds), "--trace", "0",
                ] + (["--smoke"] if smoke else [])
                done = subprocess.run(
                    command, cwd=ROOT, capture_output=True, text=True, timeout=180)
                if done.returncode != 0:
                    print(done.stderr, file=sys.stderr)
                    return 1
                result = json.loads(done.stdout.strip().splitlines()[-1])
                if not result["correct"]:
                    print(f"{entry['name']}: incorrect outputs", file=sys.stderr)
                    return 1
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
            sets.append(values)
        rows = noise["workloads"][entry["name"]] = {}
        for name, spec in bounds.items():
            first, second = (statistics.median(s[name]) for s in sets)
            worse = (second - first) / first
            if spec["better"] == "higher":
                worse = -worse
            spreads = [estimators.quartile_spread(s[name]) for s in sets]
            # setup_s is gated on drift only (its spread is exempt).
            breach = worse > spec["bound"] or (
                name != "setup_s" and max(spreads) > spec["bound"])
            breaches += breach
            rows[name] = {"median_1": first, "median_2": second,
                          "drift_worse": worse, "spread_1": spreads[0],
                          "spread_2": spreads[1], "bound": spec["bound"]}
            print(f"{entry['name']:<16} {name:<18} drift {worse:+7.2%} "
                  f"spread {spreads[0]:6.2%} {spreads[1]:6.2%} "
                  f"bound {spec['bound']:.0%}{'  BREACH' if breach else ''}")
    if not smoke:
        with open(os.path.join(HERE, "NOISE.json"), "w") as fh:
            json.dump(noise, fh, indent=1)
            fh.write("\n")
    return 1 if breaches else 0


def main(argv: list[str] | None = None) -> int:
    # One CPU (the last: interrupts favour the first) for the harness
    # and, by inheritance, every server it spawns.  On a 2-vCPU VM the scheduler otherwise flips the
    # client/server pair between same-core and cross-core placement for
    # minutes at a time (9.4k vs 6.5k ops/s on kv_wire): cross-vCPU
    # wake-ups are a property of the VM, not of the program.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # A terminated harness must still reap its servers (finally/atexit).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    by_name = {cls.name: cls for cls in workloads.WORKLOADS}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(by_name))
    parser.add_argument("--seed", type=int, default=20210620)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run, split over "
                             f"{REPS} repetitions (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small data, short run; numbers not comparable")
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args(argv)
    if args.check_repeat:
        return check_repeat(args.smoke)
    seconds = args.seconds or (
        SMOKE_SECONDS if args.smoke else SPEC["run_seconds"])
    chosen = [by_name[args.workload]] if args.workload else list(workloads.WORKLOADS)
    results = {}
    for cls in chosen:
        results[cls.name] = run_workload(
            cls, args.seed, seconds, bool(args.trace), args.smoke)
        print_table(cls.name, results[cls.name])
    correct = all(result["correct"] for result in results.values())
    if args.workload:
        result = results[args.workload]
        print(json.dumps({key: result[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    else:
        print(json.dumps({"seed": args.seed, "seconds": seconds,
                          "comparable": not args.smoke, "workloads": results,
                          "claim": None}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
