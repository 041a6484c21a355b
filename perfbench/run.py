"""Benchmark of the MH betweenness reproduction, one workload per run.

    python3 perfbench/run.py --workload cold-separator --seed 1 --seconds 15 --trace 0

Run from the repository root. It starts its own ``local[N]``
SparkSession (N = min(4, cores)), builds the workload's inputs from the
seed, then runs a closed loop with one client: the next op is issued only
after the previous one returned, in whole rounds, until the ops have taken
``--seconds`` seconds. Each op's result is checked outside its timing.
``--workload all`` runs every workload in the one session.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one round
twice, untraced then traced, and prints the per-layer metrics. The
last stdout line is one JSON object; a result file and, when traced, the
spans are written under ``perfbench/out/``. See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3
CORES = max(1, min(4, os.cpu_count() or 1))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def spark_env() -> None:
    """Environment the Spark JVM and its Python workers start from: the
    workers import ``repro`` from ``src``; settings follow ``conftest.py``."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    os.environ.setdefault("SPARK_DRIVER_MEM", "2g")
    tmp = OUT / "tmp"  # keep scratch files of the JVM and the workers in the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] "
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
        f"--driver-java-options '-Djava.io.tmpdir={tmp} -XX:-UsePerfData' "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={OUT / 'spark-local'} "
        "pyspark-shell"
    )
    sys.path.insert(0, str(SRC))


def start_session():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark, then close the JVM's stdin (its gateway exits on EOF) and
    wait for the JVM to end; it takes its Python workers with it."""
    from pyspark import SparkContext

    spark.stop()
    proc = getattr(SparkContext._gateway, "proc", None)
    if proc is None:
        return
    proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def host_record(spark) -> dict:
    import numpy
    import pyspark

    java = subprocess.run(
        ["java", "-XX:-UsePerfData", "-version"], capture_output=True, text=True
    ).stderr
    mem_kb = next(
        int(line.split()[1]) for line in open("/proc/meminfo") if line.startswith("MemTotal:")
    )
    sc = spark.sparkContext
    return {
        "cores": os.cpu_count(),
        "ram_gb": round(mem_kb / 2**20, 1),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyspark": pyspark.__version__,
        "java": java.splitlines()[0] if java else "unknown",
        "spark_master": sc.master,
        "driver_memory": os.environ["SPARK_DRIVER_MEM"],
        "default_parallelism": sc.defaultParallelism,
    }


def graph_record(graphs: dict) -> dict:
    from repro.graphs.properties import diameter

    return {
        key: {"name": g.name, "n": g.n, "m": g.m, "diameter>=": diameter(g, sources=8)}
        for key, g in graphs.items()
    }


def median(xs) -> float:
    xs = sorted(xs)
    k = len(xs)
    return 0.0 if k == 0 else (xs[k // 2] if k % 2 else (xs[k // 2 - 1] + xs[k // 2]) / 2)


def tail(ms: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, as
    ``(value, percentile)``; the median rank when there are fewer than 21."""
    xs = sorted(ms)
    j = max(len(xs) - 11, len(xs) // 2)
    return xs[j], round(100.0 * (j + 1) / len(xs), 1)


def closed_loop(spark, wl, seed: int, seconds: float, rounds: int | None, tracer=None):
    """Run whole rounds until the ops' busy time reaches ``seconds`` (or
    exactly ``rounds`` rounds). Returns (records, rounds run). Op ``i`` runs
    under Spark job group ``op-i`` (``traced-op-i`` when traced)."""
    import numpy as np

    sc = spark.sparkContext
    rng = np.random.default_rng([seed, 7])
    records, busy, done = [], 0.0, 0
    while (busy < seconds) if rounds is None else (done < rounds):
        for op in wl.round(rng):
            i = len(records)
            sc.setJobGroup(f"{'traced-' if tracer else ''}op-{i}", op.kind)
            err, res = "", None
            span = None
            if tracer is not None:
                tracer.op, tracer.recording = i, True
                span = tracer.open("bench.op", "bench")
            t0 = time.perf_counter()
            try:
                res = op.call()
            except Exception:  # an op that raises is a failed op, not a crash
                err = traceback.format_exc()
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.finish(span)
                span["attrs"] = {"kind": op.kind}
                tracer.recording = False
            busy += dt
            if err:
                print(f"op {i} {op.kind} raised:\n{err}", file=sys.stderr)
                verdict = None
            else:
                try:
                    verdict = wl.check(op, res)
                except Exception:
                    print(f"op {i} {op.kind} check raised:\n{traceback.format_exc()}",
                          file=sys.stderr)
                    verdict = None
            if verdict is not None and not verdict.ok:
                print(f"op {i} {op.kind} failed its gate {op.meta}", file=sys.stderr)
            records.append({"kind": op.kind, "s": dt, "verdict": verdict, "round": done})
            del res
        done += 1
    sc.setJobGroup("harness", "harness")
    return records, done


def _passed(record: dict) -> bool:
    return record["verdict"] is not None and record["verdict"].ok


def end_to_end(records: list[dict], setup_s: float) -> tuple[dict, dict]:
    ms = [r["s"] * 1e3 for r in records]
    ok = [r for r in records if _passed(r)]
    checked = sum(r["verdict"].eps_checked for r in ok)
    hits = sum(r["verdict"].eps_hits for r in ok)
    tail_ms, tail_pct = tail(ms)
    # Throughput per round (each round holds every op kind once), then the
    # median over rounds: a burst of host contention moves a few rounds only.
    rounds: dict[int, list[dict]] = {}
    for r in records:
        rounds.setdefault(r["round"], []).append(r)
    per_round = [
        (len(rs) / sum(r["s"] for r in rs),
         sum(r["verdict"].sources for r in rs if _passed(r)) / sum(r["s"] for r in rs))
        for rs in rounds.values()
    ]
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (median(ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "ops_per_s": (median(x for x, _ in per_round), "1/s"),
        "sources_per_s": (median(y for _, y in per_round), "1/s"),
        "success_rate": (len(ok) / len(records), "ratio"),
        "eps_hit_rate": (hits / checked if checked else 1.0, "ratio"),
        "driver_peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "ops": len(records),
        "op_ms_tail_percentile": tail_pct,
        "eps_checked": checked,
        "op_ms": [[r["kind"], round(r["s"] * 1e3, 3)] for r in records],
    }
    return metrics, extra


def run_workload(spark, name: str, seed: int, seconds: float, trace: bool, base_setup_s: float):
    """Set up, reference, timed loop(s) and metrics for one workload."""
    import numpy as np
    import tracing
    import workloads
    from pyspark import SparkContext

    wl = workloads.WORKLOADS[name](spark, seed)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install(SparkContext)
    builds = []
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            if tracer is not None:
                tracer.recording = True
            t = time.perf_counter()
            wl.build()
            builds.append(time.perf_counter() - t)
            if tracer is not None:
                tracer.recording = False
        setup_s = base_setup_s + median(builds)
        wl.prepare_reference()
        gate_rng = np.random.default_rng([seed, 11])
        gate_failures = [b for g in wl.graphs.values() for b in workloads.kernel_gate(g, gate_rng)]
        for b in gate_failures:
            print(b, file=sys.stderr)
        # Untimed warm-up on the real inputs, one op per Spark plan the
        # workload runs: the first run of a plan compiles it in the JVM.
        t = time.perf_counter()
        ops = wl.round(np.random.default_rng([seed, 3]))
        for op in (next(o for o in ops if o.kind.startswith(k)) for k in wl.warmup):
            try:
                op.call()
            except Exception:  # the timed loop records it as a failed op
                print(f"warm-up {op.kind} raised:\n{traceback.format_exc()}", file=sys.stderr)
        setup_s += time.perf_counter() - t
        # A traced run times one round untraced, then the same round traced.
        records, rounds = closed_loop(spark, wl, seed, seconds, 1 if trace else None)
        if trace:
            import layers

            traced, _ = closed_loop(spark, wl, seed, seconds, rounds, tracer)
            metrics, extra = layers.per_layer(spark, tracer, wl, records, traced, seed)
            records = records + traced
            tracer.dump(OUT / f"spans-{name}-seed{seed}.jsonl")
        else:
            metrics, extra = end_to_end(records, setup_s)
        extra["setup_builds_s"] = builds
        extra["graphs"] = graph_record(wl.graphs)
    finally:
        if tracer is not None:
            tracer.close()
    failed = sum(not _passed(r) for r in records)
    failed += len(gate_failures) + extra.pop("failed_gates", 0)
    return records, failed, metrics, extra


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    t_start = time.perf_counter()
    spark_env()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    spark = start_session()
    try:
        session_s = time.perf_counter() - t_start
        from repro.brandes import exact
        from repro.graphs import generators as gen

        t = time.perf_counter()  # untimed warm-up job: worker start, imports
        exact.dependency_matrix(spark, gen.barabasi_albert(50, 2, seed=args.seed), [0])
        warmup_s = time.perf_counter() - t
        host = host_record(spark)
        lines = []
        for name in names:
            records, failed, metrics, extra = run_workload(
                spark, name, args.seed, args.seconds, bool(args.trace), session_s + warmup_s
            )
            line = {
                "correct": failed == 0,
                "attempted": len(records),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
            OUT.mkdir(parents=True, exist_ok=True)
            record = {
                "workload": name, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "command": sys.argv, "host": host,
                "session_s": session_s, "warmup_s": warmup_s, **extra, "result": line,
            }
            (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(record, indent=1, default=str)
            )
            lines.append((name, line))
    finally:
        stop_session(spark)
    if len(lines) > 1:
        for _, line in lines:
            print(json.dumps(line))
        final = {
            "correct": all(l["correct"] for _, l in lines),
            "attempted": sum(l["attempted"] for _, l in lines),
            "failed": sum(l["failed"] for _, l in lines),
            "metrics": {f"{n}.{k}": v for n, l in lines for k, v in l["metrics"].items()},
        }
    else:
        final = lines[0][1]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
