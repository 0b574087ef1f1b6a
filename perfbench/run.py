"""fogcache benchmark: one workload per process, timed or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oracle_small --seed 1 --seconds 30 --trace 0

``--trace 0`` times cells through the public ``run_experiment`` with no
instrumentation and reports the end-to-end metrics.  ``--trace 1`` runs
the same cells through the traced twin of the pipeline, replays them
untraced to prove both give the same rows, and reports the per-layer
metrics.  The last line of standard output is the result object; the
line before it is a fuller report with the run facts, and both are
also written to ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys
import time

# pin BLAS/OpenMP pools before anything imports numpy, here and in the
# set-up probes this process starts
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# set-ups per timed run: this process plus probes, half of them before the
# timed loop and half after, so the median spans the run's machine state
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 120
HARD_LIMIT_S = 120.0  # stop the timed loop here even short of min cells
TRACED_MIN_CELLS = 2
CONFIG_LOADS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description="fogcache benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time one set-up and print it as JSON")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up: import, config load, one untimed warm-up cell.


def setup(workload, seed: int):
    """Import the library, load the config, run the warm-up cell.

    ``workload`` is a name, or a ``Workload`` when the caller already
    imported the library.  Returns (seconds, workload, base spec,
    warm-up spec, warm-up rows or the error they raised); the clock
    starts before the first import of ``fogcache``.
    """
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fogcache
    from workloads import WORKLOADS

    if isinstance(workload, str):
        workload = WORKLOADS[workload]
    base = workload.base_spec(str(ROOT))
    warm = workload.cell(base, seed, 0)
    try:
        rows, _ = fogcache.run_experiment(warm, repeatable_timing=True)
    except Exception as exc:  # a failing cell is counted, not fatal
        rows = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, workload, base, warm, rows


def setup_probe(workload_name: str, seed: int) -> dict:
    seconds, workload, _, warm, rows = setup(workload_name, seed)
    return {"setup_s": seconds, **warmup_checks(workload, warm, rows)}


def warmup_checks(workload, warm, rows) -> dict:
    """Digest of the warm-up cell's repeatable CSV rows, and its problems."""
    from workloads import check_rows, rows_digest

    if isinstance(rows, str):
        return {"digest": None, "problems": [rows]}
    return {"digest": rows_digest(rows, str(OUT)), "problems": check_rows(workload, warm, rows)}


def run_probe(workload_name: str, seed: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({done.returncode}): {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Run facts.


def src_facts() -> dict:
    lines, digest = 0, hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                          text=True, timeout=30, check=False)
    return done.stdout.strip() or None


def run_facts() -> dict:
    import numpy
    import fogcache

    get_backend = getattr(fogcache, "get_backend", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": get_backend().name if get_backend else None,
        "has_numba": getattr(fogcache, "HAS_NUMBA", None),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": git_commit(),
        **src_facts(),
    }


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics.


def timed_run(workload, base, seed: int, seconds: float):
    """Closed loop of cells through ``run_experiment`` until ``seconds``
    have passed and the workload's tail percentile is reachable.

    Returns [(spec, rows or None, seconds, error)] and the loop's wall time.
    """
    import fogcache

    cells = []
    specs = workload.cells(base, seed)
    start = time.perf_counter()
    elapsed = 0.0
    while (elapsed < seconds or len(cells) < workload.min_cells) and elapsed < HARD_LIMIT_S:
        spec = next(specs)
        t0 = time.perf_counter()
        try:
            rows, _ = fogcache.run_experiment(spec)
            error = None
        except Exception as exc:  # a failing cell is counted, not fatal
            rows, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        cells.append((spec, rows, t1 - t0, error))
        elapsed = t1 - start
    return cells, elapsed


def cross_check(workload, spec, rows):
    """Re-run one cell through the traced twin: placements must be
    feasible and rows must equal those ``run_experiment`` gave."""
    from tracing import Tracer, traced_cell
    from workloads import check_placements

    try:
        traced_rows, placements, _, _ = traced_cell(spec, Tracer())
    except Exception as exc:
        return [f"traced twin raised {type(exc).__name__}: {exc}"]
    problems = check_placements(spec, placements)
    if traced_rows != [replace(r, wall_ms=0.0) for r in rows]:
        problems.append("traced twin rows differ from run_experiment rows")
    return problems


def untraced(workload, seed: int, seconds: float, setup_samples: int = SETUP_SAMPLES):
    """End-to-end metrics of one workload (a name, or a ``Workload`` with
    ``setup_samples=1``, since set-up probes look workloads up by name)."""
    setup_s, workload, base, warm, warm_rows = setup(workload, seed)
    from stats import tail
    from workloads import QUALITY_UNITS, check_rows, quality

    facts = run_facts()
    probes = [{"setup_s": setup_s, **warmup_checks(workload, warm, warm_rows)}]
    probes += [run_probe(workload.name, seed) for _ in range(setup_samples // 2)]
    cells, wall = timed_run(workload, base, seed, seconds)
    probes += [run_probe(workload.name, seed) for _ in range(setup_samples - len(probes))]

    samples = [p["setup_s"] for p in probes]
    digests = [p["digest"] for p in probes]
    problems = {f"setup:{i}": list(p["problems"]) for i, p in enumerate(probes)}
    for i, d in enumerate(digests):
        if d is not None and d != digests[0]:
            problems[f"setup:{i}"].append("warm-up rows digest differs across repetitions")
    good_rows = []
    for i, (spec, rows, _, error) in enumerate(cells):
        found = [error] if error else check_rows(workload, spec, rows)
        if i == 0 and rows is not None:
            found += cross_check(workload, spec, rows)
        problems[f"cell:{i}"] = found
        if not found:
            good_rows.append(rows)
    failures = {k: v for k, v in problems.items() if v}

    times_ms = [1e3 * dt for _, rows, dt, _ in cells if rows is not None]
    completed = len(times_ms)
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "cell_ms_p50": (statistics.median(times_ms), "ms") if times_ms else None,
        "cells_per_s": (completed / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_share": (len(failures) / len(problems), "share"),
    }
    tail_at = tail(times_ms, workload.tail_cap)
    if tail_at is not None:
        metrics["cell_ms_tail"] = (tail_at[1], "ms")
    for name, value in quality(workload, good_rows).items():
        metrics[name] = (value, QUALITY_UNITS[name])
    report = {
        "workload": workload.name, "seed": seed, "trace": 0, "seconds": seconds,
        "cells": len(cells), "cells_completed": completed,
        "tail_percentile": tail_at[0] if tail_at else None,
        "setup_samples_s": samples, "warmup_digest": digests[0],
        "failures": failures, "facts": facts,
    }
    return metrics, report, len(problems), len(failures)


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics.


def evaluate_peak_kb(evaluator, placements) -> float:
    """Largest per-call peak of memory allocated during one evaluation."""
    import tracemalloc

    tracemalloc.start()
    try:
        peaks = []
        for x in placements:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            evaluator.evaluate(x)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return max(peaks) / 1024.0


def traced(workload, seed: int, seconds: float):
    """Per-layer metrics of one workload (a name or a ``Workload``)."""
    _, workload, base, _, _ = setup(workload, seed)
    import fogcache
    from tracing import LAYER_UNITS, Tracer, instrumented, layer_metrics, traced_cell
    from workloads import check_placements, check_rows

    facts = run_facts()
    loads = []
    for _ in range(CONFIG_LOADS):
        t0 = time.perf_counter()
        fogcache.load_config(str(ROOT / workload.config))
        loads.append(time.perf_counter() - t0)

    # each traced cell is replayed untraced right after it, so the pair
    # sees the same machine state and their difference is tracing overhead
    tracer = Tracer()
    specs = workload.cells(base, seed)
    cells, problems = [], {}
    traced_s = replay_s = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(cells) < TRACED_MIN_CELLS:
        spec = next(specs)
        key = f"cell:{len(cells)}"
        with instrumented(tracer) as kernels:
            t0 = time.perf_counter()
            try:
                out, error = traced_cell(spec, tracer), None
            except Exception as exc:  # a failing cell is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            traced_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        try:
            rows, _ = fogcache.run_experiment(spec, repeatable_timing=True)
        except Exception as exc:  # a failing cell is counted, not fatal
            rows, error = None, error or f"{type(exc).__name__}: {exc}"
        replay_s += time.perf_counter() - t0
        cells.append(out)
        if error:
            problems[key] = [error]
            continue
        traced_rows, placements, _, _ = out
        found = check_rows(workload, spec, traced_rows) + check_placements(spec, placements)
        if traced_rows != rows:
            found.append("traced rows differ from run_experiment rows")
        problems[key] = found
    failures = {k: v for k, v in problems.items() if v}

    counters = [out[3] for out in cells if out is not None]
    layer, self_ms = layer_metrics(tracer, counters, kernels)
    last = next((out for out in reversed(cells) if out is not None), None)
    if last is not None:
        layer["cache.evaluate_peak_kb"] = evaluate_peak_kb(last[2], list(last[1].values()))
    layer["config.load_ms"] = 1e3 * statistics.median(loads)
    layer["trace.overhead_ms"] = 1e3 * (traced_s - replay_s) / len(cells)

    metrics = {k: (v, LAYER_UNITS[k]) for k, v in layer.items()}
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(str(spans_path))
    report = {
        "workload": workload.name, "seed": seed, "trace": 1, "seconds": seconds,
        "cells": len(cells), "kernels_traced": kernels,
        "self_ms_by_layer": self_ms,
        "traced_s": traced_s, "untraced_s": replay_s,
        "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
        "failures": failures, "facts": facts,
    }
    return metrics, report, len(problems), len(failures)


# ---------------------------------------------------------------------------


def benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def declared_workloads():
    return [w["name"] for w in benchmark_json()["workloads"]]


def declared_metrics(trace: int):
    return [m["name"] for m in benchmark_json()["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fogcache" / "__init__.py").is_file():
        print(f"no fogcache sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    if args.workload not in declared_workloads():
        print(f"unknown workload {args.workload!r}; choose from {declared_workloads()}", file=sys.stderr)
        return 2
    run = traced if args.trace else untraced
    metrics, report, attempted, failed = run(args.workload, args.seed, args.seconds)

    declared = declared_metrics(args.trace)
    missing = [name for name in declared if metrics.get(name) is None]
    if missing:
        print(f"workload {args.workload} produced no value for {missing}", file=sys.stderr)
        return 1
    report["metrics"] = {k: {"value": m[0], "unit": m[1]} for k, m in metrics.items() if m is not None}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in declared},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"report": report, "result": result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
