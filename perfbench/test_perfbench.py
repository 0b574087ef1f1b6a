"""Tests of the benchmark itself: run with ``python -m pytest perfbench``."""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fogcache
import run
from stats import PERCENTILES, cells_needed, tail
from tracing import LAYER_UNITS
from workloads import QUALITY_UNITS, WORKLOADS, check_placements, reduced

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
DECLARED_E2E = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
DECLARED_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
# end-to-end metrics reported beside the declared ones, on the workloads
# that produce them
EXTRA_E2E = {"failed_share", *QUALITY_UNITS}


def beyond(values, value):
    return sum(1 for v in values if v > value)


@pytest.mark.parametrize("cap", PERCENTILES)
def test_tail_obeys_ten_beyond_rule(cap):
    rng = random.Random(cap)
    for n in list(range(1, 60)) + [99, 100, 101, 199, 200, 999, 1000, 1001]:
        values = [rng.random() for _ in range(n)]
        found = tail(values, cap)
        allowed = [p for p in PERCENTILES if p <= cap]
        if found is None:
            assert n < cells_needed(allowed[0])
            continue
        pct, value = found
        assert pct in allowed
        assert beyond(values, value) >= 10
        for higher in (p for p in allowed if p > pct):
            assert n < cells_needed(higher)


def test_cells_needed_is_the_threshold():
    for pct in PERCENTILES:
        n = cells_needed(pct)
        assert tail(list(range(n)), pct)[0] == pct
        below = tail(list(range(n - 1)), pct)
        assert below is None or below[0] < pct


def test_declared_workloads_exist():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert "setup_s" in DECLARED_E2E


def test_benchmark_json_is_well_formed():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    entries = BENCH["workloads"] + BENCH["end_to_end"] + BENCH["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCH["workloads"])
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"], setup["bound"]) == ("s", "lower", 0.25)


@pytest.fixture(scope="module")
def smoke():
    """One reduced-size untraced and traced run of every workload."""
    out = {}
    for name, workload in WORKLOADS.items():
        small = reduced(workload)
        out[name] = (
            run.untraced(small, seed=3, seconds=0.2, setup_samples=1),
            run.traced(small, seed=3, seconds=0.2),
        )
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run(smoke, name):
    (e2e, report, attempted, failed), (layer, treport, tattempted, tfailed) = smoke[name]
    assert failed == 0, report["failures"]
    assert tfailed == 0, treport["failures"]
    assert attempted >= reduced(WORKLOADS[name]).min_cells
    assert tattempted >= run.TRACED_MIN_CELLS
    assert report["tail_percentile"] == 50
    assert e2e["failed_share"][0] == 0.0
    if name == "oracle_small":
        assert 0.0 <= e2e["fa_gap_mean"][0] and 0.0 < e2e["fa_within_2pct_share"][0] <= 1.0
        assert layer["baselines.oracle_evals"][0] == 11 ** 3  # 3 rows, 1+4+6 subsets each
    if name == "fa_full":
        assert e2e["fa_over_greedy"][0] > 0
        assert {"kernels.move_us", "kernels.move_calls", "firefly.iter_ms"} <= set(layer)
        assert 0.0 < layer["firefly.evaluate_share"][0] < 1.0
    if name == "sweep_setup":
        assert {"baselines.greedy_ms", "baselines.random_ms"} <= set(layer)
        assert "firefly.run_ms" not in layer


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_emitted_metric_names_match_declared(smoke, name):
    (e2e, *_), (layer, *_) = smoke[name]
    for metric, unit in DECLARED_E2E.items():
        assert e2e[metric][1] == unit
    assert set(e2e) - set(DECLARED_E2E) <= EXTRA_E2E
    for metric, unit in DECLARED_LAYER.items():
        assert layer[metric][1] == unit
    assert set(layer) <= set(LAYER_UNITS)


def test_infeasible_placement_is_a_failure():
    spec = reduced(WORKLOADS["fa_full"]).base_spec(str(ROOT))
    ones = np.ones((spec.system.num_faps, spec.system.num_contents), dtype=np.uint8)
    assert check_placements(spec, {"greedy_local": ones}) == ["greedy_local: infeasible placement"]


def test_injected_infeasible_placement_counts(monkeypatch):
    def overfull(scenario):
        p = scenario.params
        return np.ones((p.num_faps, p.num_contents), dtype=np.uint8)

    monkeypatch.setattr(fogcache, "greedy_local", overfull)  # traced twin
    monkeypatch.setattr(fogcache.experiment, "greedy_local", overfull)  # run_experiment
    small = reduced(WORKLOADS["sweep_setup"])
    _, report, attempted, failed = run.untraced(small, seed=5, seconds=0.1, setup_samples=1)
    assert failed == attempted
    _, report, attempted, failed = run.traced(small, seed=5, seconds=0.1)
    assert failed == attempted


def test_refuses_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_setup", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
