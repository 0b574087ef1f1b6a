"""End-to-end acceptance checks for the whole toolkit.

Each test verifies one release gate and prints a single [PASS]/[FAIL]
line through the shared reporter; the lines are echoed again in the
terminal summary so the verdicts are visible in one block.  The heavy
scenario batches are session fixtures; each full-scale cell runs once.
"""

import hashlib
import itertools
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import (
    ACCEPTANCE_LINES,
    is_individually_stable,
    request_totals,
    subprocess_env,
)
from fogcache import (
    ExperimentSpec,
    FaConfig,
    HcgConfig,
    PlacementEvaluator,
    SocialGraph,
    SystemParams,
    build_rate_table,
    build_social_graph,
    exhaustive_optimal,
    feasible,
    generate_scenario,
    greedy_local,
    random_caching,
    run_experiment,
    run_fa,
    run_hcg,
)

# Small enough for the exhaustive oracle: 3 F-APs, 6 contents, 2 slots.
SMALL = SystemParams(
    num_faps=3,
    num_users=9,
    num_contents=6,
    content_size=4.0e9,
    capacity=8.0e9,
    zipf_eta=0.7,
)

# Full-size scenario; every field is the SystemParams default.
FULL = SystemParams()

CAPACITIES_GB = (10, 20, 30, 40, 50, 60)
DELTAS = (0.5, 1.0, 1.5)
FULL_SEEDS = tuple(range(20))

# lambda_rand=1.0 recombines bits without random flips, which is what
# keeps the swarm moving at this scale (beta is tiny for 1000-bit rows);
# the small instance needs the extra noise of lambda_rand=2.0.
FULL_FA = FaConfig(population=20, max_iters=60, lambda_rand=1.0)
SMALL_FA = FaConfig(population=20, max_iters=100, lambda_rand=2.0)

# The full-scale systems the gates read and the schemes each one runs.
# 50 GB and delta = 1 are the defaults, so both trends read the base cells;
# FULL comes last so that those cells keep the baselines of the dominance gate.
CAPACITY_SYSTEMS = tuple(replace(FULL, capacity=gb * 8.0e9) for gb in CAPACITIES_GB)
DELTA_SYSTEMS = tuple(replace(FULL, social_delta=d) for d in DELTAS)
FULL_CELLS = {
    **{system: ("improved_fa",) for system in CAPACITY_SYSTEMS + DELTA_SYSTEMS},
    FULL: ("random", "greedy_local", "improved_fa"),
}


def report(gate: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {gate}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _per_seed(lower, higher):
    """Per-seed verdict that each value of ``lower`` lies strictly below
    its partner in ``higher``: whether all do, and a line with the wins
    and the least and median relative margin ``1 - lower / higher``."""
    margin = 1.0 - np.asarray(lower) / np.asarray(higher)
    wins = int(np.count_nonzero(margin > 0.0))
    return wins == margin.size, (
        f"{wins}/{margin.size} wins, least margin {margin.min():.1%}, "
        f"median {np.median(margin):.1%}")


@pytest.fixture(scope="session")
def oracle_batch():
    """100 seeds of the small instance: improved FA next to the oracle."""
    spec = ExperimentSpec(system=SMALL, hcg=HcgConfig(), fa=SMALL_FA,
                          seeds=tuple(range(100)), clustering="hcg",
                          schemes=("improved_fa", "exhaustive"))
    t0 = time.perf_counter()
    rows, traces = run_experiment(spec)
    wall = time.perf_counter() - t0
    return rows, traces, wall


def _key(system, seed):
    return system, "hcg", FULL_FA, seed


@pytest.fixture(scope="session")
def full_store():
    """Each full-scale cell the gates read, run once: its key (system,
    clustering, FA config, seed) maps to its rows by scheme and its FA
    trace.  Run ids repeat across cells, so nothing is keyed by them."""
    store, fa_runs, t0 = {}, 0, time.perf_counter()
    for system, schemes in FULL_CELLS.items():
        for seed in FULL_SEEDS:
            rows, traces = run_experiment(ExperimentSpec(
                system=system, hcg=HcgConfig(), fa=FULL_FA, seeds=(seed,),
                schemes=schemes, clustering="hcg"))
            store[_key(system, seed)] = ({r.scheme: r for r in rows}, traces)
            fa_runs += sum(t.iteration == 0 for t in traces)
    ACCEPTANCE_LINES.append(f"full-scale store: {len(store)} cells, {fa_runs} FA "
                            f"runs, {time.perf_counter() - t0:.1f} s")
    return store


def _fa_rows(store, systems):
    """The FA row of each system's cells, system by system, then by seed."""
    return [store[_key(system, seed)][0]["improved_fa"]
            for system in systems for seed in FULL_SEEDS]


def _base_rows(store):
    """Every scheme's row of the base cells, seed by seed."""
    return [row for seed in FULL_SEEDS for row in store[_key(FULL, seed)][0].values()]


def test_small_instance_near_optimal(oracle_batch):
    """FA lands within 2% of the exhaustive optimum on nearly all seeds."""
    rows, _, wall = oracle_batch
    fa = {r.seed: r.objective for r in rows if r.scheme == "improved_fa"}
    opt = {r.seed: r.objective for r in rows if r.scheme == "exhaustive"}
    assert sorted(fa) == sorted(opt) == list(range(100))
    gaps = np.array([fa[s] / opt[s] - 1.0 for s in sorted(fa)])
    assert np.all(gaps >= 0.0), "a heuristic beat the exhaustive optimum"
    hits = int(np.count_nonzero(gaps <= 0.02))
    exact = int(np.count_nonzero(gaps == 0.0))
    ok = hits >= 95 and exact >= 1 and wall < 60.0
    report(
        "near-optimality",
        ok,
        f"{hits}/100 seeds within 2% of exhaustive ({exact} exact matches), "
        f"wall {wall:.1f}s < 60s",
    )


def _partition_potential(graph: SocialGraph, partition) -> float:
    total = 0.0
    for members in partition.clusters:
        block = graph.mutual[np.ix_(members, members)]
        total += float(block.sum())
    return total


def test_coalition_stability():
    """Random graphs: convergence, stability, strictly rising potential."""
    rng = np.random.default_rng(20240)
    max_passes = 0
    ok = True
    for _ in range(50):
        m_count = int(rng.integers(5, 13))
        half = rng.uniform(-1.0, 1.0, size=(m_count, m_count))
        mutual = (half + half.T) / 2.0
        np.fill_diagonal(mutual, 0.0)
        graph = SocialGraph.from_mutual(mutual)
        res = run_hcg(graph, HcgConfig(seed=int(rng.integers(2**31))))
        hist = np.asarray(res.potential_history)
        final = _partition_potential(graph, res.partition)
        good = (
            res.converged
            and res.passes < 100
            and is_individually_stable(graph, res.partition)
            and len(hist) == res.moves + 1
            and bool(np.all(np.diff(hist) > 0.0))
            and abs(final - hist[-1]) <= 1e-9 * max(1.0, abs(final))
        )
        ok = ok and good
        max_passes = max(max_passes, res.passes)
    report(
        "stability",
        ok,
        f"50 random graphs (5..12 F-APs) converged in <= {max_passes} passes, "
        "all individually stable, potential strictly increasing per move",
    )


def test_monotone_history(oracle_batch, full_store):
    """The incumbent never gets worse, in any optimizer run anywhere."""
    runs = {}
    for tr in oracle_batch[1]:  # one spec, so its run ids are distinct
        runs.setdefault(tr.run_id, []).append((tr.iteration, tr.best_objective))
    for key, (_, traces) in full_store.items():  # one FA run per cell
        runs[key] = [(tr.iteration, tr.best_objective) for tr in traces]
    assert runs, "no optimizer traces were recorded"
    ok = True
    for points in runs.values():
        points.sort()
        objs = np.array([obj for _, obj in points])
        ok = ok and bool(np.all(np.diff(objs) <= 0.0))
    report(
        "elitism",
        ok,
        f"best-objective history is non-increasing in all {len(runs)} "
        "recorded optimizer runs",
    )


def test_store_runs_each_cell_once(full_store):
    """160 keys, one FA run each; both trends read the dominance FA rows."""
    traces = [t for _, trace in full_store.values() for t in trace]
    assert len(full_store) == sum(t.iteration == 0 for t in traces) == 160
    base_fa = [r for r in _base_rows(full_store) if r.scheme == "improved_fa"]
    for rows in (_fa_rows(full_store, CAPACITY_SYSTEMS),
                 _fa_rows(full_store, DELTA_SYSTEMS)):
        shared = [r for r in rows if (r.C_bits, r.delta) == (4.0e11, 1.0)]  # 50 GB
        assert len(shared) == 20 and all(a is b for a, b in zip(shared, base_fa))


def test_feasibility():
    """Capacity holds for every firefly and every baseline placement."""
    scn = generate_scenario(SMALL, seed=3)
    rates = build_rate_table(scn)
    graph = build_social_graph(scn, rates)
    part = run_hcg(graph, HcgConfig(seed=3)).partition

    ok = True
    checked = 0
    for seed in range(5):
        res = run_fa(scn, rates, part,
                     FaConfig(population=12, max_iters=15, lambda_rand=2.0,
                              seed=seed))
        ok = ok and feasible(res.best_matrix, SMALL)
        for x in res.population:
            ok = ok and feasible(x, SMALL)
            checked += 1
    for seed in range(10):
        ok = ok and feasible(random_caching(scn, seed=seed), SMALL)
        checked += 1
    ok = ok and feasible(greedy_local(scn), SMALL)
    best, _ = exhaustive_optimal(scn, rates, part)
    ok = ok and feasible(best, SMALL)
    checked += 2
    report(
        "feasibility",
        ok,
        f"capacity respected by {checked} baseline/firefly placements; "
        "run_fa also asserts it after every repair and no run raised",
    )


def test_delay_falls_with_capacity(full_store):
    """FA delay falls at every capacity step on every seed, and its mean
    is non-increasing in cache size (1% tolerance)."""
    by_cap = {}
    for r in _fa_rows(full_store, CAPACITY_SYSTEMS):
        by_cap.setdefault(r.C_bits, []).append(r)
    caps = sorted(by_cap)
    assert caps == [gb * 8.0e9 for gb in CAPACITIES_GB]
    ok = all([r.seed for r in by_cap[c]] == list(FULL_SEEDS) for c in caps)
    delays = [[r.delay_seconds for r in by_cap[c]] for c in caps]
    means = [float(np.mean(d)) for d in delays]
    ok = ok and all(means[i + 1] <= means[i] * 1.01 for i in range(len(means) - 1))
    # each seed's delay at the larger capacity against the smaller one
    drops, drops_text = _per_seed(np.ravel(delays[1:]), np.ravel(delays[:-1]))
    pretty = ", ".join(
        f"{gb}GB:{m:.0f}s/{np.mean([r.energy_joules for r in by_cap[c]]):.0f}J"
        for gb, c, m in zip(CAPACITIES_GB, caps, means)
    )
    report("capacity trend", ok and drops,
           f"per-seed delay drops per step: {drops_text}; "
           f"mean delay/energy over 20 seeds: {pretty}")


def test_delay_rises_with_delta(full_store):
    """Mean FA delay is non-decreasing in the loss weight (1% tolerance)."""
    rows = _fa_rows(full_store, DELTA_SYSTEMS)
    by_delta = {}
    for r in rows:
        by_delta.setdefault(r.delta, []).append(r.delay_seconds)
    deltas = sorted(by_delta)
    assert deltas == list(DELTAS)
    means = [float(np.mean(by_delta[d])) for d in deltas]
    ok = all(len(by_delta[d]) == len(FULL_SEEDS) for d in deltas)
    ok = ok and all(means[i + 1] >= means[i] * 0.99 for i in range(len(means) - 1))
    pretty = ", ".join(f"d={d:g}:{m:.0f}s" for d, m in zip(deltas, means))
    # a seed whose cluster count and FA objective match at every delta
    # shows no effect of delta; the trend only means something if some move
    outcomes = {}
    for r in rows:
        outcomes.setdefault(r.seed, set()).add((r.num_clusters, r.objective))
    moved = sum(len(v) > 1 for v in outcomes.values())
    report("delta trend", ok, f"mean delay over 20 seeds: {pretty}; "
           f"{moved} of {len(outcomes)} seeds change cluster count or "
           f"FA objective across deltas")


def test_beats_baselines(full_store):
    """FA's objective is strictly below random and greedy caching on every
    seed, and so in the mean."""
    by_scheme = {}
    for r in _base_rows(full_store):
        by_scheme.setdefault(r.scheme, []).append(r)
    assert all([r.seed for r in v] == list(FULL_SEEDS) for v in by_scheme.values())
    objective = {s: [r.objective for r in v] for s, v in by_scheme.items()}
    means = {s: float(np.mean(v)) for s, v in objective.items()}
    ok = (means["improved_fa"] < means["random"]
          and means["improved_fa"] < means["greedy_local"])
    verdicts = []
    for rival in ("random", "greedy_local"):
        won, text = _per_seed(objective["improved_fa"], objective[rival])
        ok = ok and won
        verdicts.append(f"fa vs {rival}: {text}")
    pretty = ", ".join(
        f"{s}={means[s]:.0f} ({np.mean([r.delay_seconds for r in v]):.0f}s/"
        f"{np.mean([r.energy_joules for r in v]):.0f}J)"
        for s, v in by_scheme.items()
    )
    report("dominance", ok,
           f"{'; '.join(verdicts)}; mean objective (delay/energy) over 20 "
           f"seeds: {pretty}")


def test_double_bookkeeping():
    """Vectorized evaluator equals the per-request sum to 1e-9 relative,
    with the intra-cluster hop free and charged."""
    rng = np.random.default_rng(88)
    worst = 0.0
    ok = True
    charged_differs = 0
    for _ in range(20):
        params = SystemParams(
            num_faps=int(rng.integers(2, 6)),
            num_users=int(rng.integers(4, 13)),
            num_contents=int(rng.integers(3, 9)),
            content_size=4.0e9,
            capacity=float(rng.integers(1, 4)) * 4.0e9,
            zipf_eta=float(rng.uniform(0.4, 1.2)),
        )
        scn = generate_scenario(params, seed=int(rng.integers(10**6)))
        rates = build_rate_table(scn)
        graph = build_social_graph(scn, rates)
        part = run_hcg(graph, HcgConfig(seed=int(rng.integers(10**6)))).partition
        x = random_caching(scn, seed=int(rng.integers(10**6)))
        # knock out rows/columns at random so all three regimes appear
        for m in range(params.num_faps):
            if rng.random() < 0.3:
                x[m, :] = 0
        if rng.random() < 0.5:
            x[:, int(rng.integers(params.num_contents))] = 0
        delays = []
        for hop in ("free", "charged"):
            hop_scn = replace(scn, params=replace(params, intra_cluster_hop=hop))
            got = PlacementEvaluator(hop_scn, rates, part).evaluate(x)
            want = request_totals(hop_scn, rates, x, part)
            for a, b in zip((got.delay, got.energy, got.objective), want):
                rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
                worst = max(worst, rel)
                ok = ok and rel <= 1e-9
            delays.append(got.delay)
        charged_differs += delays[1] > delays[0]
    report(
        "equivalence",
        ok and charged_differs > 0,
        f"20 random instances, free and charged hop: evaluator matches the "
        f"per-request sum, max relative difference {worst:.2e}; the charged "
        f"hop adds delay on {charged_differs}",
    )


DETERMINISM_YAML = """\
system:
  num_faps: 3
  num_users: 9
  num_contents: 6
  content_size: 4.0e+9
  capacity: 8.0e+9
  zipf_eta: 0.7
fa:
  population: 6
  max_iters: 8
  lambda_rand: 2.0
experiment:
  seeds: [0, 1]
  schemes: [random, greedy_local, improved_fa]
  clustering: hcg
"""


def _cli(args, cwd):
    cmd = [sys.executable, "-c",
           "import sys; from fogcache.cli import main; sys.exit(main(sys.argv[1:]))"]
    return subprocess.run(cmd + args, cwd=cwd, env=subprocess_env(),
                          capture_output=True, text=True)


def test_repeatable_csv(tmp_path):
    """Two CLI executions of one config produce byte-identical files."""
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(DETERMINISM_YAML)
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"results_{tag}.csv"
        trace = tmp_path / f"trace_{tag}.csv"
        proc = _cli(["run", str(cfg), "-o", str(out), "--trace", str(trace),
                     "--repeatable", "--quiet"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out.read_bytes(), trace.read_bytes()))
    (res_a, tr_a), (res_b, tr_b) = outputs
    assert len(res_a.splitlines()) == 7  # header + 2 seeds x 3 schemes
    ok = res_a == res_b and tr_a == tr_b
    report(
        "determinism",
        ok,
        f"results ({len(res_a)} bytes) and traces ({len(tr_a)} bytes) are "
        "byte-identical across two separate processes",
    )


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# The --repeatable results and trace files of each golden config, as the
# CLI wrote them when they were pinned.  A change that alters outputs on
# purpose rewrites these files and says so in CHANGES.md; the diff of
# the files then shows which cells moved.
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_NAMES = ("full_scale_reduced", "small")


def _golden_config(name, tmp_path):
    """``configs/small.yaml`` as shipped, or ``configs/full_scale.yaml``
    cut to seed 0 and 3 FA iterations (``run`` takes its one capacity)."""
    if name == "small":
        return CONFIGS / "small.yaml"
    doc = yaml.safe_load((CONFIGS / "full_scale.yaml").read_text())
    doc["fa"]["max_iters"] = 3
    doc["experiment"]["seeds"] = [0]
    cfg = tmp_path / "full_scale_reduced.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    return cfg


def _first_differences(got: bytes, want: bytes, limit: int = 3) -> str:
    """The first ``limit`` rows that differ, pinned row above written row."""
    a, b = want.decode().splitlines(), got.decode().splitlines()
    rows = [f"row {n}: pinned {x!r}, written {y!r}"
            for n, (x, y) in enumerate(itertools.zip_longest(a, b)) if x != y]
    return "; ".join(rows[:limit])


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_outputs_match_golden_pins(tmp_path, name):
    """The CLI still writes the very bytes of the pinned golden files."""
    out, trace = tmp_path / "results.csv", tmp_path / "trace.csv"
    proc = _cli(["run", str(_golden_config(name, tmp_path)), "-o", str(out),
                 "--trace", str(trace), "--repeatable", "--quiet"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    sizes, diffs = [], []
    for kind, path in (("results", out), ("trace", trace)):
        got = path.read_bytes()
        want = (GOLDEN_DIR / f"{name}_{kind}.csv").read_bytes()
        digest = hashlib.sha256(got).hexdigest()[:12]
        sizes.append(f"{kind} ({len(got)} bytes, sha256 {digest})")
        if got != want:
            diffs.append(f"{kind}: {_first_differences(got, want)}")
    verdict = "; ".join(diffs) if diffs else "byte-identical"
    report(f"golden outputs ({name})", not diffs,
           f"{' and '.join(sizes)} against tests/golden/{name}_*.csv: {verdict}")
