"""Experiment runner, config parsing, CSV output, and the CLI."""

import csv
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from fogcache import (
    ExperimentSpec,
    FaConfig,
    HcgConfig,
    PlacementEvaluator,
    SystemParams,
    build_social_graph,
    dbm_to_watts,
    experiment,
    gb_to_bits,
    load_config,
    mb_to_bits,
    mhz_to_hz,
    run_experiment,
    run_verification,
    write_csv,
    write_trace_csv,
)
from fogcache._kernels import derive_key
from fogcache.cli import main
from fogcache.config import parse_config
from fogcache.experiment import ResultRow

from conftest import is_individually_stable, request_totals, subprocess_env

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))

SMALL_SYSTEM = dict(
    num_faps=3,
    num_users=9,
    num_contents=6,
    content_size=4.0e9,
    capacity=8.0e9,
    zipf_eta=0.7,
)

SMALL_YAML = """\
system:
  num_faps: 3
  num_users: 9
  num_contents: 6
  content_size: 4.0e+9
  capacity: 8.0e+9
  zipf_eta: 0.7
fa:
  population: 6
  max_iters: 5
  lambda_rand: 2.0
experiment:
  seeds: [0]
  schemes: [random, improved_fa]
"""


def small_spec(**exp_overrides) -> ExperimentSpec:
    base = dict(
        system=SystemParams(**SMALL_SYSTEM),
        hcg=HcgConfig(),
        fa=FaConfig(population=6, max_iters=5, lambda_rand=2.0),
        seeds=(0,),
        schemes=("random",),
    )
    base.update(exp_overrides)
    return ExperimentSpec(**base)


# ---------------------------------------------------------------------------
# unit conversions


def test_unit_conversions():
    assert dbm_to_watts(46.0) == pytest.approx(39.810717055349734, rel=1e-15)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)
    assert gb_to_bits(50.0) == 4.0e11
    assert mb_to_bits(500.0) == 4.0e9
    assert mhz_to_hz(10.0) == 1.0e7


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_empty_gives_defaults():
    spec = parse_config(None)
    assert spec.system.num_faps == 15
    assert spec.schemes == ("improved_fa",)
    assert spec.sweep_axis == "none"


def test_parse_config_sections():
    spec = parse_config(
        {
            "system": {"num_faps": 4, "num_users": 8, "num_contents": 10},
            "fa": {"population": 12},
            "experiment": {
                "sweep_axis": "capacity",
                "sweep_values": [1.0e9, 2.0e9],
                "seeds": [0, 1],
                "schemes": ["random", "greedy_local"],
            },
        }
    )
    assert spec.system.num_faps == 4
    assert spec.hcg == HcgConfig()
    assert spec.fa.population == 12
    assert spec.sweep_values == (1.0e9, 2.0e9)
    assert spec.seeds == (0, 1)


def test_parse_config_recovers_stringified_numbers():
    # YAML 1.1 reads exponent forms without a sign as strings
    spec = parse_config(
        {
            "system": {"capacity": "8.0e9", "content_size": "4.0e9"},
            "experiment": {"sweep_axis": "capacity", "sweep_values": ["1e9", 2.0e9]},
        }
    )
    assert spec.system.capacity == 8.0e9
    assert spec.sweep_values == (1.0e9, 2.0e9)


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config({"system": {"num_fapz": 3}})
    with pytest.raises(ValueError, match="unknown key"):
        parse_config({"experiment": {"sweep": "capacity"}})
    # the user density follows from num_users and side_length
    with pytest.raises(ValueError, match="unknown key"):
        parse_config({"system": {"user_density": 1e-4}})
    # the kernels have one implementation, so there is nothing to select
    with pytest.raises(ValueError, match="unknown key"):
        parse_config({"fa": {"backend": "numpy"}})
    # the paper's FA has one move and one repair rule
    for section, key, value in (
        ("fa", "epsilon_scope", "matrix"),
        ("fa", "repair_fill", "none"),
        ("fa", "stall_limit", 3),
        ("system", "similarity_denominator", "var"),
    ):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config({section: {key: value}})
    # every run derives its seeds from experiment.seeds
    with pytest.raises(ValueError, match="unknown key.*experiment.seeds"):
        parse_config({"fa": {"seed": 12345}})
    # HCG has no options: a fixed start size and pass cap, a derived seed
    for key, value in (
        ("top_candidates", 1),
        ("max_passes", 100),
        ("initial_clusters", 2),
        ("seed", 999),
    ):
        with pytest.raises(ValueError, match=r"top-level section.*'hcg'"):
            parse_config({"hcg": {key: value}})
    with pytest.raises(ValueError, match="section"):
        parse_config({"systems": {}})


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(SMALL_YAML)
    spec = load_config(str(path))
    assert spec.system.num_faps == 3
    assert spec.system.capacity == 8.0e9
    assert spec.fa.lambda_rand == 2.0
    assert spec.schemes == ("random", "improved_fa")


def test_load_config_errors(tmp_path):
    with pytest.raises(OSError):
        load_config(str(tmp_path / "missing.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("system: [unclosed\n")
    with pytest.raises(ValueError):
        load_config(str(bad))


def test_load_config_rejects_fractional_counts(tmp_path, capsys):
    """A fractional count is a config error, in the loader and the CLI,
    not a numpy TypeError deep inside scenario generation."""
    bad = tmp_path / "fractional.yaml"
    bad.write_text("system:\n  num_users: 9.5\n")
    with pytest.raises(ValueError, match="num_users must be an integer"):
        load_config(str(bad))
    assert main(["run", str(bad), "-o", str(tmp_path / "out.csv")]) == 1
    assert "error: num_users must be an integer" in capsys.readouterr().err


def test_cli_rejects_lambda_rand_below_one(tmp_path, capsys):
    """A lambda_rand below 1 is a config error in the CLI, like any other."""
    bad = tmp_path / "lambda.yaml"
    bad.write_text("fa: {lambda_rand: 0.5}\n")
    assert main(["run", str(bad), "-o", str(tmp_path / "out.csv")]) == 1
    assert "error: lambda_rand must be at least 1 " in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


# experiment sections that used to run truncated or coerced, or crash
BAD_EXPERIMENT = {
    "seed-fraction": "seeds: [0.5]",
    "seed-bool": "seeds: [true]",
    "cap-fraction": "exhaustive_cap: 2.5",
    "cap-bool": "exhaustive_cap: true",
    "seeds-scalar": "seeds: 5",
    "sweep-values-scalar": "sweep_axis: capacity\n  sweep_values: 5",
    "sweep-values-null": "sweep_axis: capacity\n  sweep_values: [null]",
    "sweep-value-bool": "sweep_axis: zipf_eta\n  sweep_values: [true]",
}


@pytest.mark.parametrize("body", BAD_EXPERIMENT.values(), ids=list(BAD_EXPERIMENT))
def test_bad_experiment_section_is_a_config_error(body, tmp_path, capsys):
    text = f"experiment:\n  {body}\n"
    with pytest.raises(ValueError):
        parse_config(yaml.safe_load(text))
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    assert main(["run", str(bad), "-o", str(tmp_path / "out.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_negative_seeds_stay_allowed():
    assert parse_config({"experiment": {"seeds": [-3, 2]}}).seeds == (-3, 2)


def test_sweep_axes_name_system_fields():
    """Every sweep axis but "none" is a SystemParams field that
    _apply_axis sets; the benchmark's tracer relies on this."""
    names = {f.name for f in fields(SystemParams)}
    params = SystemParams()
    for axis in experiment.SWEEP_AXES[1:]:
        assert axis in names
        assert getattr(params, axis) != 0.25
        assert getattr(experiment._apply_axis(params, axis, 0.25), axis) == 0.25


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(schemes=("psychic",))
    with pytest.raises(ValueError):
        small_spec(sweep_axis="capacity")  # no values
    with pytest.raises(ValueError):
        small_spec(seeds=())
    with pytest.raises(ValueError):
        small_spec(clustering="kmeans")


# ---------------------------------------------------------------------------
# runner


def test_single_run_single_row():
    rows, traces = run_experiment(small_spec(), repeatable_timing=True)
    assert len(rows) == 1
    row = rows[0]
    assert row.scheme == "random"
    assert row.seed == 0
    assert row.wall_ms == 0.0
    assert row.objective == pytest.approx(
        row.mu * row.delay_seconds + (1 - row.mu) * row.energy_joules, rel=1e-9
    )
    assert traces == []


def test_sweep_cardinality_and_order():
    spec = small_spec(
        sweep_axis="capacity",
        sweep_values=(4.0e9, 8.0e9, 1.2e10),
        seeds=(0, 1),
        schemes=("random", "greedy_local"),
    )
    rows, _ = run_experiment(spec, repeatable_timing=True)
    assert len(rows) == 12
    # deterministic nesting: value, then seed, then scheme
    expected = [
        (c, s, sch)
        for c in (4.0e9, 8.0e9, 1.2e10)
        for s in (0, 1)
        for sch in ("random", "greedy_local")
    ]
    assert [(r.C_bits, r.seed, r.scheme) for r in rows] == expected
    assert len({r.run_id for r in rows}) == 12


def test_runner_is_deterministic():
    spec = small_spec(schemes=("random", "greedy_local", "improved_fa"))
    a, ta = run_experiment(spec, repeatable_timing=True)
    b, tb = run_experiment(spec, repeatable_timing=True)
    assert a == b
    assert ta == tb


def test_fa_runs_emit_traces():
    spec = small_spec(schemes=("improved_fa",))
    rows, traces = run_experiment(spec, repeatable_timing=True)
    assert len(rows) == 1
    assert len(traces) == rows[0].fa_iterations + 1
    assert traces[0].run_id == rows[0].run_id
    objs = [t.best_objective for t in traces]
    assert all(b <= a for a, b in zip(objs, objs[1:]))
    assert objs[-1] == pytest.approx(rows[0].objective, rel=1e-12)


def test_exhaustive_scheme_is_floor():
    spec = small_spec(schemes=("exhaustive", "improved_fa", "random"))
    rows, _ = run_experiment(spec, repeatable_timing=True)
    by_scheme = {r.scheme: r.objective for r in rows}
    assert by_scheme["exhaustive"] <= by_scheme["improved_fa"] + 1e-9
    assert by_scheme["exhaustive"] <= by_scheme["random"] + 1e-9


def test_clustering_modes_recorded():
    for mode, passes in (("singletons", 0), ("whole_set", 0)):
        spec = small_spec(clustering=mode)
        rows, _ = run_experiment(spec, repeatable_timing=True)
        assert rows[0].clustering == mode
        assert rows[0].hcg_passes == passes
    spec = small_spec(clustering="hcg")
    rows, _ = run_experiment(spec, repeatable_timing=True)
    assert rows[0].hcg_passes >= 1


# ---------------------------------------------------------------------------
# CSV output


def test_csv_header_and_roundtrip(tmp_path):
    spec = small_spec(schemes=("random", "improved_fa"))
    rows, traces = run_experiment(spec, repeatable_timing=True)
    out = tmp_path / "rows.csv"
    write_csv(rows, str(out))
    text = out.read_text()
    assert text.endswith("\n")
    header = text.splitlines()[0]
    assert header == (
        "run_id,seed,scheme,clustering,C_bits,eta,delta,mu,delay_seconds,"
        "energy_joules,objective,fa_iterations,hcg_passes,num_clusters,wall_ms"
    )
    with open(out, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == len(rows)
    for rec, row in zip(parsed, rows):
        assert rec["scheme"] == row.scheme
        assert float(rec["objective"]) == pytest.approx(row.objective, rel=1e-12)
        assert float(rec["delay_seconds"]) == pytest.approx(
            row.delay_seconds, rel=1e-12
        )


def test_csv_empty_rows_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    write_csv([], str(out))
    assert out.read_text().count("\n") == 1


def test_csv_single_row_two_lines(tmp_path):
    rows, _ = run_experiment(small_spec(), repeatable_timing=True)
    out = tmp_path / "one.csv"
    write_csv(rows, str(out))
    assert out.read_text().count("\n") == 2


def test_trace_csv(tmp_path):
    spec = small_spec(schemes=("improved_fa",))
    _, traces = run_experiment(spec, repeatable_timing=True)
    out = tmp_path / "trace.csv"
    write_trace_csv(traces, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "run_id,iteration,best_objective,best_delay,best_energy"
    assert len(lines) == len(traces) + 1


def test_write_csv_bad_path():
    rows, _ = run_experiment(small_spec(), repeatable_timing=True)
    with pytest.raises(OSError):
        write_csv(rows, "/nonexistent-dir/rows.csv")


# ---------------------------------------------------------------------------
# verification battery


def test_run_verification_all_green():
    checks = run_verification(small_spec())
    assert checks
    failed = [name for name, ok, _ in checks if not ok]
    assert failed == []


def first_cell(spec: ExperimentSpec):
    """(parameters, seed) of the first cell of a spec."""
    value = spec.sweep_values[0] if spec.sweep_axis != "none" else None
    return experiment._apply_axis(spec.system, spec.sweep_axis, value), spec.seeds[0]


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_partition_is_individually_stable(path):
    """The HCG partition of each shipped config's first cell is
    individually stable by the scalar reference rule."""
    spec = load_config(str(path))
    params, seed = first_cell(spec)
    scn, rates, hcg_res, part = experiment._build_cell(spec, params, seed)
    assert hcg_res.converged
    assert is_individually_stable(build_social_graph(scn, rates), part)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_evaluator_matches_request_sum(path):
    """On the scaled-down system of the verify battery (at most 4 F-APs,
    12 users and 8 contents, 2 slots, HCG partition), the evaluator
    equals the per-request reference on 5 placements of density 0.4."""
    spec = load_config(str(path))
    params, seed = first_cell(spec)
    small = experiment._scaled_down(params)
    scn, rates, _, part = experiment._build_cell(spec, small, seed)
    evaluator = PlacementEvaluator(scn, rates, part)
    rng = np.random.default_rng(derive_key(seed, 0x5E1F) & (2**63 - 1))
    for _ in range(5):
        x = (rng.random((small.num_faps, small.num_contents)) < 0.4).astype(np.uint8)
        res = evaluator.evaluate(x)
        delay, energy, objective = request_totals(scn, rates, x, part)
        assert res.delay == pytest.approx(delay, rel=1e-9)
        assert res.energy == pytest.approx(energy, rel=1e-9)
        assert res.objective == pytest.approx(objective, rel=1e-9)


# ---------------------------------------------------------------------------
# command line


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "small.yaml"
    path.write_text(SMALL_YAML)
    return path


def test_cli_run(config_file, tmp_path, capsys):
    out = tmp_path / "results.csv"
    code = main(
        ["run", str(config_file), "-o", str(out), "--repeatable"]
    )
    assert code == 0
    assert out.exists()
    text = out.read_text()
    assert len(text.splitlines()) == 3  # header + 2 schemes
    assert "improved_fa" in text


def test_cli_run_is_byte_identical(config_file, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert main(
            ["run", str(config_file), "-o", str(out), "--repeatable"]
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_overrides_change_system(config_file, tmp_path):
    out = tmp_path / "o.csv"
    code = main(
        [
            "run",
            str(config_file),
            "-o",
            str(out),
            "--repeatable",
            "--capacity-gb",
            "2",
            "--scheme",
            "greedy_local",
        ]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["scheme"] == "greedy_local"
    assert float(rows[0]["C_bits"]) == gb_to_bits(2.0)


def test_cli_sweep(config_file, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            str(config_file),
            "-o",
            str(out),
            "--repeatable",
            "--axis",
            "capacity",
            "--values",
            "4e9,8e9",
            "--scheme",
            "random",
        ]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {float(r["C_bits"]) for r in rows} == {4.0e9, 8.0e9}


def test_cli_sweep_other_axis_needs_values(tmp_path, capsys):
    """The configured sweep_values belong to the configured axis only."""
    path = tmp_path / "sweep.yaml"
    path.write_text(SMALL_YAML + "  sweep_axis: capacity\n"
                    "  sweep_values: [4.0e+9, 8.0e+9]\n")
    out = tmp_path / "sweep.csv"
    args = ["sweep", str(path), "-o", str(out), "--scheme", "random", "--axis"]
    assert main(args + ["zipf_eta"]) == 2
    assert "--axis zipf_eta requires --values" in capsys.readouterr().err
    assert not out.exists()
    assert main(args + ["capacity"]) == 0
    with open(out, newline="") as fh:
        assert [float(r["C_bits"]) for r in csv.DictReader(fh)] == [4.0e9, 8.0e9]


@pytest.mark.parametrize("axis, values, flag", [
    ("capacity", "4e9,8e9", ["--capacity-gb", "10"]),
    ("zipf_eta", "0.5,1.0", ["--eta", "0.9"]),
    ("social_delta", "0.5,1.0", ["--delta", "2"]),
], ids=["capacity", "zipf_eta", "social_delta"])
def test_cli_sweep_rejects_flag_for_swept_field(tmp_path, capsys, axis, values, flag):
    """Every cell sets the swept field, so a flag for it would be ignored."""
    path = tmp_path / "sweep.yaml"
    path.write_text(SMALL_YAML)
    out = tmp_path / "sweep.csv"
    args = ["sweep", str(path), "-o", str(out), "--scheme", "random",
            "--axis", axis, "--values", values]
    assert main(args + flag) == 2
    assert f"cannot take {flag[0]}" in capsys.readouterr().err
    assert not out.exists()
    # a flag for a field the sweep leaves alone still applies
    assert main(args + ["--mu", "0.5"]) == 0
    with open(out, newline="") as fh:
        assert [float(r["mu"]) for r in csv.DictReader(fh)] == [0.5, 0.5]


def test_cli_trace_output(config_file, tmp_path):
    out = tmp_path / "r.csv"
    trace = tmp_path / "t.csv"
    code = main(
        [
            "run",
            str(config_file),
            "-o",
            str(out),
            "--trace",
            str(trace),
            "--repeatable",
            "--scheme",
            "improved_fa",
        ]
    )
    assert code == 0
    assert trace.exists()
    assert len(trace.read_text().splitlines()) >= 2


def test_cli_verify(config_file, capsys):
    code = main(["verify", str(config_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_loads_and_verifies(path, capsys):
    load_config(str(path))
    assert main(["verify", str(path)]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_cli_verify_reports_failed_check(monkeypatch, capsys):
    real = experiment.run_hcg
    monkeypatch.setattr(
        experiment, "run_hcg", lambda *args: replace(real(*args), converged=False)
    )
    small = next(p for p in CONFIGS if p.name == "small.yaml")
    assert main(["verify", str(small)]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] clustering" in captured.out
    assert "1 of 4 checks failed" in captured.err


def test_cli_verify_reports_infeasible_scheme(monkeypatch, capsys):
    """An overfilled row trips the feasibility assert inside
    run_experiment; verify reports it as a failed check, not a crash."""
    real = experiment.greedy_local

    def overfull(scenario):
        x = real(scenario)
        x[0, :] = 1
        return x

    monkeypatch.setattr(experiment, "greedy_local", overfull)
    small = next(p for p in CONFIGS if p.name == "small.yaml")
    assert main(["verify", str(small)]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] optimizer" in captured.out
    assert "greedy_local produced an infeasible placement" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_cli_verify_checks_the_configured_clustering(monkeypatch, tmp_path, capsys):
    """A singletons config is verified on singletons: HCG never runs and
    no clustering check is printed."""

    def no_hcg(*args):
        raise AssertionError("run_hcg called for a singletons config")

    monkeypatch.setattr(experiment, "run_hcg", no_hcg)
    small = next(p for p in CONFIGS if p.name == "small.yaml")
    text = small.read_text()
    assert "clustering: hcg" in text
    path = tmp_path / "singletons.yaml"
    path.write_text(text.replace("clustering: hcg", "clustering: singletons"))
    assert main(["verify", str(path)]) == 0
    captured = capsys.readouterr()
    assert "] clustering" not in captured.out
    assert "all 3 checks passed" in captured.out


def test_cli_dump_social(config_file, tmp_path):
    out = tmp_path / "social.csv"
    code = main(["dump-social", str(config_file), "-o", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6  # ordered off-diagonal pairs of 3 F-APs
    mutual = {(r["m"], r["n"]): float(r["mutual"]) for r in rows}
    assert mutual[("0", "1")] == mutual[("1", "0")]
    assert ("0", "0") not in mutual


def test_cli_missing_config_fails(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.yaml")])
    assert code == 1
    assert "nope.yaml" in capsys.readouterr().err


def test_cli_bad_axis_rejected(config_file):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "sweep",
                str(config_file),
                "--axis",
                "fap_power",
                "--values",
                "1,2",
            ]
        )
    assert exc.value.code == 2


def test_cli_backend_flag_rejected(config_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(config_file), "--backend", "numpy"])
    assert exc.value.code == 2
    assert "--backend" in capsys.readouterr().err


def test_console_entry_point(config_file, tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from fogcache.cli import main; sys.exit(main(sys.argv[1:]))",
            "run",
            str(config_file),
            "-o",
            str(out),
            "--repeatable",
            "--scheme",
            "random",
        ],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
