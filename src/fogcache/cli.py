"""Command-line entry point.

Subcommands:

* ``run``: execute the configured schemes at the base design point.
* ``sweep``: execute them across the configured sweep axis.
* ``verify``: run the invariant battery and report pass/fail.
* ``dump-social``: export the social graph layers for one scenario.

Results are CSV; pass ``--repeatable`` to zero the wall-clock column so
identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

import numpy as np

from .baselines import SCHEMES
from .config import dbm_to_watts, gb_to_bits, load_config, mb_to_bits, mhz_to_hz
from .experiment import (
    CLUSTERINGS,
    SWEEP_AXES,
    ExperimentSpec,
    run_experiment,
    run_verification,
    write_csv,
    write_trace_csv,
)
from .radio import build_rate_table
from .scenario import generate_scenario
from .social import build_social_graph

__all__ = ["main", "build_parser"]

# system override flags: (flag, help, SystemParams fields set, conversion to SI)
_SYSTEM_FLAGS = (
    ("--capacity-gb", "override cache capacity, in gigabytes", ("capacity",), gb_to_bits),
    ("--content-mb", "override content size, in megabytes", ("content_size",), mb_to_bits),
    ("--bandwidth-mhz", "override both link bandwidths, in MHz",
     ("bw_access", "bw_coop"), mhz_to_hz),
    ("--power-dbm", "override F-AP transmit power, in dBm", ("fap_power",), dbm_to_watts),
    ("--eta", "override the Zipf exponent", ("zipf_eta",), float),
    ("--delta", "override the social loss weight", ("social_delta",), float),
    ("--mu", "override the delay/energy mix weight", ("weight",), float),
)


def _flag_value(args: argparse.Namespace, flag: str):
    return getattr(args, flag[2:].replace("-", "_"))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("config", help="YAML experiment configuration")
    p.add_argument("-o", "--output", default="results.csv",
                   help="result CSV path (default: %(default)s)")
    p.add_argument("--trace", default=None,
                   help="also write per-iteration optimizer traces here")
    p.add_argument("--repeatable", action="store_true",
                   help="zero the wall-clock column for byte-stable output")
    p.add_argument("--quiet", action="store_true", help="suppress the summary")
    for flag, text, _, _ in _SYSTEM_FLAGS:
        p.add_argument(flag, type=float, default=None, help=text)
    p.add_argument("--seed", type=int, nargs="+", default=None,
                   help="override the seed list")
    p.add_argument("--scheme", nargs="+", choices=SCHEMES, default=None,
                   help="override the scheme list")
    p.add_argument("--clustering", choices=CLUSTERINGS, default=None,
                   help="override the clustering mode")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fogcache",
        description="Cooperative edge-caching simulator and optimizer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the base design point")
    _add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="run the configured sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", choices=SWEEP_AXES[1:], default=None,
                         help="override the sweep axis")
    p_sweep.add_argument("--values", default=None,
                         help="override sweep values, comma-separated SI floats")

    p_verify = sub.add_parser("verify", help="run the invariant battery")
    p_verify.add_argument("config", help="YAML experiment configuration")

    p_dump = sub.add_parser("dump-social", help="export social graph layers")
    p_dump.add_argument("config", help="YAML experiment configuration")
    p_dump.add_argument("-o", "--output", default="social.csv")
    p_dump.add_argument("--seed", type=int, default=None,
                        help="scenario seed (default: first configured seed)")
    return parser


def _apply_overrides(spec: ExperimentSpec, args: argparse.Namespace) -> ExperimentSpec:
    system = spec.system
    for flag, _, names, to_si in _SYSTEM_FLAGS:
        value = _flag_value(args, flag)
        if value is not None:
            system = replace(system, **dict.fromkeys(names, to_si(value)))
    spec = replace(spec, system=system)
    if args.seed is not None:
        spec = replace(spec, seeds=tuple(args.seed))
    if args.scheme is not None:
        spec = replace(spec, schemes=tuple(args.scheme))
    if args.clustering is not None:
        spec = replace(spec, clustering=args.clustering)
    return spec


def _summarize(rows, path: str) -> None:
    print(f"wrote {len(rows)} rows to {path}")
    for scheme in sorted({r.scheme for r in rows}):
        objs = [r.objective for r in rows if r.scheme == scheme]
        delays = [r.delay_seconds for r in rows if r.scheme == scheme]
        print(
            f"  {scheme}: mean objective {np.mean(objs):.6g}, "
            f"mean delay {np.mean(delays):.6g} s over {len(objs)} runs"
        )


def _cmd_run(args: argparse.Namespace, sweep: bool) -> int:
    spec = _apply_overrides(load_config(args.config), args)
    if sweep:
        axis = args.axis if args.axis is not None else spec.sweep_axis
        for flag, _, names, _ in _SYSTEM_FLAGS:
            if axis in names and _flag_value(args, flag) is not None:
                print(f"sweep over {axis} cannot take {flag}: the sweep sets {axis}",
                      file=sys.stderr)
                return 2
        if args.values is not None:
            vals = tuple(float(v) for v in args.values.split(","))
        elif axis != spec.sweep_axis:
            print(f"sweep --axis {axis} requires --values", file=sys.stderr)
            return 2
        else:
            vals = spec.sweep_values
        if axis == "none":
            print("sweep requires a sweep_axis (config or --axis)", file=sys.stderr)
            return 2
        if not vals:
            print("sweep requires sweep_values (config or --values)", file=sys.stderr)
            return 2
        spec = replace(spec, sweep_axis=axis, sweep_values=vals)
    else:
        spec = replace(spec, sweep_axis="none", sweep_values=())
    rows, traces = run_experiment(spec, repeatable_timing=args.repeatable)
    write_csv(rows, args.output)
    if args.trace is not None:
        write_trace_csv(traces, args.trace)
    if not args.quiet:
        _summarize(rows, args.output)
        if args.trace is not None:
            print(f"wrote {len(traces)} trace rows to {args.trace}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = load_config(args.config)
    checks = run_verification(spec)
    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
        failed += 0 if ok else 1
    if failed:
        print(f"{failed} of {len(checks)} checks failed", file=sys.stderr)
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


def _cmd_dump_social(args: argparse.Namespace) -> int:
    spec = load_config(args.config)
    seed = args.seed if args.seed is not None else spec.seeds[0]
    scenario = generate_scenario(spec.system, seed)
    rates = build_rate_table(scenario)
    graph = build_social_graph(scenario, rates)
    try:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write("m,n,mutual,contact,similarity,gain,loss,relation\n")
            for m in range(graph.num_faps):
                for n in range(graph.num_faps):
                    if m == n:
                        continue
                    cells = (
                        graph.mutual[m, n], graph.contact[m, n],
                        graph.similarity[m, n], graph.gain[m, n],
                        graph.loss[m, n], graph.relation[m, n],
                    )
                    body = ",".join(repr(float(c)) for c in cells)
                    fh.write(f"{m},{n},{body}\n")
    except OSError as exc:
        raise OSError(f"cannot write social graph to {args.output}: {exc}") from exc
    print(f"wrote social graph for seed {seed} to {args.output}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args, sweep=False)
        if args.command == "sweep":
            return _cmd_run(args, sweep=True)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "dump-social":
            return _cmd_dump_social(args)
    except (ValueError, OSError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
