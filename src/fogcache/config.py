"""YAML experiment configuration and unit conversions.

Config files mirror the dataclass fields one-to-one, in SI units:

.. code-block:: yaml

    system:
      num_faps: 15
      capacity: 4.0e11        # bits
    fa:
      population: 30
      max_iters: 200
    experiment:
      sweep_axis: capacity
      sweep_values: [8.0e10, 1.6e11]
      seeds: [0, 1]
      schemes: [random, improved_fa]
      clustering: hcg

Unknown keys are rejected so typos fail loudly.  Seeds come only from
``experiment.seeds``: every run derives its HCG and FA seeds from them.
The helpers at the bottom convert the field-measurement units (dBm,
GB, MB, MHz) used by the command-line flags into SI.
"""

from __future__ import annotations

import numbers
from dataclasses import fields
from typing import Any, Mapping, Optional

import yaml

from .experiment import ExperimentSpec
from .firefly import FaConfig
from .hcg import HcgConfig
from .scenario import SystemParams

__all__ = [
    "load_config",
    "parse_config",
    "dbm_to_watts",
    "gb_to_bits",
    "mb_to_bits",
    "mhz_to_hz",
]


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def gb_to_bits(gb: float) -> float:
    return gb * 8.0e9


def mb_to_bits(mb: float) -> float:
    return mb * 8.0e6


def mhz_to_hz(mhz: float) -> float:
    return mhz * 1.0e6


def _coerce(value):
    # YAML 1.1 reads "8.0e9" (no exponent sign) as a string; recover floats
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return value
    if isinstance(value, (list, tuple)):
        return [_coerce(v) for v in value]
    return value


def _build(cls, section: Mapping[str, Any], where: str):
    allowed = {f.name for f in fields(cls)}
    unknown = set(section) - allowed
    if unknown:
        raise ValueError(
            f"unknown key(s) {sorted(unknown)} in section '{where}'; "
            f"expected a subset of {sorted(allowed)}"
        )
    kwargs = {k: _coerce(v) for k, v in section.items()}
    if cls is SystemParams and isinstance(kwargs.get("fap_power"), list):
        kwargs["fap_power"] = tuple(kwargs["fap_power"])
    return cls(**kwargs)


_EXPERIMENT_KEYS = {f.name for f in fields(ExperimentSpec)} - {"system", "hcg", "fa"}


def parse_config(doc: Optional[Mapping[str, Any]]) -> ExperimentSpec:
    """Build an :class:`ExperimentSpec` from a parsed YAML document."""
    doc = dict(doc or {})
    known = {"system", "fa", "experiment"}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(
            f"unknown top-level section(s) {sorted(unknown)}; expected {sorted(known)}"
        )
    system = _build(SystemParams, doc.get("system") or {}, "system")
    fa_section = doc.get("fa") or {}
    if "seed" in fa_section:
        raise ValueError(
            "unknown key(s) ['seed'] in section 'fa'; every run derives its "
            "FA seed from experiment.seeds"
        )
    fa = _build(FaConfig, fa_section, "fa")

    exp = dict(doc.get("experiment") or {})
    unknown = set(exp) - _EXPERIMENT_KEYS
    if unknown:
        raise ValueError(
            f"unknown key(s) {sorted(unknown)} in section 'experiment'; "
            f"expected a subset of {sorted(_EXPERIMENT_KEYS)}"
        )
    for key in ("sweep_values", "seeds", "schemes"):
        value = exp.get(key)
        if value is None:
            continue
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"experiment.{key} must be a list, got {value!r}")
        if key == "sweep_values":
            value = [_coerce(v) for v in value]
            # a YAML bool is an int to Python; reject it like a bool seed
            if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                       for v in value):
                raise ValueError(f"experiment.sweep_values must be numbers: {value!r}")
            value = [float(v) for v in value]
        exp[key] = tuple(value)
    return ExperimentSpec(system=system, hcg=HcgConfig(), fa=fa, **exp)


def load_config(path: str) -> ExperimentSpec:
    """Read and validate a YAML experiment configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ValueError(f"malformed YAML in {path}: {exc}") from exc
    if doc is not None and not isinstance(doc, Mapping):
        raise ValueError(f"config file {path} must hold a mapping at top level")
    return parse_config(doc)
