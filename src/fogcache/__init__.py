"""Seeded simulator and optimizer for social-aware cooperative caching
at the network edge.

The pipeline: sample a scenario (geometry plus Zipf demand), derive
link rates, weigh the social ties between F-APs, cluster them through
a coalition game, then search for a cache placement minimizing a
delay/energy blend with a binary firefly algorithm, judged against
random, greedy, and exhaustive references.
"""

from ._kernels import get_backend
from .baselines import SCHEMES, exhaustive_optimal, greedy_local, random_caching
from .cache import (
    EvalResult,
    Partition,
    PlacementEvaluator,
    caching_energy,
    capacity_slots,
    feasible,
    new_placement,
)
from .config import dbm_to_watts, gb_to_bits, load_config, mb_to_bits, mhz_to_hz
from .experiment import (
    ExperimentSpec,
    ResultRow,
    TraceRow,
    run_experiment,
    run_verification,
    write_csv,
    write_trace_csv,
)
from .firefly import (
    FaConfig,
    FaResult,
    brightness_normalize,
    run_fa,
)
from .hcg import (
    HcgConfig,
    HcgResult,
    initial_partition,
    run_hcg,
)
from .radio import LinkRateTable, build_rate_table
from .scenario import (
    Scenario,
    SystemParams,
    generate_scenario,
    zipf_distribution,
)
from .social import (
    SocialGraph,
    build_social_graph,
)

__version__ = "0.1.0"

__all__ = [
    "get_backend",
    "SCHEMES",
    "exhaustive_optimal",
    "greedy_local",
    "random_caching",
    "EvalResult",
    "Partition",
    "PlacementEvaluator",
    "caching_energy",
    "capacity_slots",
    "feasible",
    "new_placement",
    "dbm_to_watts",
    "gb_to_bits",
    "load_config",
    "mb_to_bits",
    "mhz_to_hz",
    "ExperimentSpec",
    "ResultRow",
    "TraceRow",
    "run_experiment",
    "run_verification",
    "write_csv",
    "write_trace_csv",
    "FaConfig",
    "FaResult",
    "brightness_normalize",
    "run_fa",
    "HcgConfig",
    "HcgResult",
    "initial_partition",
    "run_hcg",
    "LinkRateTable",
    "build_rate_table",
    "Scenario",
    "SystemParams",
    "generate_scenario",
    "zipf_distribution",
    "SocialGraph",
    "build_social_graph",
    "__version__",
]
