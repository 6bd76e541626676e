"""Capacity and coding strategies for the packet-reordering secondary channel.

The public API is `__all__`; every other name lives in its module.
"""

from .capacity import (
    OracleTooLarge,
    blahut_arimoto,
    c_xy,
    errorless_capacity,
    mutual_info_TY,
    oracle_capacity,
    outer_bound,
    secondary_capacity,
    single_use_mutual_info,
    sweep_point,
    z_fixed_input_capacity,
    z_point_capacity,
)
from .channel import (
    BinaryInputChannel,
    binary_entropy,
    channel_preset,
    entropy_bits,
    row_entropy,
)
from .frame_space import (
    FrameConfig,
    enumerate_weight_class,
    likelihood_rows,
    state_pmf,
    symbol_string,
    weight,
)
from .multisymbol import Multisymbol
from .simulate import run_monte_carlo
from .strategy import (
    StrategySet,
    build_weighted_graph,
    decompose_paths,
    induced_input_pmf,
    lcm_binomials,
    representative_multiplicity,
)

__all__ = [
    "BinaryInputChannel",
    "FrameConfig",
    "Multisymbol",
    "OracleTooLarge",
    "StrategySet",
    "binary_entropy",
    "blahut_arimoto",
    "build_weighted_graph",
    "c_xy",
    "channel_preset",
    "decompose_paths",
    "entropy_bits",
    "enumerate_weight_class",
    "errorless_capacity",
    "induced_input_pmf",
    "lcm_binomials",
    "likelihood_rows",
    "mutual_info_TY",
    "oracle_capacity",
    "outer_bound",
    "representative_multiplicity",
    "row_entropy",
    "run_monte_carlo",
    "secondary_capacity",
    "single_use_mutual_info",
    "state_pmf",
    "sweep_point",
    "symbol_string",
    "weight",
    "z_fixed_input_capacity",
    "z_point_capacity",
]
