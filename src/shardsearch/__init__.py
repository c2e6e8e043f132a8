"""Search for fast sharding strategies of MoE transformer decode inference.

The package couples a roofline performance simulator with several search
algorithms over a joint space of coarse parallelism degrees and per-operator
shard axes. See the README for the command-line entry points.
"""

from .env import EvalRecord, RewardConfig, SearchEnv
from .model import HardwareSpec, ModelSpec
from .policy import EliteBuffer, PolicyNetwork, build_observation
from .simulator import SimRequest, SimResult, simulate
from .strategy import (
    ActionSpaceSpec,
    AxisChoice,
    FusedOpDescriptor,
    Strategy,
    canonical_fused_ops,
    count_parameters,
    decode_strategy,
    encode_strategy,
    megatron_fine_dims,
)

__all__ = [
    "ActionSpaceSpec",
    "AxisChoice",
    "EliteBuffer",
    "EvalRecord",
    "FusedOpDescriptor",
    "HardwareSpec",
    "ModelSpec",
    "PolicyNetwork",
    "RewardConfig",
    "SearchEnv",
    "SimRequest",
    "SimResult",
    "Strategy",
    "build_observation",
    "canonical_fused_ops",
    "count_parameters",
    "decode_strategy",
    "encode_strategy",
    "megatron_fine_dims",
    "simulate",
]

__version__ = "0.1.0"
