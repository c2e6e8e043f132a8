"""The small model, bare hardware and 3-choice space that unit tests share,
and the readers of a layer plan's collectives."""

import itertools

from shardsearch.layout import PlanStep
from shardsearch.model import HardwareSpec, ModelSpec
from shardsearch.strategy import ActionSpaceSpec


def small_model(**overrides):
    base = dict(
        name="unit",
        num_layers=4,
        hidden_dim=256,
        num_heads=8,
        head_dim=32,
        num_kv_heads=4,
        ffn_dim=128,
        num_experts=8,
        experts_per_token=2,
        has_shared_expert=True,
        vocab_size=4096,
        dtype_bytes=2,
    )
    base.update(overrides)
    return ModelSpec(**base)


def small_hw(**overrides):
    base = dict(
        name="bare",
        peak_flops=1e15,
        hbm_bandwidth=3e12,
        hbm_capacity=8e10,
        intra_node_bw=9e11,
        inter_node_bw=5e10,
        node_size=8,
        device_budget=64,
        kernel_overhead=0.0,
        per_collective_latency=0.0,
    )
    base.update(overrides)
    return HardwareSpec(**base)


def small_space():
    return ActionSpaceSpec(
        tp_domain=(1, 2, 4),
        ep_domain=(1, 2, 4),
        pp_domain=(1, 2, 4),
        batch_domain=(1, 4, 16),
    )


def trailing(plan):
    """The collectives after the last step of ``plan``."""
    after = itertools.takewhile(lambda entry: not isinstance(entry, PlanStep), reversed(plan))
    return tuple(after)[::-1]


def feeding(plan, op_name):
    """The collectives just before ``op_name``'s step in ``plan``."""
    at = next(
        i for i, entry in enumerate(plan)
        if isinstance(entry, PlanStep) and entry.op.name == op_name
    )
    return trailing(plan[:at])
