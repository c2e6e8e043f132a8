"""Each correctness check accepts good output and rejects a corrupted one."""

import json

import pytest

import checks

LIMITS = checks.Limits(slo_tpot=0.05, hbm_capacity=1e7, device_budget=16)
TINY_BEST_VECTOR = (1, 0, 2, 2, 1, 2, 2, 2)


def _record(index=0, raw=800.0, valid=True, reason="none"):
    return {"index": index, "vector": [1, 0, 2, 2], "raw": raw, "reward": raw,
            "valid": valid, "reason": reason}


def _outcome(**changes):
    # pp=1, two devices, 16 tokens in 10 ms: 16 / 0.01 / 2 = 800 tokens/s/chip.
    out = {"valid": True, "reason": "none", "throughput": 800.0, "tpot_s": 0.01,
           "memory_bytes": 5e6, "compute_s": 0.006, "comm_s": 0.004, "pipeline_s": 0.0,
           "world_size": 2, "pp": 1, "batch": 16}
    out.update(changes)
    return out


def test_log_length_accepts_exact_budget():
    checks.check_log_length([_record(i) for i in range(50)], 50)


@pytest.mark.parametrize(
    "records",
    [
        [_record(i) for i in range(49)],
        # A second run appended to the same log: 100 lines for 50 evals.
        [_record(i) for i in range(50)] * 2,
        [_record(i) for i in range(49)] + [_record(7)],
    ],
)
def test_log_length_rejects_short_doubled_or_misindexed_logs(records):
    with pytest.raises(checks.CheckFailed):
        checks.check_log_length(records, 50)


def test_valid_outcome_accepts_a_consistent_result():
    checks.check_valid_outcome(_record(), _outcome(), LIMITS)


def test_valid_outcome_holds_for_a_simulated_tiny_strategy():
    from shardsearch.config import load_config, packaged_config_path
    from shardsearch.strategy import decode_strategy

    import workload

    cfg = load_config(packaged_config_path("tiny"))
    out = workload.sim_outcome(cfg, decode_strategy(TINY_BEST_VECTOR, cfg.space))
    assert out["valid"]
    record = _record(raw=out["throughput"])
    limits = checks.Limits(cfg.simulation.slo_tpot, cfg.hardware.hbm_capacity,
                           cfg.hardware.device_budget)
    checks.check_valid_outcome(record, out, limits)
    checks.check_replay(record, out)


@pytest.mark.parametrize(
    "record, outcome",
    [
        (_record(raw=float("nan")), _outcome()),
        (_record(raw=0.0), _outcome()),
        (_record(), _outcome(tpot_s=0.06, compute_s=0.056)),
        (_record(), _outcome(memory_bytes=2e7)),
        (_record(), _outcome(world_size=32)),
        (_record(), _outcome(comm_s=0.005)),
        (_record(), _outcome(throughput=790.0)),
    ],
    ids=["nan-raw", "zero-raw", "over-slo", "oom", "over-budget", "breakdown", "pp1-identity"],
)
def test_valid_outcome_rejects_each_broken_property(record, outcome):
    with pytest.raises(checks.CheckFailed):
        checks.check_valid_outcome(record, outcome, LIMITS)


def test_replay_accepts_matching_and_rejects_changed_records():
    checks.check_replay(_record(), _outcome())
    checks.check_replay(_record(raw=0.0, valid=False, reason="oom"),
                        _outcome(valid=False, reason="oom", throughput=0.0))
    for bad in (_record(raw=800.5), _record(raw=0.0, valid=False, reason="oom")):
        with pytest.raises(checks.CheckFailed):
            checks.check_replay(bad, _outcome())


def test_seed_best_must_be_the_log_maximum():
    records = [_record(0, 10.0), _record(1, 0.0, False, "oom"), _record(2, 30.0)]
    assert checks.best_of_log(records) == 30.0
    assert checks.best_of_log([_record(0, 0.0, False, "oom")]) == 0.0
    checks.check_seed_best(30.0, checks.best_of_log(records))
    with pytest.raises(checks.CheckFailed):
        checks.check_seed_best(10.0, checks.best_of_log(records))


def test_report_mean_must_match_the_logs():
    checks.check_report_mean(20.0, [10.0, 30.0])
    with pytest.raises(checks.CheckFailed):
        checks.check_report_mean(20.001, [10.0, 30.0])


def test_megatron_reference_must_match_the_own_walk():
    checks.check_megatron(49.1, 49.1)
    with pytest.raises(checks.CheckFailed):
        checks.check_megatron(49.1, 48.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_megatron(0.0, 0.0)


def test_no_best_may_exceed_the_oracle():
    checks.check_oracle([100.0, 99.0], 100.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_oracle([100.0, 100.5], 100.0)


def test_a_repeated_seed_must_write_the_same_log():
    log = "\n".join(json.dumps(_record(i)) for i in range(3)).encode()
    checks.check_repeat(log, log)
    with pytest.raises(checks.CheckFailed):
        checks.check_repeat(log, log.replace(b"800.0", b"800.5", 1))
