"""End-to-end CLI behavior: exit codes, run directories, report tables."""

import csv
import json
import shutil
import subprocess
import sys

import pytest
import yaml

from shardsearch.cli import CONFIG_ENV_VAR, main
from shardsearch.config import load_config, packaged_config_path
from shardsearch.env import load_eval_log
from shardsearch.simulator import SimRequest, simulate
from shardsearch.strategy import (
    AxisChoice,
    Strategy,
    canonical_fused_ops,
    megatron_fine_dims,
)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tiny_strategy(tp, ep, pp, batch, dims=None, megatron=False):
    cfg = load_config(packaged_config_path("tiny"))
    if megatron:
        ops = canonical_fused_ops(cfg.model)
        by_name = dict(zip((op.name for op in ops), megatron_fine_dims(ops)))
        op_dims = tuple(by_name[name] for name in cfg.space.op_names)
    else:
        chosen = dict.fromkeys(cfg.space.op_names, AxisChoice.UNSHARDED)
        chosen.update(dims or {})
        op_dims = tuple(chosen[name] for name in cfg.space.op_names)
    strategy = Strategy(
        tp=tp,
        ep=ep,
        pp=pp,
        batch=batch,
        op_names=cfg.space.op_names,
        op_dims=op_dims,
        pinned_dims=cfg.space.pinned,
    )
    return cfg, strategy


class TestSimulate:
    def test_json_output_matches_direct_library_call_exactly(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--config", "tiny", "--tp", "2", "--ep", "1",
             "--pp", "4", "--batch", "16", "--megatron", "--json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        cfg, strategy = tiny_strategy(2, 1, 4, 16, megatron=True)
        result = simulate(
            SimRequest(
                model=cfg.model,
                hw=cfg.hardware,
                strategy=strategy,
                context_len=cfg.simulation.context_len,
                slo_tpot=cfg.simulation.slo_tpot,
            )
        )
        assert payload["valid"] is True
        assert payload["throughput"] == result.throughput
        assert payload["tpot_s"] == result.tpot_s
        assert payload["memory_bytes"] == result.memory_bytes
        assert payload["compute_s"] == result.breakdown.compute_s
        assert payload["comm_s"] == result.breakdown.comm_s
        assert payload["pipeline_s"] == result.breakdown.pipeline_s

    def test_dims_flags_control_named_ops(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--config", "tiny", "--tp", "2", "--ep", "1",
             "--pp", "4", "--batch", "16", "--dims", "expert_ffn1=dim1",
             "--dims", "expert_ffn2=dim0", "--json"],
            capsys,
        )
        assert code == 0
        cfg, strategy = tiny_strategy(
            2, 1, 4, 16,
            dims={"expert_ffn1": AxisChoice.DIM1, "expert_ffn2": AxisChoice.DIM0},
        )
        result = simulate(
            SimRequest(
                model=cfg.model,
                hw=cfg.hardware,
                strategy=strategy,
                context_len=cfg.simulation.context_len,
                slo_tpot=cfg.simulation.slo_tpot,
            )
        )
        assert json.loads(out)["throughput"] == result.throughput

    def test_out_of_domain_degree_lists_allowed_values(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--config", "tiny", "--tp", "3", "--ep", "1",
             "--pp", "1", "--batch", "16"],
            capsys,
        )
        assert code == 1
        assert "allowed: 1, 2, 4" in err

    def test_invalid_strategy_exits_2_with_reason(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--config", "tiny", "--tp", "4", "--ep", "4",
             "--pp", "4", "--batch", "16"],
            capsys,
        )
        assert code == 2
        assert "valid: no (over_device_budget" in out

    def test_unknown_config_key_is_named(self, tmp_path, capsys):
        text = packaged_config_path("tiny").read_text(encoding="utf-8")
        bad = tmp_path / "bad.yaml"
        bad.write_text(text + "\nextra_section: {}\n", encoding="utf-8")
        code, _, err = run_cli(
            ["simulate", "--config", str(bad), "--tp", "1", "--ep", "1",
             "--pp", "1", "--batch", "1"],
            capsys,
        )
        assert code == 1
        assert "extra_section" in err

    def test_dims_rejects_unknown_operator(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--config", "tiny", "--tp", "1", "--ep", "1",
             "--pp", "1", "--batch", "1", "--dims", "mystery=dim0"],
            capsys,
        )
        assert code == 1
        assert "mystery" in err and "qkv_proj" in err

    def test_dims_rejects_unknown_axis(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--config", "tiny", "--tp", "1", "--ep", "1",
             "--pp", "1", "--batch", "1", "--dims", "qkv_proj=dim2"],
            capsys,
        )
        assert code == 1
        assert "dim2" in err

    def test_megatron_and_dims_are_mutually_exclusive(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--config", "tiny", "--tp", "1", "--ep", "1",
             "--pp", "1", "--batch", "1", "--megatron", "--dims", "qkv_proj=dim1"],
            capsys,
        )
        assert code == 1
        assert "not allowed with" in err

    def test_explain_prints_per_op_trace(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--config", "tiny", "--tp", "2", "--ep", "1",
             "--pp", "4", "--batch", "16", "--megatron", "--explain"],
            capsys,
        )
        assert code == 0
        assert "per-layer plan:" in out
        assert "qkv_proj" in out

    def test_context_override_changes_kv_footprint(self, capsys):
        base = ["simulate", "--config", "tiny", "--tp", "1", "--ep", "1",
                "--pp", "1", "--batch", "16", "--json"]
        _, out_short, _ = run_cli(base + ["--context", "64"], capsys)
        _, out_long, _ = run_cli(base + ["--context", "4096"], capsys)
        short_mem = json.loads(out_short)["memory_bytes"]
        long_mem = json.loads(out_long)["memory_bytes"]
        assert long_mem > short_mem

    def test_config_env_var_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv(CONFIG_ENV_VAR, "tiny")
        code, out, _ = run_cli(
            ["simulate", "--tp", "2", "--ep", "1", "--pp", "4", "--batch", "1"],
            capsys,
        )
        assert code == 0
        assert "valid: yes" in out

    def test_missing_config_is_a_tool_error(self, capsys, monkeypatch):
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        code, _, err = run_cli(
            ["simulate", "--tp", "1", "--ep", "1", "--pp", "1", "--batch", "1"],
            capsys,
        )
        assert code == 1
        assert "no config given" in err


class TestSearch:
    def test_rw_writes_one_log_per_seed(self, tmp_path, capsys):
        out_dir = tmp_path / "rw"
        code, out, _ = run_cli(
            ["search", "--config", "tiny", "--algo", "rw", "--budget", "30",
             "--seeds", "2", "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        for seed in (0, 1):
            records = load_eval_log(out_dir / f"seed_{seed}" / "evals.ndjson")
            assert len(records) == 30
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["algorithm"] == "rw"
        assert summary["runs"] == 2
        assert (out_dir / "config.yaml").read_text() == packaged_config_path(
            "tiny"
        ).read_text()
        assert "mean best raw" in out

    def test_same_seed_gives_byte_identical_logs(self, tmp_path, capsys):
        logs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _, _ = run_cli(
                ["search", "--config", "tiny", "--algo", "sa", "--budget", "40",
                 "--seeds", "1", "--seed0", "7", "--out", str(out_dir)],
                capsys,
            )
            assert code == 0
            logs.append((out_dir / "seed_7" / "evals.ndjson").read_bytes())
        assert logs[0] == logs[1]

    def test_ppo_spends_budget_exactly(self, tmp_path, capsys):
        out_dir = tmp_path / "ppo"
        code, _, _ = run_cli(
            ["search", "--config", "tiny", "--algo", "ppo", "--budget", "20",
             "--seeds", "1", "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        assert len(load_eval_log(out_dir / "seed_0" / "evals.ndjson")) == 20

    def test_ppo_budget_must_split_into_chunks(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["search", "--config", "tiny", "--algo", "ppo", "--budget", "7",
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 1
        assert "must divide ppo.budget" in err
        assert not (tmp_path / "x").exists()

    def test_negative_seed0_is_named_and_makes_no_run_directory(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["search", "--config", "tiny", "--algo", "rw", "--budget", "10",
             "--seed0", "-1", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 1
        assert "--seed0" in err
        assert not (tmp_path / "x").exists()

    def test_exhaustive_ignores_budget_and_seeds_with_warning(self, tmp_path, capsys):
        out_dir = tmp_path / "ex"
        code, _, err = run_cli(
            ["search", "--config", "tiny", "--algo", "exhaustive",
             "--budget", "7", "--seeds", "3", "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        assert "ignoring --budget and --seeds" in err
        records = load_eval_log(out_dir / "grid" / "evals.ndjson")
        assert len(records) == 81  # 3 tp * 3 ep * 3 pp * 3 batch
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["budget"] == 81
        assert summary["runs"] == 1

    def test_exhaustive_names_an_ignored_seed0(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["search", "--config", "tiny", "--algo", "exhaustive", "--seed0", "5",
             "--out", str(tmp_path / "ex")],
            capsys,
        )
        assert code == 0
        assert "ignoring --seed0" in err

    def test_refuses_to_overwrite_finished_run(self, tmp_path, capsys):
        out_dir = tmp_path / "once"
        args = ["search", "--config", "tiny", "--algo", "rw", "--budget", "5",
                "--out", str(out_dir)]
        assert run_cli(args, capsys)[0] == 0
        code, _, err = run_cli(args, capsys)
        assert code == 1
        assert "refusing" in err

    def test_rerun_into_unfinished_directory_refused(self, tmp_path, capsys):
        # A crash leaves logs but no summary.json; a second search must not
        # write into that directory, whether or not its seeds' logs would
        # collide with the first run's.
        out_dir = tmp_path / "rw"
        args = ["search", "--config", "tiny", "--algo", "rw", "--budget", "50",
                "--out", str(out_dir)]
        assert run_cli(args, capsys)[0] == 0
        log = out_dir / "seed_0" / "evals.ndjson"
        first = log.read_bytes()
        (out_dir / "summary.json").unlink()
        for seed0 in ("0", "7"):
            code, _, err = run_cli(args + ["--seed0", seed0], capsys)
            assert code == 1
            assert f"refusing to write into {out_dir}" in err
        assert sorted(p.name for p in out_dir.iterdir()) == ["config.yaml", "seed_0"]
        assert log.read_bytes() == first
        assert len(load_eval_log(log)) == 50

    def test_an_empty_out_directory_is_used(self, tmp_path, capsys):
        out_dir = tmp_path / "rw"
        out_dir.mkdir()
        args = ["search", "--config", "tiny", "--algo", "rw", "--budget", "5",
                "--out", str(out_dir)]
        assert run_cli(args, capsys)[0] == 0
        assert (out_dir / "summary.json").is_file()

    def test_default_ops_follow_a_model_without_shared_expert(self, tmp_path, capsys):
        doc = yaml.safe_load(packaged_config_path("tiny").read_text(encoding="utf-8"))
        del doc["action_space"]["ops"]
        config = tmp_path / "no_ops.yaml"
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        out_dir = tmp_path / "ppo"
        code, _, err = run_cli(
            ["search", "--config", str(config), "--algo", "ppo", "--budget", "10",
             "--out", str(out_dir)],
            capsys,
        )
        assert code == 0, err
        assert len(load_eval_log(out_dir / "seed_0" / "evals.ndjson")) == 10

    def test_seed_without_valid_record_has_null_best_vector(self, tmp_path, capsys):
        doc = yaml.safe_load(packaged_config_path("tiny").read_text(encoding="utf-8"))
        doc["hardware"]["hbm_capacity"] = 1.0
        config = tmp_path / "no_room.yaml"
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        out_dir = tmp_path / "rw"
        code, _, _ = run_cli(
            ["search", "--config", str(config), "--algo", "rw", "--budget", "5",
             "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["per_seed"][0]["best_raw"] == 0.0
        assert summary["per_seed"][0]["best_vector"] is None

    def test_summary_is_recomputable_from_the_logs(self, tmp_path, capsys):
        out_dir = tmp_path / "rw"
        run_cli(
            ["search", "--config", "tiny", "--algo", "rw", "--budget", "25",
             "--seeds", "3", "--out", str(out_dir)],
            capsys,
        )
        summary = json.loads((out_dir / "summary.json").read_text())
        bests = []
        for row in summary["per_seed"]:
            records = load_eval_log(out_dir / f"seed_{row['seed']}" / "evals.ndjson")
            best = max((r.raw for r in records if r.valid), default=0.0)
            assert row["best_raw"] == best
            bests.append(best)
        assert summary["mean_best_raw"] == pytest.approx(sum(bests) / len(bests))
        assert summary["best_of_k_raw"] == max(bests)


def make_run(tmp_path, capsys, algo, name, budget="30", seeds="2"):
    out_dir = tmp_path / name
    args = ["search", "--config", "tiny", "--algo", algo, "--out", str(out_dir)]
    if algo != "exhaustive":
        args += ["--budget", budget, "--seeds", seeds]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    return out_dir


class TestOneBest:
    """summary.json and the eval log name the same best record, and
    report.json holds only what no other file does."""

    @pytest.mark.parametrize("algo", ["ppo", "sa", "rw"])
    def test_every_run_file_names_the_log_best(self, tmp_path, capsys, algo):
        out_dir = make_run(tmp_path, capsys, algo, algo, budget="100", seeds="2")
        summary = json.loads((out_dir / "summary.json").read_text())
        assert [row["seed"] for row in summary["per_seed"]] == [0, 1]
        for row in summary["per_seed"]:
            seed_dir = out_dir / f"seed_{row['seed']}"
            report = json.loads((seed_dir / "report.json").read_text())
            assert sorted(report) == ["restarts", "wall_clock_s"]
            records = load_eval_log(seed_dir / "evals.ndjson")
            best = max((r for r in records if r.valid), key=lambda r: r.raw)  # earliest on ties
            assert row["best_raw"] == best.raw
            assert row["best_vector"] == list(best.vector)
            assert row["evals"] == len(records) == 100

    def test_report_reads_report_json_with_the_old_fields(self, tmp_path, capsys):
        # report.json used to carry the best record by reward and copies of
        # the log's reward and raw arrays; report reads no report.json.
        out_dir = make_run(tmp_path, capsys, "ppo", "ppo", budget="100", seeds="2")
        assert run_cli(["report", str(out_dir), "--out", str(tmp_path / "new")], capsys)[0] == 0
        for seed_dir in out_dir.glob("seed_*"):
            path = seed_dir / "report.json"
            report = json.loads(path.read_text())
            records = load_eval_log(seed_dir / "evals.ndjson")
            by_reward = max(records, key=lambda r: r.reward)
            report.update(
                best_vector=list(by_reward.vector),
                best_raw=by_reward.raw,
                best_reward=by_reward.reward,
                best_valid=by_reward.valid,
                rewards=[r.reward for r in records],
                raws=[r.raw for r in records],
            )
            path.write_text(json.dumps(report) + "\n")
        assert run_cli(["report", str(out_dir), "--out", str(tmp_path / "old")], capsys)[0] == 0
        for name in ("table.csv", "curves.csv"):
            assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()


class TestReport:
    def test_single_directory_renders_one_row(self, tmp_path, capsys):
        rw = make_run(tmp_path, capsys, "rw", "rw")
        code, out, _ = run_cli(["report", str(rw)], capsys)
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 2  # header + one row
        assert "tiny-moe@128" in lines[1]
        assert lines[1].split()[1] == "rw"

    def test_normalization_and_ratio_columns(self, tmp_path, capsys):
        rw = make_run(tmp_path, capsys, "rw", "rw")
        sa = make_run(tmp_path, capsys, "sa", "sa")
        ex = make_run(tmp_path, capsys, "exhaustive", "ex")
        rpt = tmp_path / "rpt"
        code, out, _ = run_cli(
            ["report", str(rw), str(sa), str(ex), "--out", str(rpt)], capsys
        )
        assert code == 0
        with open(rpt / "table.csv", newline="") as fh:
            rows = {row["algorithm"]: row for row in csv.DictReader(fh)}
        assert set(rows) == {"rw", "sa", "exhaustive"}
        assert float(rows["rw"]["normalized_over_rw"]) == 1.0
        rw_mean = float(rows["rw"]["mean_best_raw"])
        sa_mean = float(rows["sa"]["mean_best_raw"])
        assert float(rows["sa"]["normalized_over_rw"]) == pytest.approx(
            sa_mean / rw_mean
        )
        ex_best = float(rows["exhaustive"]["best_of_k_raw"])
        assert float(rows["sa"]["vs_exhaustive"]) == pytest.approx(
            float(rows["sa"]["best_of_k_raw"]) / ex_best
        )

    def test_curves_are_non_decreasing_per_seed(self, tmp_path, capsys):
        rw = make_run(tmp_path, capsys, "rw", "rw")
        rpt = tmp_path / "rpt"
        run_cli(["report", str(rw), "--out", str(rpt)], capsys)
        with open(rpt / "curves.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        by_seed = {}
        for row in rows:
            by_seed.setdefault(row["seed"], []).append(
                (int(row["eval_index"]), float(row["best_so_far_raw"]))
            )
        for series in by_seed.values():
            series.sort()
            values = [v for _, v in series]
            assert values == sorted(values)
            assert len(values) == 30

    def test_incompatible_configs_for_same_workload_refused(self, tmp_path, capsys):
        a = make_run(tmp_path, capsys, "rw", "a", budget="5", seeds="1")
        b = make_run(tmp_path, capsys, "rw", "b", budget="5", seeds="1")
        text = (b / "config.yaml").read_text(encoding="utf-8")
        (b / "config.yaml").write_text(
            text.replace("device_budget: 16", "device_budget: 64"), encoding="utf-8"
        )
        code, _, err = run_cli(["report", str(a), str(b)], capsys)
        assert code == 1
        assert "disagree" in err

    def test_one_row_needs_one_set_of_searcher_settings(self, tmp_path, capsys):
        config = tmp_path / "narrow.yaml"
        packaged = packaged_config_path("tiny").read_text(encoding="utf-8")
        assert "  width: 64\n" in packaged
        config.write_text(packaged.replace("  width: 64\n", "  width: 8\n"), encoding="utf-8")
        a = make_run(tmp_path, capsys, "ppo", "a", budget="10", seeds="1")
        b = tmp_path / "b"
        args = ["search", "--config", str(config), "--algo", "ppo", "--budget", "10",
                "--seed0", "3", "--out", str(b)]
        assert run_cli(args, capsys)[0] == 0
        code, out, err = run_cli(["report", str(a), str(b)], capsys)
        assert code == 1 and out == ""
        assert str(a) in err and str(b) in err and "ppo settings" in err

    def test_ppo_rows_ignore_the_config_budget(self, tmp_path, capsys):
        config = tmp_path / "long.yaml"
        packaged = packaged_config_path("tiny").read_text(encoding="utf-8")
        assert "  budget: 1000\n" in packaged
        config.write_text(packaged.replace("  budget: 1000\n", "  budget: 2000\n"), encoding="utf-8")
        a = make_run(tmp_path, capsys, "ppo", "a", budget="10", seeds="1")
        b = tmp_path / "b"
        args = ["search", "--config", str(config), "--algo", "ppo", "--budget", "10",
                "--seed0", "3", "--out", str(b)]
        assert run_cli(args, capsys)[0] == 0
        code, out, _ = run_cli(["report", str(a), str(b)], capsys)
        assert code == 0
        assert out.splitlines()[1].split()[2] == "2"  # one ppo row of two runs

    def test_different_workloads_get_separate_rows(self, tmp_path, capsys):
        a = make_run(tmp_path, capsys, "rw", "a", budget="5", seeds="1")
        b = make_run(tmp_path, capsys, "rw", "b", budget="5", seeds="1")
        text = (b / "config.yaml").read_text(encoding="utf-8")
        (b / "config.yaml").write_text(
            text.replace("name: tiny-moe", "name: other-moe"), encoding="utf-8"
        )
        code, out, _ = run_cli(["report", str(a), str(b)], capsys)
        assert code == 0
        assert "tiny-moe@128" in out and "other-moe@128" in out

    def test_log_length_must_match_report(self, tmp_path, capsys):
        out_dir = make_run(tmp_path, capsys, "rw", "rw", budget="20", seeds="1")
        log = out_dir / "seed_0" / "evals.ndjson"
        log.write_text(log.read_text() * 2)
        code, _, err = run_cli(["report", str(out_dir)], capsys)
        assert code == 1
        assert str(log) in err and "reports 20 evals" in err

    def test_empty_log_is_a_tool_error(self, tmp_path, capsys):
        out_dir = make_run(tmp_path, capsys, "rw", "rw", budget="5", seeds="1")
        log = out_dir / "seed_0" / "evals.ndjson"
        log.write_text("")
        code, _, err = run_cli(["report", str(out_dir)], capsys)
        assert code == 1
        assert f"{log} holds 0 records but {out_dir / 'summary.json'} reports 5 evals" in err

    def test_a_copied_seed_is_not_counted(self, tmp_path, capsys):
        rw = make_run(tmp_path, capsys, "rw", "rw", budget="50", seeds="3")
        shutil.copytree(rw / "seed_0", rw / "seed_0 (copy)")
        code, out, _ = run_cli(["report", str(rw)], capsys)
        assert code == 0
        row = out.splitlines()[1].split()
        assert row[2:4] == ["3", "8674.854664"]

    def test_a_missing_log_is_a_tool_error(self, tmp_path, capsys):
        rw = make_run(tmp_path, capsys, "rw", "rw", budget="50", seeds="3")
        log = rw / "seed_1" / "evals.ndjson"
        log.unlink()
        code, out, err = run_cli(["report", str(rw)], capsys)
        assert code == 1
        assert out == ""
        assert str(log) in err

    def test_log_records_must_be_numbered_in_order(self, tmp_path, capsys):
        out_dir = make_run(tmp_path, capsys, "rw", "rw", budget="5", seeds="1")
        log = out_dir / "seed_0" / "evals.ndjson"
        lines = log.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        log.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(["report", str(out_dir)], capsys)
        assert code == 1
        assert f"{log} does not number its records 0..4" in err

    @pytest.mark.parametrize(
        "damage",
        [
            lambda s: "{not json",
            lambda s: json.dumps({k: v for k, v in s.items() if k != "algorithm"}),
            lambda s: json.dumps({k: v for k, v in s.items() if k != "budget"}),
            lambda s: json.dumps({**s, "per_seed": []}),
            lambda s: json.dumps({**s, "per_seed": [{"seed": 0, "best_raw": 1.0}]}),
            lambda s: json.dumps([s]),
        ],
        ids=["not-json", "no-algorithm", "no-budget", "no-rows", "row-without-evals", "a-list"],
    )
    def test_a_malformed_summary_is_a_tool_error(self, tmp_path, capsys, damage):
        out_dir = make_run(tmp_path, capsys, "rw", "rw", budget="5", seeds="1")
        path = out_dir / "summary.json"
        path.write_text(damage(json.loads(path.read_text())))
        code, out, err = run_cli(["report", str(out_dir)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"shardsearch: error: {path} ")

    def test_a_log_line_with_other_fields_is_a_tool_error(self, tmp_path, capsys):
        out_dir = make_run(tmp_path, capsys, "rw", "rw", budget="5", seeds="1")
        log = out_dir / "seed_0" / "evals.ndjson"
        lines = log.read_text().splitlines()
        lines[1] = lines[1][:-1] + ', "tpot_s": 0.01}'
        log.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(["report", str(out_dir)], capsys)
        assert code == 1
        assert f"{log}:2 is not an eval record" in err and "tpot_s" in err

    def test_a_log_field_of_the_wrong_type_is_a_tool_error(self, tmp_path, capsys):
        out_dir = make_run(tmp_path, capsys, "rw", "rw", budget="5", seeds="1")
        log = out_dir / "seed_0" / "evals.ndjson"
        lines = log.read_text().splitlines()
        record = json.loads(lines[1])
        record["raw"] = "12"
        lines[1] = json.dumps(record)
        log.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(["report", str(out_dir)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"shardsearch: error: {log}:2 is not an eval record")
        assert "'raw'" in err

    def test_a_seed_given_twice_is_refused(self, tmp_path, capsys):
        rw = make_run(tmp_path, capsys, "rw", "rw", budget="5", seeds="2")
        code, out, err = run_cli(["report", str(rw), f"{rw}/"], capsys)
        assert code == 1
        assert out == ""
        assert f"in both {rw} and {rw}" in err

    def test_runs_of_different_budgets_are_refused(self, tmp_path, capsys):
        a = make_run(tmp_path, capsys, "rw", "a", budget="20", seeds="2")
        b = tmp_path / "b"
        assert run_cli(
            ["search", "--config", "tiny", "--algo", "rw", "--budget", "40",
             "--seeds", "2", "--seed0", "5", "--out", str(b)],
            capsys,
        )[0] == 0
        code, out, err = run_cli(["report", str(a), str(b)], capsys)
        assert code == 1
        assert out == ""
        assert f"budget 20 in {a} but 40 in {b}" in err

    def test_seeded_rows_of_one_workload_share_one_budget(self, tmp_path, capsys):
        # normalized_over_rw divides by the rw mean, so that mean must be
        # taken at the same budget as the row it normalizes.
        ppo = make_run(tmp_path, capsys, "ppo", "ppo", budget="100", seeds="2")
        rw = make_run(tmp_path, capsys, "rw", "rw", budget="20", seeds="2")
        code, out, err = run_cli(["report", str(ppo), str(rw)], capsys)
        assert code == 1
        assert out == ""
        assert f"budget 100 in {ppo} but 20 in {rw}" in err
        # The seed-free sweep's budget is its grid, so it joins any budget.
        ex = make_run(tmp_path, capsys, "exhaustive", "ex")
        assert run_cli(["report", str(rw), str(ex)], capsys)[0] == 0

    def test_missing_run_directory_is_a_tool_error(self, tmp_path, capsys):
        code, _, err = run_cli(["report", str(tmp_path / "nothing")], capsys)
        assert code == 1
        assert "not a finished run directory" in err


class TestEntryPoint:
    def test_module_invocation_propagates_exit_codes(self):
        proc = subprocess.run(
            [sys.executable, "-m", "shardsearch.cli", "simulate", "--config",
             "tiny", "--tp", "4", "--ep", "4", "--pp", "4", "--batch", "16"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "over_device_budget" in proc.stdout

    def test_usage_errors_exit_1_not_2(self, capsys):
        code, _, err = run_cli(["search", "--config", "tiny"], capsys)
        assert code == 1  # missing --algo is a tool error, not invalid-strategy
        assert "--algo" in err
