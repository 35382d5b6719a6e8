import json
import os

import numpy as np
import pytest

from sdze import cli, harness
from sdze.harness import (
    ConfigError,
    RunConfig,
    load_checkpoint,
    run_sweep_batch,
    run_sweep_rank_freq,
    run_train,
    save_checkpoint,
    write_csv,
)
from sdze.net import init_mlp


def tiny_config(tmp_path, **over):
    raw = {
        "pde": {"kind": "poisson", "dim": 5, "solution": "two_body"},
        "net": {"widths": [5, 6, 1]},
        "sdze": {
            "rank": 2,
            "freq_F": 3,
            "eps": 1e-3,
            "lr": {"mode": "constant", "alpha": 1e-3},
            "batch_points_B": 4,
            "batch_dims_b": 2,
        },
        "steps": 6,
        "eval_every": 3,
        "test_points": 64,
        "seed": 11,
        "out_dir": str(tmp_path / "run"),
        "timing": False,
    }
    raw.update(over)
    return raw


def test_missing_dim_names_the_key(tmp_path):
    raw = tiny_config(tmp_path)
    del raw["pde"]["dim"]
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(raw)
    assert "pde.dim" in str(err.value)


def test_unknown_keys_all_reported(tmp_path):
    raw = tiny_config(tmp_path)
    raw["pde"]["flux"] = 1
    raw["sdze"]["momentum"] = 0.9
    raw["bogus"] = True
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(raw)
    msg = str(err.value)
    assert "pde.flux" in msg and "sdze.momentum" in msg and "bogus" in msg


def test_config_roundtrips_and_hash_is_stable(tmp_path):
    cfg = RunConfig.from_dict(tiny_config(tmp_path))
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert cfg.config_hash() == again.config_hash()
    assert len(cfg.config_hash()) == 12


def test_checkpoint_roundtrip_bitwise(tmp_path):
    params = init_mlp([5, 6, 1], "sin", 3)
    path = tmp_path / "w.sdze"
    save_checkpoint(path, params, step=7, seed=42)
    loaded, step, seed = load_checkpoint(path)
    assert step == 7 and seed == 42
    assert all(np.array_equal(a, b) for a, b in zip(params.weights, loaded.weights))


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    params = init_mlp([4, 3, 1], "sin", 0)
    path = tmp_path / "w.sdze"
    save_checkpoint(path, params, 1, 2)
    data = path.read_bytes()
    (tmp_path / "bad.sdze").write_bytes(b"XXXX" + data[4:])
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(tmp_path / "bad.sdze")
    (tmp_path / "trunc.sdze").write_bytes(data[:-9])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(tmp_path / "trunc.sdze")
    bad_version = data[:4] + (99).to_bytes(4, "little") + data[8:]
    (tmp_path / "vers.sdze").write_bytes(bad_version)
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(tmp_path / "vers.sdze")


def test_run_train_outputs(tmp_path):
    cfg = RunConfig.from_dict(tiny_config(tmp_path))
    result = run_train(cfg)
    out = tmp_path / "run"
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0].startswith("# sdze-version=")
    assert f"seed={cfg.seed}" in metrics[0]
    assert f"config-hash={cfg.config_hash()}" in metrics[0]
    assert metrics[1].startswith("step,alpha,delta_hat,loss_plus,loss_minus,rel_l2,")
    assert len(metrics) == 2 + cfg.steps
    # rel_l2 blank off-cadence, present on cadence
    row2 = metrics[2].split(",")
    assert row2[5] == ""
    row_on = metrics[2 + 2].split(",")  # step 3 with eval_every=3
    assert row_on[5] != ""
    assert (out / "ckpt_initial.sdze").exists()
    assert (out / "ckpt_final.sdze").exists()
    assert (out / "ckpt_00000003.sdze").exists()
    echo = json.loads((out / "config.json").read_text())
    assert echo["seed"] == cfg.seed
    assert len(result.records) == cfg.steps


def test_zero_step_run_writes_initial_checkpoint_only(tmp_path):
    cfg = RunConfig.from_dict(tiny_config(tmp_path, steps=0))
    result = run_train(cfg)
    out = tmp_path / "run"
    assert result.records == []
    assert (out / "ckpt_initial.sdze").exists()
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 2  # header + column line, no data rows


def test_identical_runs_are_byte_identical(tmp_path):
    a = RunConfig.from_dict(tiny_config(tmp_path, out_dir=str(tmp_path / "a")))
    b = RunConfig.from_dict(tiny_config(tmp_path, out_dir=str(tmp_path / "b")))
    run_train(a)
    run_train(b)
    assert (tmp_path / "a/metrics.csv").read_bytes() == (tmp_path / "b/metrics.csv").read_bytes()
    assert (tmp_path / "a/ckpt_final.sdze").read_bytes() == (
        tmp_path / "b/ckpt_final.sdze"
    ).read_bytes()


def test_resume_equals_uninterrupted(tmp_path):
    full = RunConfig.from_dict(tiny_config(tmp_path, out_dir=str(tmp_path / "full")))
    run_train(full)
    part = RunConfig.from_dict(
        tiny_config(tmp_path, steps=3, out_dir=str(tmp_path / "part"))
    )
    run_train(part)
    resumed = RunConfig.from_dict(tiny_config(tmp_path, out_dir=str(tmp_path / "resumed")))
    run_train(resumed, resume_from=tmp_path / "part/ckpt_final.sdze")
    assert (tmp_path / "full/ckpt_final.sdze").read_bytes() == (
        tmp_path / "resumed/ckpt_final.sdze"
    ).read_bytes()


class _Crash(Exception):
    pass


def test_crash_resume_writes_no_duplicate_rows(tmp_path, monkeypatch):
    # a run that dies after writing step 10 resumes from its step-8 checkpoint
    raw = tiny_config(tmp_path, steps=12, eval_every=4)
    run_train(RunConfig.from_dict({**raw, "out_dir": str(tmp_path / "full")}))
    crashed = RunConfig.from_dict({**raw, "out_dir": str(tmp_path / "crashed")})
    real_row = harness.metric_row

    def row_then_crash(rec, rel, timing):
        if rec.step == 11:
            raise _Crash
        return real_row(rec, rel, timing)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "metric_row", row_then_crash)
        with pytest.raises(_Crash):
            run_train(crashed)
    out = tmp_path / "crashed"
    assert out.joinpath("metrics.csv").read_text().splitlines()[-1].startswith("10,")
    run_train(crashed, resume_from=out / "ckpt_00000008.sdze")
    for name in ("metrics.csv", "ckpt_final.sdze"):
        assert (out / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


def test_rank_freq_sweep_grid(tmp_path):
    cfg = RunConfig.from_dict(tiny_config(tmp_path, steps=2))
    rows = run_sweep_rank_freq(cfg, [2, 3], [2, 4])
    assert len(rows) == 4
    assert [(r["rank"], r["freq_F"]) for r in rows] == [(2, 2), (2, 4), (3, 2), (3, 4)]
    single = run_sweep_rank_freq(cfg, [2], [2])
    assert len(single) == 1
    again = run_sweep_rank_freq(cfg, [2, 3], [2, 4])
    assert rows == again  # deterministic per seed
    with pytest.raises(ValueError):
        run_sweep_rank_freq(cfg, [], [2])


def test_rank_freq_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    cfg = RunConfig.from_dict(tiny_config(tmp_path, steps=2))
    serial = run_sweep_rank_freq(cfg, [2, 3], [2])
    monkeypatch.setenv("SDZE_THREADS", "2")
    parallel = run_sweep_rank_freq(cfg, [2, 3], [2])
    assert serial == parallel


def test_batch_sweep_requires_constant_product(tmp_path):
    cfg = RunConfig.from_dict(tiny_config(tmp_path, steps=2))
    with pytest.raises(ValueError):
        run_sweep_batch(cfg, [(4, 2), (2, 3)])
    rows = run_sweep_batch(cfg, [(4, 1), (2, 2), (1, 4)], replicates=20)
    assert len(rows) == 3
    assert all(r["delta_variance"] >= 0 for r in rows)


def test_batch_sweep_zero_term_variance_prefers_points(tmp_path):
    # all operator terms aliased: the point-heavy split has minimal variance
    import dataclasses

    cfg = RunConfig.from_dict(tiny_config(tmp_path, steps=2))
    problem = dataclasses.replace(cfg.make_problem(), alias_terms=True)
    from sdze.harness import delta_variance

    pairs = [(4, 1), (2, 2), (1, 4)]
    variances = {(B, b): delta_variance(cfg, problem, B, b, replicates=150) for B, b in pairs}
    assert variances[(4, 1)] == min(variances.values())


def test_write_csv_header(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, [{"a": 1, "b": 2.5}], seed=7, config_hash="deadbeef0123")
    lines = path.read_text().splitlines()
    assert lines[0] == f"# sdze-version=0.1.0, seed=7, config-hash=deadbeef0123"
    assert lines[1] == "a,b" and lines[2] == "1,2.5"


def test_cli_train_and_verify(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(tiny_config(tmp_path, out_dir=str(tmp_path / "cli_run"))))
    rc = cli.main(["train", "--config", str(cfg_path), "--no-timing"])
    assert rc == 0
    assert (tmp_path / "cli_run/metrics.csv").exists()
    rc = cli.main(["verify", "--suite", "unbiasedness", "--out", str(tmp_path / "v")])
    assert rc == 0
    assert (tmp_path / "v/unbiasedness.csv").exists()
    assert (tmp_path / "v/unbiasedness.json").exists()


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(
        json.dumps(tiny_config(tmp_path, out_dir=str(tmp_path / "r1")))
    )
    cli.main(["train", "--config", str(cfg_path), "--no-timing"])
    cli.main(
        ["train", "--config", str(cfg_path), "--seed", "99", "--out", str(tmp_path / "r2"), "--no-timing"]
    )
    h1 = (tmp_path / "r1/metrics.csv").read_text().splitlines()[0]
    h2 = (tmp_path / "r2/metrics.csv").read_text().splitlines()[0]
    assert "seed=11" in h1 and "seed=99" in h2


def test_cli_sweep_batch(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(tiny_config(tmp_path, steps=2, out_dir=str(tmp_path / "sw"))))
    rc = cli.main(["sweep-batch", "--config", str(cfg_path), "--pairs", "4x1,2x2,1x4"])
    assert rc == 0
    lines = (tmp_path / "sw/batch_tradeoff.csv").read_text().splitlines()
    assert len(lines) == 2 + 3
