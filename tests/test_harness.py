import csv
import dataclasses
import json
import os

import numpy as np
import pytest

from sdze import cli, harness
from sdze.harness import (
    ConfigError,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_checkpoint,
    run_sweep_batch,
    run_sweep_rank_freq,
    run_train,
    save_checkpoint,
    write_csv,
)
from sdze.net import MlpParams, SignPair, init_mlp
from sdze.optimizer import SdzeConfig, directional_delta, make_subspaces, step_cores
from sdze.spatial import SpatialSample, draw_sample


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
        config_from_dict(raw)
    assert "pde.dim" in str(err.value)
    # with no dim and no widths the config takes the default widths, and no
    # rule that reads them is reported next to the real error
    for pde, message in (({}, "missing key: pde.dim"), ({"dim": "x"}, "pde.dim must be an integer, got 'x'")):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"pde": pde, "net": {"widths": None}})
        assert str(err.value) == message


def test_unknown_keys_all_reported(tmp_path):
    raw = tiny_config(tmp_path)
    raw["pde"]["flux"] = 1
    raw["sdze"]["momentum"] = 0.9
    raw["bogus"] = True
    raw["pde"]["kind"] = "heat"
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    msg = str(err.value)
    assert "pde.flux" in msg and "sdze.momentum" in msg and "bogus" in msg
    assert "pde.kind" in msg
    raw = tiny_config(tmp_path, pde=3)
    raw["sdze"]["lr"] = "constant"
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    msg = str(err.value)
    assert "pde must be an object" in msg and "sdze.lr must be an object" in msg


def test_wrong_typed_scalars_are_reported_with_the_other_errors(tmp_path):
    raw = tiny_config(tmp_path, steps=2.7, seed=True, bogus=1)
    raw["pde"]["dim"] = "5"
    raw["net"]["bias"] = "false"
    raw["sdze"]["crns"] = "no"
    raw["sdze"]["eps"] = False
    raw["sdze"]["lr"]["mode"] = 1
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    msg = str(err.value)
    for key in ("steps", "seed", "pde.dim", "net.bias", "sdze.crns", "sdze.eps", "sdze.lr.mode"):
        assert f"{key} must be" in msg
    assert "unknown key: bogus" in msg and "missing key" not in msg
    # integral floats are integers, and integers are numbers
    raw = tiny_config(tmp_path, steps=2.0)
    raw["sdze"]["eps"] = 1
    cfg = config_from_dict(raw)
    assert cfg.steps == 2 and isinstance(cfg.steps, int)
    assert cfg.eps == 1.0 and isinstance(cfg.eps, float)


def test_loader_and_config_errors_are_reported_together_by_json_key(tmp_path):
    raw = tiny_config(tmp_path, steps=2.5, bogus=1)
    raw["pde"]["kind"] = "heat"
    raw["net"].update(activation="relu", dtype="f16", act_scale=0.5)
    raw["sdze"].update(eps=-1, rank_per_layer=[2, 2, 2])
    raw["sdze"]["lr"]["mode"] = "bogus"
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    problems = str(err.value).split("; ")
    keys = [
        "unknown key: bogus",
        "unknown key: net.act_scale",
        "unknown key: sdze.rank_per_layer",
        "steps must be an integer",
        "pde.kind must be one of",
        "net.activation must be one of",
        "net.dtype must be one of",
        "sdze.eps must be > 0",
        "sdze.lr.mode must be one of",
    ]
    assert len(problems) == len(keys)
    assert all(any(p.startswith(key) for p in problems) for key in keys), problems


def test_config_roundtrips_and_hash_is_stable(tmp_path):
    cfg = config_from_dict(tiny_config(tmp_path))
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg
    assert config_hash(cfg) == config_hash(again)
    assert len(config_hash(cfg)) == 12
    # configs that describe the same run hash equal, however they spell it
    minimal = config_from_dict({"pde": {"dim": 3}})
    spelled_out = config_from_dict(
        {
            "pde": {"dim": 3, "kind": "poisson"},
            "net": {"widths": [3, 128, 128, 1]},
            "sdze": {"lr": {"mode": "annealed", "gamma": 3, "m": 200, "p": 0.6}},
            "out_dir": str(tmp_path / "elsewhere"),
            "timing": False,
        }
    )
    assert config_hash(minimal) == config_hash(spelled_out)
    assert config_hash(config_from_dict(config_to_dict(minimal))) == config_hash(minimal)
    assert config_hash(dataclasses.replace(minimal, seed=1)) != config_hash(minimal)


def test_omitted_widths_and_lr_take_the_pinned_defaults():
    cfg = config_from_dict({"pde": {"dim": 7}})
    assert cfg.widths == [7, 128, 128, 1]
    assert config_from_dict({"pde": {"dim": 7}, "net": {"widths": None}}) == cfg
    assert (cfg.lr_mode, cfg.gamma, cfg.m, cfg.p) == ("annealed", 3.0, 200.0, 0.6)
    assert (cfg.alpha, cfg.c, cfg.steps) == (1e-3, 1.0, 20000)
    assert config_to_dict(cfg)["pde"]["dim"] == 7


def test_partial_lr_block_fills_from_the_same_defaults():
    cfg = config_from_dict({"pde": {"dim": 3}, "sdze": {"lr": {"gamma": 0.5}}})
    assert (cfg.lr_mode, cfg.gamma, cfg.m, cfg.p) == ("annealed", 0.5, 200.0, 0.6)
    cfg = config_from_dict({"pde": {"dim": 3}, "sdze": {"lr": {"mode": "constant"}}})
    assert (cfg.lr_mode, cfg.alpha, cfg.gamma, cfg.m, cfg.p) == (
        "constant", 1e-3, 3.0, 200.0, 0.6
    )


def test_eval_cadence_and_test_set_size_must_be_positive(tmp_path):
    # rejected on load, before a run writes anything to its output directory
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(tiny_config(tmp_path, eval_every=0, test_points=0)))
    with pytest.raises(ValueError) as err:
        cli.main(["train", "--config", str(cfg_path)])
    msg = str(err.value)
    assert "eval_every must be >= 1" in msg and "test_points must be >= 1" in msg
    assert not (tmp_path / "run").exists()


def test_index_sets_larger_than_the_dimension_are_refused_before_writing(tmp_path):
    # the default batch_dims_b = 16 cannot be drawn from 3 dimensions
    raw = {"pde": {"dim": 3}, "net": {"widths": [3, 8, 1]}, "steps": 2}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({**raw, "out_dir": str(tmp_path / "run")}))
    for argv in (
        ["train"],
        ["sweep-rank-freq", "--ranks", "1", "--freqs", "1"],
        ["ablate-crns", "--eps", "1e-2,1e-3", "--reps", "2"],
    ):
        with pytest.raises(ConfigError, match="sdze.batch_dims_b = 16 exceeds pde.dim = 3"):
            cli.main(argv + ["--config", str(cfg_path)])
    assert not (tmp_path / "run").exists()


def test_widths_must_start_with_pde_dim(tmp_path):
    raw = tiny_config(tmp_path, net={"widths": [4, 6, 1]})
    with pytest.raises(ConfigError, match="net.widths"):
        config_from_dict(raw)
    assert not (tmp_path / "run").exists()


def _edited(**blocks):
    """A loader of ``tiny_config`` with the given keys of each block replaced."""

    def load(raw):
        for block, keys in blocks.items():
            raw[block].update(keys)
        return config_from_dict(raw)

    return load


@pytest.mark.parametrize(
    "build, error, key",
    [
        (_edited(net={"widths": [5]}), ConfigError, "net.widths"),
        (_edited(net={"widths": [5, 6, 2]}), ConfigError, "net.widths"),
        (_edited(pde={"solution": "foo"}), ConfigError, "pde.solution"),
        (_edited(pde={"normalization": "foo"}), ConfigError, "pde.normalization"),
        (
            _edited(pde={"dim": 2, "solution": "three_body"}, net={"widths": [2, 6, 1]}),
            ConfigError,
            "pde.dim",
        ),
        (lambda raw: SdzeConfig(pde_kind="heat"), ValueError, "pde_kind"),
        (lambda raw: MlpParams([]), ValueError, "at least one layer"),
        # built in code, each bad value fails in the config, naming its field
        (lambda raw: SdzeConfig(activation="relu"), ConfigError, "^activation must be one of"),
        (lambda raw: SdzeConfig(widths=[3]), ConfigError, "^widths must have >= 2 entries"),
        (lambda raw: SdzeConfig(widths=[5, 6, 2]), ConfigError, "^widths must have >= 2 entries"),
        (lambda raw: SdzeConfig(pde_solution="x"), ConfigError, "^pde_solution must be one of"),
        (lambda raw: SdzeConfig(normalization="x"), ConfigError, "^normalization must be one of"),
        (
            lambda raw: SdzeConfig(widths=[2, 6, 1], pde_solution="three_body"),
            ConfigError,
            r"^widths\[0\] too small: three_body needs dim >= 3",
        ),
    ],
    ids=[
        "one_width",
        "wide_output",
        "solution",
        "normalization",
        "dim",
        "kind",
        "no_layers",
        "code_activation",
        "code_one_width",
        "code_wide_output",
        "code_solution",
        "code_normalization",
        "code_dim",
    ],
)
def test_bad_values_fail_where_they_are_given_naming_the_key(tmp_path, build, error, key):
    with pytest.raises(error, match=key):
        build(tiny_config(tmp_path))


def test_list_keys_must_be_lists_of_positive_integers(tmp_path):
    for block, key, value in [
        ("net", "widths", 7),
        ("net", "widths", [5, "a", 1]),
        ("net", "widths", [5, 0, 1]),
    ]:
        raw = tiny_config(tmp_path)
        raw[block][key] = value
        with pytest.raises(ConfigError, match=rf"{block}\.{key} must be a list of integers >= 1"):
            config_from_dict(raw)
    cfg = config_from_dict(tiny_config(tmp_path, net={"widths": [5, 6.0, 1]}))
    assert cfg.widths == [5, 6, 1] and all(isinstance(w, int) for w in cfg.widths)


def test_delta_variance_estimates_in_the_config_dtype(tmp_path):
    # and in its locking mode: unlocked, each minus pass reads its own index sets
    raw = tiny_config(tmp_path)
    raw["net"]["dtype"] = "f32"
    cfg = config_from_dict(raw)
    problem = cfg.make_problem()
    params = cfg.init_params()
    subspaces = make_subspaces(params, cfg)
    cores = step_cores(cfg.seed, subspaces, 0)
    deltas = {True: [], False: []}
    for k in range(1, 11):
        drawn = draw_sample(problem, SpatialSample(cfg.seed, k, 4, 2, problem.dim))
        unlocked = draw_sample(problem, drawn.sample.unlocked(), batch=drawn)
        for crns, minus in ((True, drawn), (False, unlocked)):
            # a fresh pair per estimate: the call's one shared pair must change no bit
            pair = SignPair(params, subspaces, cores, cfg.eps, np.float32)
            deltas[crns].append(directional_delta(pair, problem, drawn, minus)[0])
    for crns, want in deltas.items():
        got = harness.delta_variance(dataclasses.replace(cfg, crns=crns), problem, replicates=10)
        assert got == float(np.var(np.asarray(want), ddof=1))
    assert np.var(deltas[False]) > 100 * np.var(deltas[True])
    got = harness.delta_variance(cfg, problem, replicates=10)
    assert got != harness.delta_variance(dataclasses.replace(cfg, dtype="f64"), problem, 10)


def test_delta_variance_builds_one_pair_per_call(tmp_path, monkeypatch):
    # the replicates differ in their batches, so they share only the weights
    cfg = config_from_dict(tiny_config(tmp_path))
    built = []
    init = SignPair.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SignPair, "__init__", counted)
    harness.delta_variance(cfg, cfg.make_problem(), replicates=6)
    assert len(built) == 1


def test_checkpoint_roundtrip_bitwise(tmp_path):
    params = init_mlp([5, 6, 1], "sin", 3)
    path = tmp_path / "w.sdze"
    save_checkpoint(path, params, step=7, seed=42)
    weights, step, seed = load_checkpoint(path)
    assert step == 7 and seed == 42
    assert len(weights) == len(params.weights)
    assert all(np.array_equal(a, b) for a, b in zip(params.weights, weights))


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


def test_checkpoint_io_is_atomic_and_rejects_extra_or_missing_bytes(tmp_path):
    params = init_mlp([4, 3, 1], "sin", 0)
    path = tmp_path / "w.sdze"
    save_checkpoint(path, params, 1, 2)
    data = path.read_bytes()
    # a write that fails part-way leaves the previous checkpoint whole
    broken = dataclasses.replace(params)
    broken.weights = [params.weights[0], None]
    with pytest.raises(AttributeError):
        save_checkpoint(path, broken, 5, 2)
    assert path.read_bytes() == data
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.sdze"]  # no stray .tmp
    (tmp_path / "junk.sdze").write_bytes(data + b"junk")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_checkpoint(tmp_path / "junk.sdze")
    # cut inside the header, before a layer's shape, inside a layer's shape
    for cut in (10, 28, 30):
        (tmp_path / "short.sdze").write_bytes(data[:cut])
        with pytest.raises(ValueError, match="truncated checkpoint"):
            load_checkpoint(tmp_path / "short.sdze")


def test_run_train_outputs(tmp_path):
    cfg = config_from_dict(tiny_config(tmp_path))
    result = run_train(cfg)
    out = tmp_path / "run"
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0].startswith("# sdze-version=")
    assert f"seed={cfg.seed}" in metrics[0]
    assert f"config-hash={config_hash(cfg)}" in metrics[0]
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
    cfg = config_from_dict(tiny_config(tmp_path, steps=0))
    result = run_train(cfg)
    out = tmp_path / "run"
    assert result.records == []
    assert (out / "ckpt_initial.sdze").exists()
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 2  # header + column line, no data rows


def test_identical_runs_are_byte_identical(tmp_path):
    a = config_from_dict(tiny_config(tmp_path, out_dir=str(tmp_path / "a")))
    b = config_from_dict(tiny_config(tmp_path, out_dir=str(tmp_path / "b")))
    run_train(a)
    run_train(b)
    assert (tmp_path / "a/metrics.csv").read_bytes() == (tmp_path / "b/metrics.csv").read_bytes()
    assert (tmp_path / "a/ckpt_final.sdze").read_bytes() == (
        tmp_path / "b/ckpt_final.sdze"
    ).read_bytes()


def test_resume_equals_uninterrupted(tmp_path):
    full = config_from_dict(tiny_config(tmp_path, out_dir=str(tmp_path / "full")))
    run_train(full)
    part = config_from_dict(
        tiny_config(tmp_path, steps=3, out_dir=str(tmp_path / "part"))
    )
    run_train(part)
    resumed = config_from_dict(tiny_config(tmp_path, out_dir=str(tmp_path / "resumed")))
    run_train(resumed, resume_from=tmp_path / "part/ckpt_final.sdze")
    assert (tmp_path / "full/ckpt_final.sdze").read_bytes() == (
        tmp_path / "resumed/ckpt_final.sdze"
    ).read_bytes()


@pytest.mark.parametrize(
    "net, key", [({"widths": [5, 9, 9, 1]}, "net.widths"), ({"widths": [5, 6, 1], "bias": True}, "net.bias")]
)
def test_resume_rejects_checkpoint_that_does_not_fit_the_config(tmp_path, net, key):
    run_train(config_from_dict(tiny_config(tmp_path, steps=3, out_dir=str(tmp_path / "part"))))
    other = config_from_dict(tiny_config(tmp_path, net=net, out_dir=str(tmp_path / "other")))
    with pytest.raises(ConfigError, match=key):
        run_train(other, resume_from=tmp_path / "part/ckpt_final.sdze")
    assert not (tmp_path / "other").exists()


def test_resume_refuses_metrics_with_other_columns(tmp_path):
    run_train(config_from_dict(tiny_config(tmp_path, steps=3)))
    out = tmp_path / "run"
    metrics = out / "metrics.csv"
    lines = metrics.read_text().splitlines(keepends=True)
    lines[1] = lines[1].rstrip("\n") + ",extra\n"  # another version's column line
    metrics.write_text("".join(lines))
    (out / "config.json").unlink()
    with pytest.raises(ValueError, match="metrics.csv"):
        run_train(config_from_dict(tiny_config(tmp_path)), resume_from=out / "ckpt_final.sdze")
    assert not (out / "config.json").exists()
    assert metrics.read_text() == "".join(lines)


def test_resume_past_steps_is_refused_before_writing(tmp_path):
    # a step-6 checkpoint cannot continue a 3-step run
    run_train(config_from_dict(tiny_config(tmp_path)))
    out = tmp_path / "run"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    for target in (out, tmp_path / "other"):
        short = config_from_dict(tiny_config(tmp_path, steps=3, out_dir=str(target)))
        with pytest.raises(ConfigError, match="steps = 3"):
            run_train(short, resume_from=out / "ckpt_final.sdze")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert not (tmp_path / "other").exists()


def test_unknown_activation_is_refused_before_writing(tmp_path):
    raw = tiny_config(tmp_path, net={"widths": [5, 6, 1], "activation": "relu"})
    with pytest.raises(ConfigError, match="net.activation must be one of"):
        config_from_dict(raw)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="net.activation"):
        cli.main(["train", "--config", str(cfg_path)])
    # a config built in code fails when it is built, naming the field
    with pytest.raises(ConfigError, match="^activation must be one of"):
        dataclasses.replace(config_from_dict(tiny_config(tmp_path)), activation="relu")
    assert not (tmp_path / "run").exists()


class _Crash(Exception):
    pass


def test_crash_resume_writes_no_duplicate_rows(tmp_path, monkeypatch):
    # a run that dies after writing step 10 resumes from its step-8 checkpoint
    raw = tiny_config(tmp_path, steps=12, eval_every=4)
    run_train(config_from_dict({**raw, "out_dir": str(tmp_path / "full")}))
    crashed = config_from_dict({**raw, "out_dir": str(tmp_path / "crashed")})
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


def _no_work(*args, **kwargs):
    raise AssertionError("a refused sweep grid ran a cell")


def test_rank_freq_sweep_grid(tmp_path, monkeypatch):
    cfg = config_from_dict(tiny_config(tmp_path, steps=2))
    rows = run_sweep_rank_freq(cfg, [2, 3], [2, 4])
    assert len(rows) == 4
    assert [(r["rank"], r["freq_F"]) for r in rows] == [(2, 2), (2, 4), (3, 2), (3, 4)]
    single = run_sweep_rank_freq(cfg, [2], [2])
    assert len(single) == 1
    again = run_sweep_rank_freq(cfg, [2, 3], [2, 4])
    assert rows == again  # deterministic per seed
    with pytest.raises(ValueError):
        run_sweep_rank_freq(cfg, [], [2])
    # a bad grid value is refused, naming its cell, before any cell trains
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(tiny_config(tmp_path, steps=2, out_dir=str(tmp_path / "rf"))))
    monkeypatch.setattr(harness, "train", _no_work)
    for ranks, freqs, message in (
        ("2,0", "2", "rank 0, freq 2: rank must be >= 1"),
        ("2", "0", "rank 2, freq 0: freq_F must be >= 1"),
    ):
        with pytest.raises(ConfigError, match=message):
            cli.main(["sweep-rank-freq", "--config", str(cfg_path), "--ranks", ranks, "--freqs", freqs])
    assert not (tmp_path / "rf").exists()


def test_batch_sweep_requires_constant_product(tmp_path):
    cfg = config_from_dict(tiny_config(tmp_path, steps=2))
    with pytest.raises(ValueError):
        run_sweep_batch(cfg, [(4, 2), (2, 3)])
    rows = run_sweep_batch(cfg, [(4, 1), (2, 2), (1, 4)], replicates=20)
    assert len(rows) == 3
    assert all(r["delta_variance"] >= 0 for r in rows)


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


@pytest.mark.parametrize("suite", ["jets", "implicit"])
def test_cli_verify_jet_suites(tmp_path, suite):
    rc = cli.main(["verify", "--suite", suite, "--out", str(tmp_path / "v")])
    assert rc == 0
    assert (tmp_path / f"v/{suite}.csv").exists()
    assert json.loads((tmp_path / f"v/{suite}.json").read_text())["suite"] == suite


def test_cli_verify_crns_writes_the_criterion_5_rows(tmp_path):
    # seed 0 reads its identities above 1.33 and seed 2 below it but above
    # 1.25, so both edges of the asymmetric interval are exercised
    bounds = {
        "naive_variance_slope": lambda x: abs(x + 2.0) <= 0.2,
        "crns_variance_slope": lambda x: abs(x) <= 0.3,
        "crns_variance_spread": lambda x: x <= 2.0,
        "cancellation_identity_at_0.001": lambda x: 0.75 <= x <= 1.33,
        "cancellation_identity_at_0.0001": lambda x: 0.75 <= x <= 1.33,
    }
    for seed in ("0", "2"):
        out = tmp_path / seed
        argv = ["verify", "--suite", "crns", "--dim", "8", "--b", "2", "--reps", "20"]
        rc = cli.main(argv + ["--seed", seed, "--out", str(out)])
        lines = (out / "crns.csv").read_text().splitlines()
        rows = list(csv.DictReader(lines[1:]))
        assert [row["name"] for row in rows] == list(bounds)
        assert all(row["passed"] == str(bounds[row["name"]](float(row["empirical"]))) for row in rows)
        assert rc == (0 if all(row["passed"] == "True" for row in rows) else 1)
        assert json.loads((out / "crns.json").read_text())["var_loss"] > 0


def test_every_public_name_resolves():
    import sdze

    assert [name for name in sdze.__all__ if not hasattr(sdze, name)] == []


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


def test_cli_sweep_batch_rejects_b_above_dim_before_any_work(tmp_path, monkeypatch):
    raw = tiny_config(tmp_path, steps=2, out_dir=str(tmp_path / "sw"))
    raw["pde"]["dim"] = 3
    raw["net"]["widths"] = [3, 6, 1]
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(raw))
    monkeypatch.setattr(harness, "train", _no_work)
    monkeypatch.setattr(harness, "delta_variance", _no_work)
    for pairs, message in (
        ("2x4,4x2", "pair 2x4: sdze.batch_dims_b = 4 exceeds pde.dim = 3"),
        ("4x0,2x0", "pair 4x0: batch_b must be >= 1"),
        ("", "the sweep grid is empty"),
    ):
        with pytest.raises(ConfigError, match=message):
            cli.main(["sweep-batch", "--config", str(cfg_path), "--pairs", pairs])
    assert not (tmp_path / "sw").exists()


def test_cli_ablate_crns_sweeps_the_configured_net(tmp_path, monkeypatch):
    seen = {}

    def sweep(problem, params, **kwargs):
        seen["params"] = params
        seen["dtype"] = kwargs["dtype"]
        return [{"eps": 1e-3, "var_crns": 1.0, "var_naive": 2.0}], 0.0, -2.0

    monkeypatch.setattr(cli.V, "crns_variance_sweep", sweep)
    raw = tiny_config(tmp_path, out_dir=str(tmp_path / "ab"))
    raw["net"]["bias"] = True
    raw["net"]["dtype"] = "f32"
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli.main(["ablate-crns", "--config", str(cfg_path), "--eps", "1e-2,1e-3"]) == 0
    assert seen["params"].bias is True
    assert seen["params"].widths == [5, 6, 1]
    assert seen["dtype"] == "f32"


@pytest.mark.parametrize(
    "command, flags, flag",
    [
        ("verify", ["--dim", "4", "--b", "9"], "--b"),
        ("verify", ["--reps", "1"], "--reps"),
        ("verify", ["--dim", "1", "--b", "1"], "--dim"),
        ("ablate-crns", ["--reps", "1"], "--reps"),
    ],
    ids=["b_above_dim", "one_replicate", "dim_below_two_body", "ablate_one_replicate"],
)
def test_cli_verify_crns_refuses_flags_it_cannot_run_before_writing(
    tmp_path, capsys, command, flags, flag
):
    # ablate-crns runs the same sweep, so it refuses the same replicate count
    out = tmp_path / "out"
    if command == "verify":
        argv = ["verify", "--suite", "crns", "--dim", "8", "--reps", "2", "--b", "2", "--out", str(out)]
    else:
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path, out_dir=str(out))))
        argv = ["ablate-crns", "--config", str(cfg_path), "--eps", "1e-2,1e-3"]
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv + flags)
    assert exit_.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "ablate-crns"])
def test_cli_refuses_a_degenerate_eps_list_before_writing(tmp_path, capsys, command):
    out = tmp_path / "out"
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(tiny_config(tmp_path, out_dir=str(out))))
    if command == "verify":
        argv = ["verify", "--suite", "crns", "--dim", "8", "--reps", "2", "--b", "2", "--out", str(out)]
    else:
        argv = ["ablate-crns", "--config", str(cfg_path), "--reps", "2"]
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv + ["--eps", "1e-3,1e-3"])
    assert exit_.value.code == 2
    assert "argument --eps: eps_list must hold" in capsys.readouterr().err
    assert not out.exists()
