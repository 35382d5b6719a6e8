"""The two passes of an estimate on two threads: same bits, same errors, same memory.

Every test picks its path through ``optimizer.CONCURRENT_SIGNS``, the
dispatcher's switch, not through the work-size gate: most shapes here are
below the gate.
"""

import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from sdze import optimizer
from sdze.net import JET_CHUNK, SignPair
from sdze.optimizer import (
    DTYPES,
    SdzeConfig,
    SdzeDivergenceError,
    directional_delta,
    draw_signs,
    make_subspaces,
    sdze_step,
    step_cores,
    train,
)
from sdze.verify import crns_variance_sweep

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def estimate_cfg(**over):
    # b = 20 > JET_CHUNK: each set is transported in a full and a partial block
    base = dict(
        seed=4, widths=[20, 12, 10, 1], pde_kind="allen_cahn", eps=1e-3, rank=3,
        batch_B=7, batch_b=20,
    )
    base.update(over)
    return SdzeConfig(**base)


def estimate(cfg, t=1, concurrent=None, monkeypatch=None):
    """``directional_delta`` of step ``t``'s perturbation on a fresh pair."""
    if monkeypatch is not None:
        monkeypatch.setattr(optimizer, "CONCURRENT_SIGNS", concurrent)
    prob = cfg.make_problem()
    params = cfg.init_params()
    subs = make_subspaces(params, cfg)
    plus, minus = draw_signs(prob, cfg, t)
    pair = SignPair(params, subs, step_cores(cfg.seed, subs, t), cfg.eps, DTYPES[cfg.dtype])
    return directional_delta(pair, prob, plus, minus)


def record_passes(monkeypatch):
    """Wrap the default loss: each pass appends (sign, thread, np.geterr()) to the list."""
    seen, loss = [], optimizer.stochastic_loss

    def wrapped(view, problem, drawn):
        seen.append((view.sign, threading.get_ident(), np.geterr()))
        return loss(view, problem, drawn)

    monkeypatch.setattr(optimizer, "stochastic_loss", wrapped)
    return seen


HIDDEN = {2: [20, 12, 1], 3: [20, 12, 10, 1], 4: [20, 12, 10, 8, 1]}


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("act", ["sin", "tanh_scaled"])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("depth", sorted(HIDDEN))
def test_both_paths_give_the_same_bits(monkeypatch, depth, bias, act, dtype):
    cfg = estimate_cfg(widths=HIDDEN[depth], bias=bias, activation=act, dtype=dtype)
    seen = record_passes(monkeypatch)
    for t in (1, 2):
        serial = estimate(cfg, t, False, monkeypatch)
        concurrent = estimate(cfg, t, True, monkeypatch)
        assert concurrent == serial
        assert serial[1] != serial[2]
    # serial: both passes here; concurrent: the +eps pass on the worker
    caller = threading.get_ident()
    here = [sorted((sign, thread == caller) for sign, thread, _ in seen[k : k + 2]) for k in (0, 2)]
    assert here == [[(-1, True), (1, True)], [(-1, True), (1, False)]]


def test_a_pinned_batch_sweep_gives_the_same_rows_on_both_paths(monkeypatch):
    # one pair serves every replicate of an eps: the first concurrent
    # estimate forms both signs' planes at once, the later ones read them
    prob = estimate_cfg().make_problem()
    params = estimate_cfg(dtype="f32").init_params()
    rows = {}
    for concurrent in (False, True):
        monkeypatch.setattr(optimizer, "CONCURRENT_SIGNS", concurrent)
        rows[concurrent] = crns_variance_sweep(
            prob, params, rank=3, eps_list=[1e-2, 1e-3], replicates=6, B=7, b=4, master=4,
            dtype="f32",
        )
    assert rows[True] == rows[False]


def test_callers_on_many_threads_share_the_worker(monkeypatch):
    # four callers, each with its own batch size (so the worker's kept
    # blocks grow and are replaced while tasks hold the old ones), race for
    # the one worker with thread switches forced every microsecond
    monkeypatch.setattr(optimizer, "CONCURRENT_SIGNS", False)
    cfgs = [estimate_cfg(widths=[20, 12, 10, 8, 1], batch_B=B, dtype="f32") for B in (3, 9, 5, 12)]
    want = [[estimate(cfg, t) for t in (1, 2, 3)] for cfg in cfgs]
    monkeypatch.setattr(optimizer, "CONCURRENT_SIGNS", True)
    got = [None] * len(cfgs)

    def caller(k):
        got[k] = [estimate(cfgs[k], t) for t in (1, 2, 3)]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(cfgs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want


class PassError(Exception):
    pass


@pytest.mark.parametrize("concurrent", [False, True])
@pytest.mark.parametrize("failing", [(), (1,), (-1,), (1, -1)])
def test_errors_come_in_the_serial_order_after_both_passes(monkeypatch, concurrent, failing):
    ended, loss = [], optimizer.stochastic_loss

    def failing_loss(view, problem, drawn):
        try:
            if view.sign > 0:
                time.sleep(0.05)  # the +eps pass ends last
            if view.sign in failing:
                raise PassError(view.sign)
            return loss(view, problem, drawn)
        finally:
            ended.append(view.sign)

    monkeypatch.setattr(optimizer, "stochastic_loss", failing_loss)
    if failing:
        with pytest.raises(PassError) as err:
            estimate(estimate_cfg(), 1, concurrent, monkeypatch)
        assert err.value.args == (failing[0],)
    else:
        estimate(estimate_cfg(), 1, concurrent, monkeypatch)
    # no pass is still running once the call has returned or raised
    ran_minus = concurrent or 1 not in failing
    assert sorted(ended) == ([-1, 1] if ran_minus else [1])


def test_a_callers_errstate_reaches_the_worker(monkeypatch):
    seen = record_passes(monkeypatch)
    with np.errstate(under="raise", divide="ignore", invalid="print", over="raise"):
        want = np.geterr()
        estimate(estimate_cfg(), 1, True, monkeypatch)
    assert want != np.geterr()
    assert {sign: err for sign, _, err in seen} == {1: want, -1: want}
    assert len({thread for _, thread, _ in seen}) == 2


def test_the_worker_drops_each_finished_task(monkeypatch):
    cfg = estimate_cfg()
    monkeypatch.setattr(optimizer, "CONCURRENT_SIGNS", True)
    prob = cfg.make_problem()
    params = cfg.init_params()
    subs = make_subspaces(params, cfg)
    plus, _ = draw_signs(prob, cfg, 1)
    pair = SignPair(params, subs, step_cores(cfg.seed, subs, 1), cfg.eps)
    directional_delta(pair, prob, plus, plus)
    gone = weakref.ref(pair)
    del pair
    assert gone() is None


def overflow_cfg(**over):
    # the d = 20 allen_cahn f32 config whose step 6 overflows the f32 sweep
    # after step 5's estimate of 7.6e18 (unlocked), with criterion 7's lr block
    base = dict(
        seed=7, widths=[20, 16, 16, 1], activation="sin", dtype="f32", pde_kind="allen_cahn",
        crns=False, lr_mode="annealed", gamma=0.0424, m=400.0, p=0.51, steps=12, freq_F=5,
        batch_B=10, batch_b=4, eval_every=500, test_points=200,
    )
    base.update(over)
    return SdzeConfig(**base)


@pytest.mark.parametrize("concurrent", [False, True])
def test_an_overflow_in_the_sweep_is_a_divergence_naming_its_layer(monkeypatch, concurrent):
    # tier-1 runs with warnings as errors: no overflow warning may escape
    monkeypatch.setattr(optimizer, "CONCURRENT_SIGNS", concurrent)
    cfg = overflow_cfg()
    prob = cfg.make_problem()
    result = train(cfg, prob)
    deltas = [r.delta_hat for r in result.records]
    assert deltas[4] == pytest.approx(7.567e18, rel=1e-3)
    assert np.isfinite(deltas[:5]).all() and np.isnan(deltas[5:]).all()
    # unlocked: nan is recorded and no update is made
    part = train(dataclasses.replace(cfg, steps=5), prob)
    assert all(np.array_equal(W, V) for W, V in zip(part.params.weights, result.params.weights))
    locked = dataclasses.replace(cfg, crns=True)
    want = "layer 0 jet sweep overflows the step dtype float32"
    with pytest.raises(SdzeDivergenceError, match=want) as err:
        sdze_step(part.params, part.subspaces, prob, locked, 6)
    assert err.value.step == 6
    assert all(np.array_equal(W, V) for W, V in zip(part.params.weights, result.params.weights))


def test_the_gate_needs_pinned_blas_two_cpus_enough_work_and_a_locked_default_loss(monkeypatch):
    monkeypatch.setattr(optimizer, "_BLAS_ONE_THREAD", True)
    monkeypatch.setattr(optimizer, "_cpu_count", lambda: 2)

    def gate(cfg, locked=True, loss_fn=None):
        prob = cfg.make_problem()
        params = cfg.init_params()
        subs = make_subspaces(params, cfg)
        plus, minus = draw_signs(prob, dataclasses.replace(cfg, crns=locked), 1)
        pair = SignPair(params, subs, step_cores(cfg.seed, subs, 1), cfg.eps)
        return optimizer._concurrent(pair, plus, minus, loss_fn)

    # poisson100's step: 100 points x 32 directions x 128 x 128 = 52.4 M
    big = SdzeConfig(widths=[100, 128, 128, 1], bias=True, dtype="f32")
    assert 100 * 32 * 128 * 128 >= optimizer.CONCURRENT_MIN_MACS
    assert gate(big)
    assert not gate(big, locked=False)
    assert not gate(big, loss_fn=optimizer.stochastic_loss)
    # crns-sweep's net has one hidden layer: no tangent work
    assert not gate(SdzeConfig(widths=[100, 64, 1], batch_B=20))
    # criterion 8's shapes: 20 x 16 x 128 x 128 = 5.2 M; 24 points reach 6.3 M
    assert not gate(SdzeConfig(widths=[100, 128, 128, 1], batch_B=20, batch_b=8))
    assert gate(SdzeConfig(widths=[100, 128, 128, 1], batch_B=24, batch_b=8))
    monkeypatch.setattr(optimizer, "_cpu_count", lambda: 1)
    assert not gate(big)
    monkeypatch.setattr(optimizer, "_cpu_count", lambda: 2)
    monkeypatch.setattr(optimizer, "_BLAS_ONE_THREAD", False)
    assert not gate(big)
    # the switch forces either path, but never an unlocked or a custom loss
    monkeypatch.setattr(optimizer, "CONCURRENT_SIGNS", True)
    assert gate(SdzeConfig(widths=[100, 64, 1], batch_B=20))
    assert not gate(big, locked=False)
    assert not gate(big, loss_fn=optimizer.stochastic_loss)
    monkeypatch.setattr(optimizer, "CONCURRENT_SIGNS", False)
    monkeypatch.setattr(optimizer, "_BLAS_ONE_THREAD", True)
    assert not gate(big)


def run_python(code: str, env_over: dict, *args, cwd=None) -> str:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(env_over, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, cwd=cwd, capture_output=True, text=True,
        check=True,
    )
    return done.stdout


# the library's own count, where numpy's wheel ships OpenBLAS as scipy-openblas
LIBRARY_COUNT = """
import ctypes, glob, os, numpy
from sdze import optimizer
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                              "libscipy_openblas*.so"))
getter = [getattr(ctypes.CDLL(lib), name, None) for lib in libs
          for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")]
getter = [g for g in getter if g is not None]
print(optimizer._BLAS_ONE_THREAD, getter[0]() if getter else None)
"""


@pytest.mark.parametrize(
    "env, one_thread",
    [
        ({}, False),
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "2"}, False),
        ({"OMP_NUM_THREADS": "2"}, False),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
    ],
)
def test_the_gate_reads_the_blas_threads_as_openblas_does(env, one_thread):
    flag, count = run_python(LIBRARY_COUNT, env).split()
    assert flag == str(one_thread)
    if count != "None" and env:  # unset, the library takes one thread per CPU
        assert (int(count) == 1) == one_thread


TRAIN = """
import sys
from sdze import cli, optimizer
code = cli.main(sys.argv[1:])
print(optimizer._WORKER is not None)
sys.exit(code)
"""


def test_a_pinned_and_an_unpinned_train_write_the_same_bytes(tmp_path):
    # criterion 7's shapes: 100-128-128-1 with bias, f32, B = 100, b = 16, r = 16
    raw = {
        "pde": {"kind": "poisson", "dim": 100, "solution": "two_body"},
        "net": {"widths": [100, 128, 128, 1], "activation": "sin", "bias": True, "dtype": "f32"},
        "sdze": {
            "rank": 16, "freq_F": 1000, "eps": 1e-3,
            "lr": {"mode": "annealed", "gamma": 0.0424, "m": 400.0, "p": 0.51},
            "batch_points_B": 100, "batch_dims_b": 16,
        },
        "steps": 50, "eval_every": 25, "test_points": 200, "seed": 0,
    }
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    worker = {}
    for name, env in (("pinned", {"OPENBLAS_NUM_THREADS": "1"}), ("unpinned", {})):
        argv = ["train", "--config", "cfg.json", "--no-timing", "--out", name]
        worker[name] = run_python(TRAIN, env, *argv, cwd=tmp_path).split()[-1]
    assert worker["unpinned"] == "False"
    assert worker["pinned"] == str(optimizer._cpu_count() >= 2)
    files = sorted(p.name for p in (tmp_path / "pinned").iterdir())
    assert "ckpt_final.sdze" in files and "metrics.csv" in files
    for name in files:
        if name != "config.json":  # it echoes the output directory
            assert (tmp_path / "pinned" / name).read_bytes() == (
                tmp_path / "unpinned" / name
            ).read_bytes(), name


def test_concurrent_estimate_memory(monkeypatch, peak_spans):
    # Measured bytes (tracemalloc sees every thread) at criterion 8's shapes.
    # The concurrent estimate's whole peak may hold both signs' serial
    # loss-call peaks at once, plus the worker's two tangent blocks, plus
    # 4 KiB.  With the shared terms formed first, what is left is the two
    # sweeps, which must stay flat in d: growth <= 1.2x from d = 10^2 to
    # 10^4.  How much of the two passes' transients overlap varies with the
    # timing, so for that figure the -eps pass starts when the +eps pass
    # has ended.
    slack = 4096
    whole, bound, sweeps = {}, {}, {}
    estimate_span = peak_spans.measure(directional_delta, "estimate")
    loss, plus_done = optimizer.stochastic_loss, threading.Event()

    def in_turn(view, problem, drawn):
        if view.sign < 0:
            assert plus_done.wait(timeout=60)
        try:
            return loss(view, problem, drawn)
        finally:
            if view.sign > 0:
                plus_done.set()

    for d in (100, 1000, 10_000):
        cfg = SdzeConfig(
            seed=3, widths=[d, 128, 128, 1], dtype="f64", eps=1e-3, rank=16, batch_B=20,
            batch_b=8,
        )
        prob = cfg.make_problem()
        params = cfg.init_params()
        subs = make_subspaces(params, cfg)
        plus, _ = draw_signs(prob, cfg, 1)
        cores = step_cores(cfg.seed, subs, 1)

        def pair():
            return SignPair(params, subs, cores, cfg.eps)

        peak_spans.calls.clear()
        monkeypatch.setattr(optimizer, "CONCURRENT_SIGNS", True)
        monkeypatch.setattr(optimizer, "stochastic_loss", loss)
        want = estimate_span(pair(), prob, plus, plus)
        whole[d] = peak_spans.peaks("estimate")[-1]
        monkeypatch.setattr(optimizer, "stochastic_loss", in_turn)
        plus_done.clear()
        shared = pair()
        shared.share(plus.X, plus.dims)
        assert estimate_span(shared, prob, plus, plus) == want
        sweeps[d] = peak_spans.peaks("estimate")[-1]

        monkeypatch.setattr(optimizer, "CONCURRENT_SIGNS", False)
        monkeypatch.setattr(optimizer, "stochastic_loss", loss)
        peak_spans.wrap(optimizer, "stochastic_loss", key=lambda view, problem, drawn: view.sign)
        assert directional_delta(pair(), prob, plus, plus) == want
        signs = dict(peak_spans.calls["stochastic_loss"])
        blocks = 2 * JET_CHUNK * cfg.batch_B * 128 * 8
        bound[d] = signs[1] + signs[-1] + blocks + slack
    growth = max(sweeps.values()) / min(sweeps.values())
    assert all(whole[d] <= bound[d] for d in whole), (whole, bound)
    assert growth <= 1.2, sweeps
