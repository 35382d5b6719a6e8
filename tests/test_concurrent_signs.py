"""The two signs of an estimate on two threads, or stacked in one sweep: same
bits, same errors, same memory.

Every test that needs one path forces it through the gate's own inputs
(the ``force_path`` fixture), so the real gate picks it; the fixture moves
the work threshold, which most shapes here are below.  A test that injects a
loss sets ``optimizer.stochastic_loss``, which the serial path calls once, at
the stack of both signs, and the concurrent path once per sign.
"""

import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from sdze import net, optimizer, worker
from sdze.net import JET_CHUNK, PerturbView, SignPair
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


def estimate(cfg, t=1):
    """``directional_delta`` of step ``t``'s perturbation on a fresh pair."""
    prob = cfg.make_problem()
    params = cfg.init_params()
    subs = make_subspaces(params, cfg)
    plus, minus = draw_signs(prob, cfg, t)
    pair = SignPair(params, subs, step_cores(cfg.seed, subs, t), cfg.eps, DTYPES[cfg.dtype])
    return directional_delta(pair, prob, plus, minus)


def record_passes(monkeypatch):
    """Wrap the default loss: each call appends (sign, thread, np.geterr()) to the
    list, the sign being the view's: one sign, or the stack (1, -1)."""
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
def test_both_paths_give_the_same_bits(monkeypatch, force_path, depth, bias, act, dtype):
    cfg = estimate_cfg(widths=HIDDEN[depth], bias=bias, activation=act, dtype=dtype)
    seen = record_passes(monkeypatch)
    for t in (1, 2):
        force_path(False)
        serial = estimate(cfg, t)
        force_path(True)
        concurrent = estimate(cfg, t)
        assert concurrent == serial
        assert serial[1] != serial[2]
    # serial: one call here at both signs; concurrent: the +eps pass on the worker
    caller = threading.get_ident()
    here = [(sign, thread == caller) for sign, thread, _ in seen[:3]]
    assert here[0] == ((1, -1), True)
    assert sorted(here[1:]) == [(-1, True), (1, False)]
    assert len(seen) == 6


@pytest.mark.parametrize(
    "concurrent, locked, sweeps",
    [(False, True, [(1, -1)]), (True, True, [(-1,), (1,)]), (False, False, [(-1,), (1,)])],
)
def test_a_locked_serial_estimate_is_one_jet_sweep(
    monkeypatch, force_path, concurrent, locked, sweeps
):
    # the serial path sweeps both signs of a locked sample at once; the
    # concurrent path and the unlocked ablation sweep each sign on its own
    seen, raw_jets = [], net._raw_jets

    def counted(pair, signs, *args):
        seen.append(signs)
        return raw_jets(pair, signs, *args)

    monkeypatch.setattr(net, "_raw_jets", counted)
    force_path(concurrent)
    estimate(estimate_cfg(crns=locked))
    assert sorted(seen) == sweeps


def test_a_pinned_batch_sweep_gives_the_same_rows_on_both_paths(force_path):
    # one pair serves every replicate of an eps: the first concurrent
    # estimate forms both signs' planes at once, the later ones read them
    prob = estimate_cfg().make_problem()
    params = estimate_cfg(dtype="f32").init_params()
    rows = {}
    for concurrent in (False, True):
        force_path(concurrent)
        rows[concurrent] = crns_variance_sweep(
            prob, params, rank=3, eps_list=[1e-2, 1e-3], replicates=6, B=7, b=4, master=4,
            dtype="f32",
        )
    assert rows[True] == rows[False]


def test_callers_on_many_threads_share_the_worker(force_path):
    # four callers, each with its own batch size (so the worker's kept
    # blocks grow and are replaced while tasks hold the old ones), race for
    # the one worker with thread switches forced every microsecond
    force_path(False)
    cfgs = [estimate_cfg(widths=[20, 12, 10, 8, 1], batch_B=B, dtype="f32") for B in (3, 9, 5, 12)]
    want = [[estimate(cfg, t) for t in (1, 2, 3)] for cfg in cfgs]
    force_path(True)
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
def test_errors_come_in_the_serial_order_after_both_passes(
    monkeypatch, force_path, concurrent, failing
):
    # a stacked call fails at its first failing sign, in the stack's order
    ended, loss = [], optimizer.stochastic_loss

    def failing_loss(view, problem, drawn):
        try:
            if 1 in view.signs:
                time.sleep(0.05)  # the +eps pass ends last
            for sign in view.signs:
                if sign in failing:
                    raise PassError(sign)
            return loss(view, problem, drawn)
        finally:
            ended.append(view.sign)

    monkeypatch.setattr(optimizer, "stochastic_loss", failing_loss)
    force_path(concurrent)
    if failing:
        with pytest.raises(PassError) as err:
            estimate(estimate_cfg())
        assert err.value.args == (failing[0],)
    else:
        estimate(estimate_cfg())
    # no pass is still running once the call has returned or raised; the
    # serial path is one call at both signs
    assert sorted(ended, key=str) == ([-1, 1] if concurrent else [(1, -1)])


def test_a_callers_errstate_reaches_the_worker(monkeypatch, force_path):
    seen = record_passes(monkeypatch)
    force_path(True)
    with np.errstate(under="raise", divide="ignore", invalid="print", over="raise"):
        want = np.geterr()
        estimate(estimate_cfg())
    assert want != np.geterr()
    assert {sign: err for sign, _, err in seen} == {1: want, -1: want}
    assert len({thread for _, thread, _ in seen}) == 2


def test_the_worker_drops_each_finished_task(force_path):
    cfg = estimate_cfg()
    force_path(True)
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
    # after step 5's estimate of -2.1e30 (unlocked), with criterion 7's lr block
    base = dict(
        seed=7, widths=[20, 16, 16, 1], activation="sin", dtype="f32", pde_kind="allen_cahn",
        crns=False, lr_mode="annealed", gamma=0.0424, m=400.0, p=0.51, steps=12, freq_F=5,
        batch_B=10, batch_b=4, eval_every=500, test_points=200,
    )
    base.update(over)
    return SdzeConfig(**base)


@pytest.mark.parametrize("concurrent", [False, True])
def test_an_overflow_in_the_sweep_is_a_divergence_naming_its_layer(force_path, concurrent):
    # tier-1 runs with warnings as errors: no overflow warning may escape
    force_path(concurrent)
    cfg = overflow_cfg()
    prob = cfg.make_problem()
    result = train(cfg, prob)
    deltas = [r.delta_hat for r in result.records]
    assert deltas[4] == pytest.approx(-2.077e30, rel=1e-3)
    assert np.isfinite(deltas[:5]).all() and np.isnan(deltas[5:]).all()
    # unlocked: nan is recorded and no update is made
    part = train(dataclasses.replace(cfg, steps=5), prob)
    assert all(np.array_equal(W, V) for W, V in zip(part.params.weights, result.params.weights))
    locked = dataclasses.replace(cfg, crns=True)
    want = "layer 1 jet sweep overflows the step dtype float32"
    with pytest.raises(SdzeDivergenceError, match=want) as err:
        sdze_step(part.params, part.subspaces, prob, locked, 6)
    assert err.value.step == 6
    assert all(np.array_equal(W, V) for W, V in zip(part.params.weights, result.params.weights))


def test_train_names_the_step_of_a_divergence():
    # a locked run resumed from the unlocked run's step 5 diverges at step 6 of 12
    cfg = overflow_cfg()
    prob = cfg.make_problem()
    part = train(dataclasses.replace(cfg, steps=5), prob)
    locked = dataclasses.replace(cfg, crns=True)
    want = r"^non-finite loss: .*\(layer 1 jet sweep overflows.* step=6 \(of 12\) B=10 "
    with pytest.raises(SdzeDivergenceError, match=want) as err:
        train(locked, prob, init_params=part.params, start_step=5)
    assert err.value.step == 6
    # the step is named once
    assert re.findall(r"step\W+\d", str(err.value)) == ["step=6"]


def test_the_gate_needs_a_locked_sample_enough_work_pinned_blas_two_cpus(monkeypatch):
    monkeypatch.setattr(worker, "_BLAS_ONE_THREAD", True)
    monkeypatch.setattr(worker, "_cpu_count", lambda: 2)

    def gate(cfg, locked=True):
        prob = cfg.make_problem()
        params = cfg.init_params()
        subs = make_subspaces(params, cfg)
        plus, minus = draw_signs(prob, dataclasses.replace(cfg, crns=locked), 1)
        pair = SignPair(params, subs, step_cores(cfg.seed, subs, 1), cfg.eps, DTYPES[cfg.dtype])
        return optimizer._concurrent(pair, plus, minus)

    # poisson100's step: 100 points x 32 directions x 128 x 128 = 52.4 M
    big = SdzeConfig(widths=[100, 128, 128, 1], bias=True, dtype="f32")
    assert 100 * 32 * 128 * 128 >= optimizer.CONCURRENT_MIN_MACS
    assert gate(big)
    assert not gate(big, locked=False)
    # a writable batch is formed again by each pass
    prob, params = big.make_problem(), big.init_params()
    subs = make_subspaces(params, big)
    plus, _ = draw_signs(prob, big, 1)
    pair = SignPair(params, subs, step_cores(big.seed, subs, 1), big.eps)
    writable = dataclasses.replace(plus, sets=net.index_sets(plus.X.copy(), plus.dims, [16, 16]))
    assert optimizer._concurrent(pair, plus, plus)
    assert not optimizer._concurrent(pair, writable, writable)
    # crns-sweep's net has one hidden layer: no tangent work
    assert not gate(SdzeConfig(widths=[100, 64, 1], batch_B=20))
    # criterion 8's shapes: 20 x 16 x 128 x 128 = 5.2 M; in f32, 46 points
    # reach 12.1 M; in f64, whose multiply-adds count twice, 23 points 6.0 M
    for dtype, edge in (("f32", 46), ("f64", 23)):
        for B in (20, edge - 1):
            assert not gate(SdzeConfig(widths=[100, 128, 128, 1], dtype=dtype, batch_B=B, batch_b=8))
        assert gate(SdzeConfig(widths=[100, 128, 128, 1], dtype=dtype, batch_B=edge, batch_b=8))
    monkeypatch.setattr(worker, "_cpu_count", lambda: 1)
    assert not gate(big)
    monkeypatch.setattr(worker, "_cpu_count", lambda: 2)
    monkeypatch.setattr(worker, "_BLAS_ONE_THREAD", False)
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
from sdze import worker
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                              "libscipy_openblas*.so"))
getter = [getattr(ctypes.CDLL(lib), name, None) for lib in libs
          for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")]
getter = [g for g in getter if g is not None]
print(worker._BLAS_ONE_THREAD, getter[0]() if getter else None)
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
from sdze import cli, worker
code = cli.main(sys.argv[1:])
print(worker._WORKER is not None)
sys.exit(code)
"""


def test_a_pinned_and_an_unpinned_train_write_the_same_bytes(tmp_path):
    # criterion 7's shapes: 100-128-128-1 with bias, f32, B = 100, b = 16, r = 16;
    # 600 test points are two row blocks, which the pinned run evaluates on
    # two threads
    raw = {
        "pde": {"kind": "poisson", "dim": 100, "solution": "two_body"},
        "net": {"widths": [100, 128, 128, 1], "activation": "sin", "bias": True, "dtype": "f32"},
        "sdze": {
            "rank": 16, "freq_F": 1000, "eps": 1e-3,
            "lr": {"mode": "annealed", "gamma": 0.0424, "m": 400.0, "p": 0.51},
            "batch_points_B": 100, "batch_dims_b": 16,
        },
        "steps": 50, "eval_every": 25, "test_points": 600, "seed": 0,
    }
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    started = {}
    for name, env in (("pinned", {"OPENBLAS_NUM_THREADS": "1"}), ("unpinned", {})):
        argv = ["train", "--config", "cfg.json", "--no-timing", "--out", name]
        started[name] = run_python(TRAIN, env, *argv, cwd=tmp_path).split()[-1]
    assert started["unpinned"] == "False"
    assert started["pinned"] == str(worker._cpu_count() >= 2)
    files = sorted(p.name for p in (tmp_path / "pinned").iterdir())
    assert "ckpt_final.sdze" in files and "metrics.csv" in files
    for name in files:
        if name != "config.json":  # it echoes the output directory
            assert (tmp_path / "pinned" / name).read_bytes() == (
                tmp_path / "unpinned" / name
            ).read_bytes(), name


def test_concurrent_estimate_memory(monkeypatch, force_path, peak_spans):
    # Measured bytes (tracemalloc sees every thread) at criterion 8's shapes.
    # The concurrent estimate's whole peak may hold both signs' one-sign
    # loss-call peaks at once, plus 4 KiB: a pair without a workspace keeps
    # no tangent blocks on either thread, so each sign's peak holds its own.
    # So may the serial path's one loss call at the stack of both signs.
    # The worker is started first, as any earlier concurrent estimate leaves
    # it: its thread is not the estimate's.  With the shared terms formed
    # first, what is left is the two sweeps, which must stay flat in d:
    # growth <= 1.2x from d = 10^2 to 10^4.  How much of the two passes'
    # transients overlap varies with the timing, so for that figure the -eps
    # pass starts when the +eps pass has ended.
    slack = 4096
    whole, stacked, bound, sweeps = {}, {}, {}, {}
    worker._sign_worker()
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
        force_path(True)
        monkeypatch.setattr(optimizer, "stochastic_loss", loss)
        want = estimate_span(pair(), prob, plus, plus)
        whole[d] = peak_spans.peaks("estimate")[-1]
        monkeypatch.setattr(optimizer, "stochastic_loss", in_turn)
        plus_done.clear()
        shared = pair()
        shared.share(plus.sets)
        assert estimate_span(shared, prob, plus, plus) == want
        sweeps[d] = peak_spans.peaks("estimate")[-1]

        force_path(False)
        monkeypatch.setattr(optimizer, "stochastic_loss", loss)
        peak_spans.wrap(optimizer, "stochastic_loss", key=lambda view, problem, drawn: view.sign)
        assert directional_delta(pair(), prob, plus, plus) == want
        for sign in (1, -1):
            optimizer.stochastic_loss(PerturbView(pair(), sign), prob, plus)
        signs = dict(peak_spans.calls["stochastic_loss"])
        stacked[d] = signs[1, -1]
        bound[d] = signs[1] + signs[-1] + slack
    growth = max(sweeps.values()) / min(sweeps.values())
    assert all(whole[d] <= bound[d] for d in whole), (whole, bound)
    assert all(stacked[d] <= bound[d] for d in stacked), (stacked, bound)
    assert growth <= 1.2, sweeps
