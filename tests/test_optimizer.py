import dataclasses

import numpy as np
import pytest

from sdze.net import MlpParams, init_mlp
from sdze.optimizer import (
    SdzeConfig,
    SdzeDivergenceError,
    directional_delta,
    fullspace_zo_step,
    lr_schedule,
    make_subspaces,
    sdze_step,
    sdze_step_naive,
    train,
)
from sdze.rng import Role, StreamKey, derive_stream
from sdze.spatial import SpatialSample, make_problem
from sdze.subspace import sample_core
from sdze.verify import crns_variance_sweep, explicit_delta_w, flatten_params


def small_cfg(**over):
    base = dict(
        seed=9,
        widths=[6, 8, 1],
        eps=1e-3,
        lr_mode="constant",
        alpha=0.0,
        steps=1,
        rank=2,
        freq_F=5,
        batch_B=4,
        batch_b=3,
        eval_every=10,
        test_points=100,
    )
    base.update(over)
    return SdzeConfig(**base)


def cores_at(cfg, subs, t):
    return [
        sample_core(derive_stream(StreamKey(cfg.seed, Role.CORE_Z, t, l)), s.rank)
        for l, s in enumerate(subs)
    ]


def test_lr_schedule_values():
    c = small_cfg(lr_mode="annealed", gamma=1.0, m=0.0, p=1.0)
    assert lr_schedule(c, 1) == 1.0
    assert np.isclose(lr_schedule(c, 3), 1.0 / 3.0)
    c2 = small_cfg(lr_mode="sqrt_tq", c=1.0)
    assert np.isclose(lr_schedule(c2, 4, q=4), 0.25)
    c3 = small_cfg(lr_mode="constant", alpha=0.7)
    assert lr_schedule(c3, 123) == 0.7


def test_invalid_annealing_exponent_rejected():
    with pytest.raises(ValueError):
        small_cfg(lr_mode="annealed", p=0.4)


def test_config_collects_all_errors():
    with pytest.raises(ValueError) as err:
        SdzeConfig(eps=-1.0, lr_mode="bogus", steps=-3)
    msg = str(err.value)
    assert "eps" in msg and "lr_mode" in msg and "steps" in msg


def test_quadratic_surrogate_delta_is_exact_for_any_eps():
    # central differences are exact on quadratics: delta = grad^T (P z)
    cfg = small_cfg(eps=0.5, batch_b=2)
    prob = make_problem("none", 6, "two_body", cfg.seed)
    params = init_mlp(cfg.widths, "sin", cfg.seed)
    subs = make_subspaces(params, cfg)
    rng = np.random.default_rng(0)
    P = params.n_params
    Hm = rng.standard_normal((P, P))
    Hm = Hm @ Hm.T / P + np.eye(P)

    def quad_loss(view, problem, sample):
        theta = []
        for l, W in enumerate(view.params.weights):
            Wp = W.copy()
            if view.sign != 0:
                D = explicit_delta_w(view.subspaces[l], view.cores[l])
                Wp += view.sign * view.eps * D
            theta.append(Wp.reshape(-1, order="F"))
        th = np.concatenate(theta)
        return float(th @ Hm @ th)

    rec = sdze_step(params, subs, prob, cfg, 1, loss_fn=quad_loss)
    grad = 2 * Hm @ flatten_params(params)
    pz = np.concatenate(
        [
            explicit_delta_w(s, Z).reshape(-1, order="F")
            for s, Z in zip(subs, cores_at(cfg, subs, 1))
        ]
    )
    want = float(grad @ pz)
    assert abs(rec.delta_hat - want) <= 1e-8 * max(1.0, abs(want))


def test_zero_core_gives_zero_delta_and_no_update():
    cfg = small_cfg()
    prob = make_problem("none", 6, "two_body", cfg.seed)
    params = init_mlp(cfg.widths, "sin", cfg.seed)
    subs = make_subspaces(params, cfg)
    zero = [np.zeros((s.rank, s.rank)) for s in subs]
    sample = SpatialSample(cfg.seed, 1, cfg.batch_B, cfg.batch_b, 6)
    delta, lp, lm = directional_delta(params, subs, zero, prob, sample, cfg.eps)
    assert delta == 0.0 and lp == lm


def test_pinn_delta_matches_explicit_materialization():
    cfg = small_cfg(batch_b=3, batch_B=4)
    prob = make_problem("allen_cahn", 6, "two_body", cfg.seed)
    params = init_mlp(cfg.widths, "sin", cfg.seed)
    subs = make_subspaces(params, cfg)
    rec = sdze_step(params, subs, prob, cfg, 1)

    from sdze.spatial import rhs_eval, sampled_operator

    sample = SpatialSample(cfg.seed, 1, 4, 3, 6)
    deltas = [explicit_delta_w(s, Z) for s, Z in zip(subs, cores_at(cfg, subs, 1))]

    def explicit_loss(weights):
        from sdze.net import plain_view

        view = plain_view(MlpParams(weights, "sin"))
        X = sample.points()
        f = rhs_eval(prob, X)
        r1 = sampled_operator(view, prob, X, sample.set1()) - f
        r2 = sampled_operator(view, prob, X, sample.set2()) - f
        return float(r1 @ r2 / (2 * sample.B * prob.kappa))

    lp = explicit_loss([W + cfg.eps * D for W, D in zip(params.weights, deltas)])
    lm = explicit_loss([W - cfg.eps * D for W, D in zip(params.weights, deltas)])
    want = (lp - lm) / (2 * cfg.eps)
    assert abs(rec.delta_hat - want) <= 1e-10 * max(1.0, abs(want))


def test_update_direction_matches_oracle():
    cfg = small_cfg(lr_mode="constant", alpha=0.05)
    prob = make_problem("none", 6, "two_body", cfg.seed)
    params = init_mlp(cfg.widths, "sin", cfg.seed)
    before = [W.copy() for W in params.weights]
    subs = make_subspaces(params, cfg)
    rec = sdze_step(params, subs, prob, cfg, 1)
    deltas = [explicit_delta_w(s, Z) for s, Z in zip(subs, cores_at(cfg, subs, 1))]
    for W0, W1, D in zip(before, params.weights, deltas):
        want = W0 - 0.05 * rec.delta_hat * D
        assert np.abs(W1 - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_naive_equals_locked_under_full_spatial_sampling():
    cfg = small_cfg(widths=[4, 6, 1], batch_b=4, lr_mode="constant", alpha=0.01)
    prob = make_problem("none", 4, "two_body", cfg.seed)
    pa = init_mlp(cfg.widths, "sin", cfg.seed)
    pb = init_mlp(cfg.widths, "sin", cfg.seed)
    sa, sb = make_subspaces(pa, cfg), make_subspaces(pb, cfg)
    ra = sdze_step(pa, sa, prob, cfg, 1)
    rb = sdze_step(pb, sb, prob, dataclasses.replace(cfg, crns=False), 1)
    assert ra.delta_hat == rb.delta_hat
    assert all(np.array_equal(a, b) for a, b in zip(pa.weights, pb.weights))


def test_sdze_step_naive_is_the_unlocked_step():
    cfg = small_cfg(batch_b=2, alpha=0.01)
    prob = make_problem("none", 6, "two_body", cfg.seed)
    pa = init_mlp(cfg.widths, "sin", cfg.seed)
    pb = init_mlp(cfg.widths, "sin", cfg.seed)
    sa, sb = make_subspaces(pa, cfg), make_subspaces(pb, cfg)
    ra = sdze_step_naive(pa, sa, prob, cfg, 1)
    rb = sdze_step(pb, sb, prob, dataclasses.replace(cfg, crns=False), 1)
    assert (ra.delta_hat, ra.loss_minus) == (rb.delta_hat, rb.loss_minus)
    assert all(np.array_equal(a, b) for a, b in zip(pa.weights, pb.weights))
    pc = init_mlp(cfg.widths, "sin", cfg.seed)
    locked = sdze_step(pc, make_subspaces(pc, cfg), prob, cfg, 1)
    assert locked.loss_minus != ra.loss_minus


def test_richardson_eps_squared_truncation():
    # with the sample and direction locked, the symmetric difference has only
    # even truncation terms: halving eps shrinks consecutive gaps ~4x
    cfg = small_cfg(widths=[5, 7, 1], batch_b=2, batch_B=3)
    prob = make_problem("sine_gordon", 5, "two_body", cfg.seed)
    params = init_mlp(cfg.widths, "sin", cfg.seed)
    subs = make_subspaces(params, cfg)
    cores = cores_at(cfg, subs, 1)
    sample = SpatialSample(cfg.seed, 1, 3, 2, 5)
    deltas = {}
    for eps in (0.08, 0.04, 0.02):
        deltas[eps], _, _ = directional_delta(params, subs, cores, prob, sample, eps)
    top = deltas[0.08] - deltas[0.04]
    bot = deltas[0.04] - deltas[0.02]
    assert abs(bot) > 1e-8 * abs(deltas[0.02])
    assert 3.5 <= top / bot <= 4.5


def test_divergence_handling_locked_vs_naive():
    cfg = small_cfg()
    prob = make_problem("none", 6, "two_body", cfg.seed)
    params = init_mlp(cfg.widths, "sin", cfg.seed)
    subs = make_subspaces(params, cfg)

    def bad_loss(view, problem, sample):
        return np.inf if view.sign > 0 else 1.0

    with pytest.raises(SdzeDivergenceError) as err:
        sdze_step(params, subs, prob, cfg, 3, loss_fn=bad_loss)
    assert err.value.step == 3 and err.value.sample.step == 3

    rec = sdze_step(
        params, subs, prob, dataclasses.replace(cfg, crns=False), 3, loss_fn=bad_loss
    )
    assert not np.isfinite(rec.delta_hat)  # recorded, not raised


def test_small_scale_variance_blowup_of_unlocked_mode():
    prob = make_problem("none", 20, "two_body", 3)
    params = init_mlp([20, 10, 1], "sin", 3)
    rows, slope_crns, slope_naive = crns_variance_sweep(
        prob, params, rank=4, eps_list=[1e-2, 1e-3, 1e-4], replicates=120, B=5, b=2, master=3
    )
    v = {(r["mode"], r["eps"]): r["variance"] for r in rows}
    crns = [v[("crns", e)] for e in (1e-2, 1e-3, 1e-4)]
    assert max(crns) / min(crns) < 2.0
    assert v[("naive", 1e-4)] / v[("naive", 1e-3)] > 30.0  # ~eps^-2 growth
    assert slope_naive < -1.5


def test_fullspace_quadratic_statistics():
    # E[g_hat] ~ grad within 2% and E||g_hat||^2 ~ (P+2)||grad||^2 within 5%
    P = 10
    Hq = np.diag(np.linspace(1.0, 3.0, P))
    rng = np.random.default_rng(7)
    theta0 = rng.standard_normal(P)
    grad = 2 * Hq @ theta0
    cfg = small_cfg(
        widths=[P, 1], eps=1e-4, lr_mode="constant", alpha=0.0, batch_B=1, batch_b=1, seed=31
    )

    def qloss(params):
        th = params.weights[0][:, 0]
        return float(th @ Hq @ th)

    n = 100_000
    acc = np.zeros(P)
    acc2 = 0.0
    params = MlpParams([theta0.copy().reshape(P, 1)], "sin")
    for t in range(1, n + 1):
        rec = fullspace_zo_step(params, None, cfg, t, loss_fn=qloss)
        z = derive_stream(StreamKey(cfg.seed, Role.FULLSPACE_Z, t, 0)).normals(P)
        gh = rec.delta_hat * z
        acc += gh
        acc2 += gh @ gh
    mean_err = np.linalg.norm(acc / n - grad) / np.linalg.norm(grad)
    second = (acc2 / n) / ((P + 2) * (grad @ grad))
    assert mean_err <= 0.02
    assert abs(second - 1.0) <= 0.05
    # alpha = 0 and the in-place walk restores parameters up to rounding
    assert np.abs(params.weights[0][:, 0] - theta0).max() <= 1e-9


def test_fullspace_identical_seeds_identical_trajectory():
    prob = make_problem("none", 5, "two_body", 4)
    runs = []
    for _ in range(2):
        cfg = small_cfg(widths=[5, 6, 1], seed=4, lr_mode="constant", alpha=1e-3)
        params = init_mlp(cfg.widths, "sin", 4)
        for t in range(1, 6):
            fullspace_zo_step(params, prob, cfg, t)
        runs.append([W.copy() for W in params.weights])
    assert all(np.array_equal(a, b) for a, b in zip(*runs))


def test_fullspace_zero_step_size_leaves_weights_bitwise():
    prob = make_problem("none", 5, "two_body", 4)
    cfg = small_cfg(widths=[5, 6, 1], seed=4, lr_mode="constant", alpha=0.0)
    params = init_mlp(cfg.widths, "sin", 4)
    before = [W.copy() for W in params.weights]
    for t in range(1, 21):
        rec = fullspace_zo_step(params, prob, cfg, t)
        assert rec.delta_hat != 0.0
    assert all(np.array_equal(a, b) for a, b in zip(before, params.weights))


def test_train_zero_steps_and_initial_eval():
    cfg = small_cfg(steps=0)
    prob = make_problem("none", 6, "two_body", cfg.seed)
    result = train(cfg, prob)
    assert result.records == []
    assert len(result.evals) == 1 and result.evals[0][0] == 0


def test_train_is_deterministic():
    cfg = small_cfg(steps=6, lr_mode="constant", alpha=1e-3)
    prob = make_problem("none", 6, "two_body", cfg.seed)
    r1 = train(cfg, prob)
    r2 = train(cfg, prob)
    assert [r.delta_hat for r in r1.records] == [r.delta_hat for r in r2.records]
    assert all(np.array_equal(a, b) for a, b in zip(r1.params.weights, r2.params.weights))
    assert r1.evals == r2.evals


def test_train_resume_matches_uninterrupted():
    cfg = small_cfg(steps=8, lr_mode="constant", alpha=1e-3, freq_F=3)
    prob = make_problem("none", 6, "two_body", cfg.seed)
    full = train(cfg, prob)
    half = train(dataclasses.replace(cfg, steps=4), prob)
    resumed = train(cfg, prob, init_params=half.params, start_step=4)
    assert all(
        np.array_equal(a, b) for a, b in zip(full.params.weights, resumed.params.weights)
    )
    assert [r.delta_hat for r in full.records[4:]] == [
        r.delta_hat for r in resumed.records
    ]
