import dataclasses
import re
from collections import Counter

import numpy as np
import pytest

from sdze import net, optimizer, spatial, verify
from sdze.net import MlpParams, PerturbView, SignPair, init_mlp
from sdze.optimizer import (
    DTYPES,
    ConfigError,
    SdzeConfig,
    SdzeDivergenceError,
    directional_delta,
    lr_schedule,
    make_subspaces,
    sdze_step,
    sdze_step_naive,
    train,
)
from sdze.rng import Role, StreamKey, derive_stream
from sdze.spatial import SpatialSample, draw_sample, make_problem, rhs_eval
from sdze.subspace import sample_core, subspace_for_layer
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
        SdzeConfig(eps=-1.0, lr_mode="bogus", steps=-3, eval_every=0, test_points=-1)
    msg = str(err.value)
    assert "eps" in msg and "lr_mode" in msg and "steps" in msg
    assert "eval_every must be >= 1" in msg and "test_points must be >= 1" in msg


def test_quadratic_surrogate_delta_is_exact_for_any_eps(monkeypatch):
    # central differences are exact on quadratics: delta = grad^T (P z)
    cfg = small_cfg(eps=0.5, batch_b=2)
    prob = make_problem("none", 6, "two_body", cfg.seed)
    params = init_mlp(cfg.widths, "sin", cfg.seed)
    subs = make_subspaces(params, cfg)
    rng = np.random.default_rng(0)
    P = flatten_params(params).size
    Hm = rng.standard_normal((P, P))
    Hm = Hm @ Hm.T / P + np.eye(P)

    def quad(view, sign):
        theta = []
        for l, W in enumerate(view.params.weights):
            Wp = W.copy()
            if sign != 0:
                pair = view.pair
                D = explicit_delta_w(pair.subspaces[l], pair.cores[l])
                Wp += sign * pair.eps * D
            theta.append(Wp.reshape(-1, order="F"))
        th = np.concatenate(theta)
        return float(th @ Hm @ th)

    def quad_loss(view, problem, sample):  # one loss per sign of a stack
        losses = tuple(quad(view, sign) for sign in view.signs)
        return losses if type(view.sign) is tuple else losses[0]

    monkeypatch.setattr(optimizer, "stochastic_loss", quad_loss)
    rec = sdze_step(params, subs, prob, cfg, 1)
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
    drawn = draw_sample(prob, SpatialSample(cfg.seed, 1, cfg.batch_B, cfg.batch_b, 6))
    delta, lp, lm = directional_delta(SignPair(params, subs, zero, cfg.eps), prob, drawn, drawn)
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
        I1, I2 = sample.set1(), sample.set2()
        ops = sampled_operator(view, prob, X, np.concatenate([I1, I2]), [I1.size, I2.size])
        r1, r2 = ops - f
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
    drawn = draw_sample(prob, SpatialSample(cfg.seed, 1, 3, 2, 5))
    deltas = {}
    for eps in (0.08, 0.04, 0.02):
        deltas[eps], _, _ = directional_delta(SignPair(params, subs, cores, eps), prob, drawn, drawn)
    top = deltas[0.08] - deltas[0.04]
    bot = deltas[0.04] - deltas[0.02]
    assert abs(bot) > 1e-8 * abs(deltas[0.02])
    assert 3.5 <= top / bot <= 4.5


def test_divergence_handling_locked_vs_naive(monkeypatch):
    cfg = small_cfg()
    prob = make_problem("none", 6, "two_body", cfg.seed)
    params = init_mlp(cfg.widths, "sin", cfg.seed)
    subs = make_subspaces(params, cfg)

    def bad_loss(view, problem, drawn):
        losses = tuple(np.inf if sign > 0 else 1.0 for sign in view.signs)
        return losses if type(view.sign) is tuple else losses[0]

    monkeypatch.setattr(optimizer, "stochastic_loss", bad_loss)
    with pytest.raises(SdzeDivergenceError) as err:
        sdze_step(params, subs, prob, cfg, 3)
    assert err.value.step == 3 and err.value.sample.step == 3

    rec = sdze_step(params, subs, prob, dataclasses.replace(cfg, crns=False), 3)
    assert not np.isfinite(rec.delta_hat)  # recorded, not raised
    assert rec.wall_ms > 0  # and timed like any other step


@pytest.mark.parametrize("crns", [True, False])
@pytest.mark.parametrize("act", ["sin", "tanh_scaled"])
def test_weights_past_the_step_dtype_range_are_a_divergence(act, crns):
    # f64 master weights at 1e39 have no f32 value: locked, the step raises
    # naming the layer and the dtype; unlocked, it records a non-finite
    # estimate and makes no update.  No cast warning escapes either way.
    cfg = small_cfg(widths=[6, 5, 4, 1], activation=act, dtype="f32", crns=crns, alpha=1e-3)
    prob = cfg.make_problem()
    for layer in (0, 1, 2):
        params = cfg.init_params()
        params.weights[layer][0, 0] = 1e39
        before = [W.copy() for W in params.weights]
        subs = make_subspaces(params, cfg)
        if crns:
            want = f"layer {layer} weights overflow the step dtype float32"
            with pytest.raises(SdzeDivergenceError, match=want) as err:
                sdze_step(params, subs, prob, cfg, 1)
            assert err.value.step == 1 and err.value.sample.step == 1
        else:
            rec = sdze_step(params, subs, prob, cfg, 1)
            assert np.isnan(rec.delta_hat) and np.isnan(rec.loss_plus)
            assert np.isnan(rec.loss_minus)
        assert all(np.array_equal(W, V) for W, V in zip(params.weights, before))


def test_a_failing_float32_step_replays_from_its_printed_keys(monkeypatch):
    # the message names every key of the step's sample, the batch dtype
    # included: the sample drawn from them is the step's, bit for bit
    cfg = small_cfg(widths=[6, 5, 4, 1], dtype="f32", batch_B=7)
    prob = cfg.make_problem()
    params = cfg.init_params()
    params.weights[1][0, 0] = 1e39
    seen = []

    def recording(problem, sample, batch=None, work=None):
        seen.append(spatial.draw_sample(problem, sample, batch, work))
        return seen[-1]

    monkeypatch.setattr(optimizer, "draw_sample", recording)
    with pytest.raises(SdzeDivergenceError) as err:
        sdze_step(params, make_subspaces(params, cfg), prob, cfg, 4)
    keys = dict(re.findall(r"(\w+)=(\w+)", str(err.value).split("replay keys:")[1]))
    assert keys == {"master": "9", "step": "4", "B": "7", "b": "3", "dtype": "float32"}
    sample = SpatialSample(
        int(keys["master"]), int(keys["step"]), int(keys["B"]), int(keys["b"]), prob.dim,
        dtype=keys["dtype"],
    )
    (step_draw,) = seen
    replay = spatial.draw_sample(prob, sample)
    assert replay.sample == step_draw.sample and replay.X.dtype == np.float32
    for name in ("X", "f", "dims"):
        assert getattr(replay, name).tobytes() == getattr(step_draw, name).tobytes(), name


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


def test_train_zero_steps_and_initial_eval():
    cfg = small_cfg(steps=0)
    prob = make_problem("none", 6, "two_body", cfg.seed)
    result = train(cfg, prob)
    assert result.records == []
    assert len(result.evals) == 1 and result.evals[0][0] == 0


def test_train_refuses_index_sets_larger_than_the_dimension_before_any_work(monkeypatch):
    calls = []
    monkeypatch.setattr(optimizer, "relative_l2", lambda *args: calls.append(args))
    cfg = SdzeConfig(widths=[3, 8, 1], steps=2, test_points=16)  # the default b = 16
    with pytest.raises(ConfigError, match=r"^sdze\.batch_dims_b = 16 exceeds pde\.dim = 3"):
        train(cfg, cfg.make_problem())
    assert calls == []


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


def per_sign_loss(view, problem, sample):
    """The loss as each pass once computed it, from its own fresh draw of ``sample``."""
    X = sample.points()
    I1, I2 = sample.set1(), sample.set2()
    u, sums = view.jet_eval(X, np.concatenate([I1, I2]), [I1.size, I2.size])
    nl = problem.nonlinearity(u)
    f = rhs_eval(problem, X)
    r1 = (problem.n_terms / I1.size) * sums[0] + nl - f
    r2 = (problem.n_terms / I2.size) * sums[1] + nl - f
    return float(np.dot(r1, r2) / (2.0 * sample.B * problem.kappa))


def per_sign_delta(params, subs, cores, problem, sample, eps, locked, dtype="f64"):
    """Reference estimate: every pass draws the whole sample itself."""
    np_dtype = np.dtype(DTYPES[dtype])
    minus = sample if locked else dataclasses.replace(sample, set_replicate=1)

    def view(sign):
        return PerturbView(SignPair(params, subs, cores, eps, np_dtype), sign)

    lp = per_sign_loss(view(+1), problem, sample)
    lm = per_sign_loss(view(-1), problem, minus)
    return (lp - lm) / (2.0 * eps), lp, lm


@pytest.mark.parametrize("locked", [True, False])
@pytest.mark.parametrize("dtype", ["f64", "f32"])
@pytest.mark.parametrize("kind", ["allen_cahn"])
def test_directional_delta_equals_per_sign_draws_bitwise(locked, dtype, kind):
    # a bias network with unsplit / rows-split layers, and a no-bias one whose
    # 4 x 12 hidden layer splits by columns
    for widths, bias in (([6, 8, 8, 1], True), ([6, 4, 12, 1], False)):
        cfg = small_cfg(widths=widths, bias=bias, batch_B=5, batch_b=3, dtype=dtype)
        prob = make_problem(kind, 6, "two_body", cfg.seed)
        params = cfg.init_params()
        subs = make_subspaces(params, cfg)
        for t in (1, 2):
            sample = SpatialSample(cfg.seed, t, cfg.batch_B, cfg.batch_b, 6, dtype=DTYPES[dtype])
            cores = cores_at(cfg, subs, t)
            plus = draw_sample(prob, sample)
            minus = plus if locked else draw_sample(prob, sample.unlocked(), batch=plus)
            pair = SignPair(params, subs, cores, cfg.eps, DTYPES[dtype])
            got = directional_delta(pair, prob, plus, minus)
            want = per_sign_delta(params, subs, cores, prob, sample, cfg.eps, locked, dtype)
            assert got == want, widths
            assert got[1] != got[2]


@pytest.mark.parametrize("locked, delta_rows", [(True, 1), (False, 2)])
def test_estimate_forms_its_sign_independent_terms_once(monkeypatch, locked, delta_rows):
    # the input layer's implicit product is formed once per batch, its seed
    # rows once per index-set array: both passes read one locked sample, and
    # the unlocked minus pass shares only the batch
    cfg = small_cfg(widths=[6, 8, 8, 1], bias=True)
    prob = make_problem("none", 6, "two_body", cfg.seed)
    params = cfg.init_params()
    subs = make_subspaces(params, cfg)
    sample = SpatialSample(cfg.seed, 1, cfg.batch_B, cfg.batch_b, 6)
    plus = draw_sample(prob, sample)
    minus = plus if locked else draw_sample(prob, sample.unlocked(), batch=plus)
    calls = Counter()
    for name in ("perturb_product", "delta_rows"):
        monkeypatch.setattr(net, name, counting(calls, name, getattr(net, name)))
    directional_delta(SignPair(params, subs, cores_at(cfg, subs, 1), cfg.eps), prob, plus, minus)
    assert calls == {"perturb_product": 1, "delta_rows": delta_rows}


def per_replicate_sweep_rows(prob, params, rank, eps_list, reps, B, b, master, dtype="f64"):
    """The sweep's rows from a full draw per replicate and a pair per pass."""
    d = prob.dim
    subs = [
        subspace_for_layer(master, l, W.shape[0], W.shape[1], rank)
        for l, W in enumerate(params.weights)
    ]
    cores = [
        sample_core(derive_stream(StreamKey(master, Role.CORE_Z, 0, l)), s.rank)
        for l, s in enumerate(subs)
    ]
    want = []
    for eps in eps_list:
        for mode, locked in (("crns", True), ("naive", False)):
            deltas = [
                per_sign_delta(
                    params, subs, cores, prob,
                    SpatialSample(master, k, B, b, d, collocation_step=0, dtype=DTYPES[dtype]),
                    eps, locked, dtype,
                )[0]
                for k in range(1, reps + 1)
            ]
            want.append({"mode": mode, "eps": eps, "variance": float(np.var(deltas, ddof=1))})
    return want


def test_crns_variance_sweep_equals_a_full_draw_per_replicate():
    master, d, rank, B, b, reps, eps_list = 5, 8, 2, 3, 2, 4, [1e-2, 1e-3]
    prob = make_problem("none", d, "two_body", master)
    params = init_mlp([d, 6, 1], "sin", master)
    rows, _, _ = crns_variance_sweep(
        prob, params, rank=rank, eps_list=eps_list, replicates=reps, B=B, b=b, master=master
    )
    assert rows == per_replicate_sweep_rows(prob, params, rank, eps_list, reps, B, b, master)


# crns_variance_sweep's variances at the config above, float.hex, in row
# order (crns, naive per eps).  The reference sweep above calls the same
# stochastic_loss, so only these pins see a change of the loss pass's bits.
SWEEP_KNOWN_ANSWERS = {
    "f64": [
        "0x1.2e02be6140de6p+1",
        "0x1.f860cde2027adp+7",
        "0x1.2e002bdbcc767p+1",
        "0x1.7cb8ae832c8f8p+14",
    ],
    "f32": [
        "0x1.3ce7c2139f9f6p-3",
        "0x1.72721a9f6efc9p+5",
        "0x1.3cf0d99c59b88p-3",
        "0x1.0ffe0c6727cfdp+12",
    ],
}


@pytest.mark.parametrize("dtype", ["f64", "f32"])
def test_crns_variance_sweep_known_answers(dtype):
    master, d, rank, B, b, reps, eps_list = 5, 8, 2, 3, 2, 4, [1e-2, 1e-3]
    prob = make_problem("none", d, "two_body", master)
    params = init_mlp([d, 6, 1], "sin", master)
    rows, _, _ = crns_variance_sweep(
        prob, params, rank=rank, eps_list=eps_list, replicates=reps, B=B, b=b, master=master,
        dtype=dtype,
    )
    assert [r["variance"].hex() for r in rows] == SWEEP_KNOWN_ANSWERS[dtype]


def test_crns_variance_sweep_runs_in_the_given_dtype():
    master, d, rank, B, b, reps, eps_list = 5, 8, 2, 3, 2, 4, [1e-2, 1e-3]
    prob = make_problem("none", d, "two_body", master)
    params = init_mlp([d, 6, 1], "sin", master)
    kw = dict(rank=rank, eps_list=eps_list, replicates=reps, B=B, b=b, master=master)
    f64, _, _ = crns_variance_sweep(prob, params, **kw)
    f32, _, _ = crns_variance_sweep(prob, params, **kw, dtype="f32")
    assert f32 == per_replicate_sweep_rows(prob, params, rank, eps_list, reps, B, b, master, "f32")
    assert [(r["mode"], r["eps"]) for r in f32] == [(r["mode"], r["eps"]) for r in f64]
    assert all(r32["variance"] != r64["variance"] for r32, r64 in zip(f32, f64))


def test_sweep_shares_one_pair_per_eps(monkeypatch):
    # E eps values and R replicates: every estimate is one call of
    # verify.directional_delta, each eps forms its weights and its
    # pinned-batch product once, and the naive +eps pass reuses the
    # index-set rows of the locked estimate before it
    E, R, depth = 3, 4, 3
    prob = make_problem("none", 8, "two_body", 5)
    params = init_mlp([8, 6, 5, 1], "sin", 5, bias=True)
    calls = Counter()
    monkeypatch.setattr(
        verify, "directional_delta", counting(calls, "estimate", verify.directional_delta)
    )
    for name in ("perturb_product", "rank_r_delta", "delta_rows"):
        monkeypatch.setattr(net, name, counting(calls, name, getattr(net, name)))
    crns_variance_sweep(
        prob, params, rank=2, eps_list=[1e-2, 1e-3, 1e-4], replicates=R, B=3, b=2, master=5
    )
    assert calls == {
        "estimate": 2 * R * E,
        "perturb_product": E,
        "rank_r_delta": E * (depth - 1),
        "delta_rows": 2 * R * E,
    }


def test_sweep_forms_the_index_set_terms_once_per_draw(monkeypatch):
    # R replicates and E eps values: set_starts runs once per draw (the
    # pinned batch's, then each replicate's locked and unlocked sets), not
    # once per pass (3 R E: a locked estimate is one sweep at both signs, an
    # unlocked one a sweep per sign), and every pass is handed its draw's
    # IndexSets, whose X[:, I] the draw formed
    E, R = 3, 4
    prob = make_problem("none", 8, "two_body", 5)
    params = init_mlp([8, 6, 5, 1], "sin", 5, bias=True)
    calls = Counter()
    monkeypatch.setattr(net, "set_starts", counting(calls, "set_starts", net.set_starts))
    draws, handed = [], []
    draw = verify.draw_sample

    def recording_draw(*args, **kwargs):
        draws.append(draw(*args, **kwargs))
        return draws[-1]

    jet_eval = net.PerturbView.jet_eval

    def recording_jets(view, X, dims, sizes):
        handed.append(sizes)
        return jet_eval(view, X, dims, sizes)

    monkeypatch.setattr(verify, "draw_sample", recording_draw)
    monkeypatch.setattr(net.PerturbView, "jet_eval", recording_jets)
    crns_variance_sweep(
        prob, params, rank=2, eps_list=[1e-2, 1e-3, 1e-4], replicates=R, B=3, b=2, master=5
    )
    assert len(draws) == calls["set_starts"] == 2 * R + 1
    assert len(handed) == 3 * R * E
    assert {id(sets) for sets in handed} == {id(d.sets) for d in draws[1:]}


@pytest.mark.parametrize(
    "eps_list",
    [[1e-3], [1e-3, 1e-3], [0.0, 1e-3], [-1e-3, 1e-3], [float("nan"), 1e-3], [1e-3, float("inf")]],
    ids=["one", "repeat", "zero", "negative", "nan", "inf"],
)
def test_sweep_refuses_a_degenerate_eps_list_before_any_draw(monkeypatch, eps_list):
    prob = make_problem("none", 8, "two_body", 5)
    params = init_mlp([8, 6, 1], "sin", 5)
    calls = count_draws(monkeypatch)
    with pytest.raises(ValueError, match="eps_list"):
        crns_variance_sweep(
            prob, params, rank=2, eps_list=eps_list, replicates=4, B=3, b=2, master=5
        )
    assert not calls


def counting(calls: Counter, name: str, fn):
    """``fn``, counting its calls under ``name``."""

    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapped


def count_draws(monkeypatch) -> Counter:
    """Calls of the batch draw, the rhs and the index-set draws, by name."""
    calls = Counter()
    for name in ("points", "set1", "set2"):
        monkeypatch.setattr(SpatialSample, name, counting(calls, name, getattr(SpatialSample, name)))
    monkeypatch.setattr(spatial, "rhs_eval", counting(calls, "rhs_eval", spatial.rhs_eval))
    return calls


@pytest.mark.parametrize("crns, sets", [(True, 2), (False, 4)])
def test_step_draws_its_batch_and_rhs_once(monkeypatch, crns, sets):
    cfg = small_cfg(crns=crns)
    prob = make_problem("none", 6, "two_body", cfg.seed)
    params = cfg.init_params()
    subs = make_subspaces(params, cfg)
    calls = count_draws(monkeypatch)
    sdze_step(params, subs, prob, cfg, 1)
    assert calls["points"] == calls["rhs_eval"] == 1
    assert calls["set1"] + calls["set2"] == sets


def test_sweep_draws_its_pinned_batch_once(monkeypatch):
    prob = make_problem("none", 8, "two_body", 5)
    params = init_mlp([8, 6, 1], "sin", 5)
    calls = count_draws(monkeypatch)
    crns_variance_sweep(
        prob, params, rank=2, eps_list=[1e-2, 1e-3], replicates=4, B=3, b=2, master=5
    )
    assert calls["points"] == calls["rhs_eval"] == 1
    # the pinned draw, then each replicate's sets and its unlocked sets once,
    # whatever the number of eps: 1 + 2 R
    assert calls["set1"] == calls["set2"] == 1 + 2 * 4
