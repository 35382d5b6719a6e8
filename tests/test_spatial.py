import dataclasses
import hashlib
import sys
import threading
import time
from itertools import product

import numpy as np
import pytest
from scipy import stats

from sdze import net, spatial, worker
from sdze.net import MlpParams, PerturbView, SignPair, init_mlp, plain_view
from sdze.optimizer import SdzeConfig, make_subspaces, step_cores
from sdze.rng import CHUNK_BYTES, Role, StreamKey, derive_stream
from sdze.spatial import (
    ExactSolutionView,
    PdeProblem,
    SpatialSample,
    draw_sample,
    exact_solution,
    make_problem,
    relative_l2,
    rhs_eval,
    sample_unit_ball,
    sampled_operator,
    stochastic_loss,
)

TEST_KEY = StreamKey(3, Role.TEST_POINTS, 0, 0)


def test_ball_points_inside():
    X = sample_unit_ball(derive_stream(TEST_KEY), 5000, 7)
    assert np.all(np.linalg.norm(X, axis=1) <= 1.0 + 1e-12)
    # float32 points are inside up to float32 rounding
    X = sample_unit_ball(derive_stream(TEST_KEY), 5000, 7, np.float32)
    assert np.all(np.linalg.norm(X.astype(np.float64), axis=1) <= 1.0 + 1e-6)


def test_ball_d1_is_uniform_on_segment():
    x = sample_unit_ball(derive_stream(TEST_KEY), 10**5, 1)[:, 0]
    p = stats.kstest(x, stats.uniform(loc=-1, scale=2).cdf).pvalue
    assert p > 0.001


def test_ball_second_moment_d2():
    X = sample_unit_ball(derive_stream(TEST_KEY), 10**6, 2)
    m = (X * X).sum(axis=1).mean()  # E||x||^2 = d/(d+2) = 1/2
    assert abs(m - 0.5) < 0.005


def test_float32_ball_d1_is_uniform_on_segment():
    x = sample_unit_ball(derive_stream(TEST_KEY), 10**5, 1, np.float32)[:, 0]
    assert x.dtype == np.float32
    p = stats.kstest(x.astype(np.float64), stats.uniform(loc=-1, scale=2).cdf).pvalue
    assert p > 0.001


def test_float32_ball_second_moment_d2():
    X = sample_unit_ball(derive_stream(TEST_KEY), 10**6, 2, np.float32).astype(np.float64)
    m = (X * X).sum(axis=1).mean()  # E||x||^2 = d/(d+2) = 1/2
    assert abs(m - 0.5) < 0.005
    # isotropic: the angle is uniform on the circle
    angle = np.arctan2(X[:, 1], X[:, 0])
    assert stats.kstest(angle, stats.uniform(loc=-np.pi, scale=2 * np.pi).cdf).pvalue > 0.001


def test_exact_solution_values():
    p = PdeProblem(2, "none", "two_body", np.array([1.0]))
    assert np.isclose(
        exact_solution(p, np.array([[0.5, 0.5]]))[0], 0.5 * np.exp(0.25), rtol=1e-15
    )
    assert exact_solution(p, np.array([[1.0, 0.0]]))[0] == 0.0
    p3 = make_problem("none", 5, "three_body", 7)
    assert np.isclose(
        exact_solution(p3, np.zeros((1, 5)))[0], p3.coeffs.sum(), rtol=1e-15
    )


def test_problem_construction_guards():
    with pytest.raises(ValueError):
        make_problem("none", 1, "two_body", 0)
    with pytest.raises(ValueError):
        make_problem("none", 2, "three_body", 0)
    with pytest.raises(ValueError):
        PdeProblem(3, "unknown", "two_body", np.array([1.0, 1.0]))


def test_rhs_poisson_value_at_origin():
    # Lap[(1-|x|^2) c e^{x1 x2}](0) = -4c; verified against finite differences
    c = -0.8
    p = PdeProblem(2, "none", "two_body", np.array([c]))
    assert np.isclose(rhs_eval(p, np.zeros((1, 2)))[0], -4.0 * c, rtol=1e-13)
    h = 1e-5
    fd = 0.0
    for i in range(2):
        e = np.zeros((1, 2))
        e[0, i] = h
        fd += (
            exact_solution(p, e) - 2 * exact_solution(p, e * 0) + exact_solution(p, -e)
        )[0] / h**2
    assert np.isclose(fd, -4.0 * c, atol=1e-5)


@pytest.mark.parametrize(
    "kind,solution,d",
    [("none", "two_body", 6), ("allen_cahn", "two_body", 5), ("sine_gordon", "three_body", 7)],
)
def test_manufactured_solution_consistency(kind, solution, d):
    prob = make_problem(kind, d, solution, 77)
    ev = ExactSolutionView(prob)
    X = sample_unit_ball(derive_stream(TEST_KEY), 200, d)
    resid = sampled_operator(ev, prob, X, np.arange(d), [d])[0] - rhs_eval(prob, X)
    assert np.abs(resid).max() <= 1e-10


def test_sampled_operator_scaling_single_dim():
    prob = make_problem("allen_cahn", 4, "two_body", 5)
    net = init_mlp([4, 5, 1], "sin", 9)
    view = plain_view(net)
    X = sample_unit_ball(derive_stream(TEST_KEY), 6, 4)
    u, sums = view.jet_eval(X, np.array([2]), [1])
    want = 4.0 * sums[0] + (u - u**3)
    got = sampled_operator(view, prob, X, [2], [1])
    assert got.shape == (1, 6)
    assert np.allclose(got[0], want, rtol=1e-14)
    with pytest.raises(ValueError):
        sampled_operator(view, prob, X, [], [0])


@pytest.mark.parametrize("kind", ["none", "allen_cahn", "sine_gordon"])
def test_sampled_operator_keeps_its_nonlinearity(kind):
    prob = make_problem(kind, 4, "two_body", 5)
    view = plain_view(init_mlp([4, 5, 1], "sin", 9, bias=True))
    X = sample_unit_ball(derive_stream(TEST_KEY), 6, 4)
    dims, sizes = [0, 2, 3, 1], [3, 1]
    u, sums = view.jet_eval(X, dims, sizes)
    scaled = np.array([[4.0 / 3], [4.0]]) * sums
    want = {"none": scaled, "allen_cahn": scaled + (u - u**3), "sine_gordon": scaled + np.sin(u)}
    got = sampled_operator(view, prob, X, dims, sizes)
    assert got.tobytes() == want[kind].tobytes()


def test_operator_unbiasedness_by_enumeration():
    prob = make_problem("none", 3, "two_body", 5)
    net = init_mlp([3, 4, 1], "sin", 9)
    view = plain_view(net)
    X = sample_unit_ball(derive_stream(TEST_KEY), 10, 3)
    # the full set and the three singletons, one row each from one sweep
    ops = sampled_operator(view, prob, X, [0, 1, 2, 0, 1, 2], [3, 1, 1, 1])
    full, mean_single = ops[0], ops[1:].mean(axis=0)
    assert np.abs(full - mean_single).max() <= 1e-12 * max(1, np.abs(full).max())


def test_loss_full_sampling_identity():
    prob = PdeProblem(3, "allen_cahn", "two_body", np.array([0.5, -1.0]), "raw")
    net = init_mlp([3, 4, 1], "sin", 2)
    sample = SpatialSample(master=8, step=1, B=5, b=3, d=3)
    got = stochastic_loss(plain_view(net), prob, draw_sample(prob, sample))
    X = sample.points()
    r = sampled_operator(plain_view(net), prob, X, np.arange(3), [3])[0] - rhs_eval(prob, X)
    assert np.isclose(got, float(r @ r) / (2 * 5), rtol=1e-12)


def test_loss_dim_normalization():
    prob_raw = PdeProblem(3, "none", "two_body", np.array([0.5, -1.0]), "raw")
    prob_norm = PdeProblem(3, "none", "two_body", np.array([0.5, -1.0]), "dim_normalized")
    net = init_mlp([3, 4, 1], "sin", 2)
    sample = SpatialSample(master=8, step=1, B=5, b=3, d=3)
    a = stochastic_loss(plain_view(net), prob_raw, draw_sample(prob_raw, sample))
    b = stochastic_loss(plain_view(net), prob_norm, draw_sample(prob_norm, sample))
    assert np.isclose(a, b * 9.0, rtol=1e-12)


def test_loss_vanishes_on_exact_solution():
    prob = make_problem("allen_cahn", 4, "two_body", 5)
    sample = SpatialSample(master=3, step=1, B=6, b=4, d=4)
    assert abs(stochastic_loss(ExactSolutionView(prob), prob, draw_sample(prob, sample))) <= 1e-10


def test_loss_unbiasedness_enumeration_d3():
    # expectation over all 9 (I1, I2) singleton pairs equals the exact loss
    prob = PdeProblem(3, "allen_cahn", "two_body", np.array([0.9, 0.3]), "raw")
    net = init_mlp([3, 4, 1], "sin", 4)
    view = plain_view(net)
    X = sample_unit_ball(derive_stream(TEST_KEY), 1, 3)
    f = rhs_eval(prob, X)
    res = sampled_operator(view, prob, X, [0, 1, 2, 0, 1, 2], [3, 1, 1, 1]) - f
    exact = float(res[0] @ res[0]) / 2.0
    acc = 0.0
    for i, j in product(range(3), repeat=2):
        acc += float(res[1 + i] @ res[1 + j]) / 2.0
    assert abs(acc / 9.0 - exact) <= 1e-12 * max(1.0, abs(exact))


def test_crns_sample_regeneration_is_bitwise():
    s = SpatialSample(master=3, step=5, B=4, b=2, d=6)
    assert np.array_equal(s.points(), s.points())
    assert np.array_equal(s.set1(), s.set1())
    assert np.array_equal(s.set2(), s.set2())
    # replicate index reroutes only the index sets, not the batch
    s2 = SpatialSample(master=3, step=5, B=4, b=2, d=6, set_replicate=1)
    assert np.array_equal(s.points(), s2.points())


@pytest.mark.parametrize("solution, d, B", [("two_body", 7, 9), ("three_body", 100, 90)])
def test_a_float32_batch_has_float64_rhs_phi_coordinates_and_residual(solution, d, B):
    # f, phi and X[:, I] are float64, computed from the batch's exact values,
    # and so are the operator and the residual of a float32 network; a
    # 90 x 100 batch passes numpy's cast buffer of np.getbufsize() elements
    prob = make_problem("allen_cahn", d, solution, 3)
    sample = SpatialSample(master=3, step=5, B=B, b=3, d=d, dtype=np.float32)
    drawn = draw_sample(prob, sample)
    X64 = drawn.X.astype(np.float64)
    assert drawn.X.dtype == np.float32 and drawn.f.dtype == np.float64
    assert drawn.f.tobytes() == rhs_eval(prob, X64).tobytes()
    widths = [d, 6, 5, 1]
    params = init_mlp(widths, "sin", 3, bias=True)
    subs = make_subspaces(params, SdzeConfig(widths=widths, bias=True, rank=2))
    cores = step_cores(3, subs, 1)
    pair = SignPair(params, subs, cores, 1e-3, np.float32)
    pair.share(drawn.sets)
    batch = pair.batch(drawn.X)
    xi = drawn.sets.xi  # X[:, I], formed once by the draw
    assert batch.G0.dtype == np.float32 and batch.X is drawn.X
    phi = drawn.sets.phi  # phi, from the rhs's squares of the batch
    assert phi.dtype == xi.dtype == np.float64
    assert phi.tobytes() == (1.0 - np.sum(X64 * X64, axis=1)).tobytes()
    assert phi.tobytes() == net.boundary_factor(drawn.X).tobytes()
    assert xi.tobytes() == X64[:, drawn.dims].T.tobytes()
    sizes = [sample.b, drawn.dims.size - sample.b]
    op = sampled_operator(PerturbView(pair, 1), prob, drawn.X, drawn.dims, sizes)
    assert op.dtype == np.float64 and (op - drawn.f).dtype == np.float64
    # the exact solution's stand-in computes in float64 too
    ev = ExactSolutionView(prob)
    u32, sums32 = ev.jet_eval(drawn.X, drawn.dims, sizes)
    u64, sums64 = ev.jet_eval(X64, drawn.dims, sizes)
    assert u32.tobytes() == u64.tobytes() and sums32.tobytes() == sums64.tobytes()
    assert exact_solution(prob, drawn.X).tobytes() == exact_solution(prob, X64).tobytes()


@pytest.mark.parametrize("dims", [[-1], [5]], ids=["negative", "d"])
def test_every_view_refuses_a_direction_outside_the_batch(dims):
    # the one range check of the index sets: the exact solution's view would
    # read X[:, -1] for -1 and raise IndexError for d without it
    prob = make_problem("allen_cahn", 5, "two_body", 3)
    widths = [5, 6, 4, 1]
    params = init_mlp(widths, "sin", 3, bias=True)
    subs = make_subspaces(params, SdzeConfig(widths=widths, bias=True, rank=2))
    pair = SignPair(params, subs, step_cores(3, subs, 1), 1e-3)
    views = [
        ExactSolutionView(prob), plain_view(params), PerturbView(pair, 1), PerturbView(pair, -1)
    ]
    X = sample_unit_ball(derive_stream(TEST_KEY), 4, 5)
    for view in views:
        with pytest.raises(ValueError, match="direction index out of range"):
            view.jet_eval(X, dims, [1])
        with pytest.raises(ValueError, match="direction index out of range"):
            sampled_operator(view, prob, X, [0, *dims], [1, 1])


# stochastic_loss at +eps then -eps of one float32 draw at poisson100's
# shapes (100-128-128-1 with bias, B = 100, b = 16, rank 16, eps 1e-3,
# seed 3, step 1), float.hex: a change of the loss pass's arithmetic
# changes these bits.
LOSS_KNOWN_ANSWERS = ["0x1.329045fc7465bp+4", "0x1.324673e1478b3p+4"]


def test_stochastic_loss_known_answers():
    cfg = SdzeConfig(seed=3, widths=[100, 128, 128, 1], bias=True, dtype="f32", rank=16)
    problem, params = cfg.make_problem(), cfg.init_params()
    subs = make_subspaces(params, cfg)
    pair = SignPair(params, subs, step_cores(3, subs, 1), 1e-3, np.float32)
    drawn = draw_sample(problem, SpatialSample(3, 1, 100, 16, 100, dtype=np.float32))
    got = [stochastic_loss(PerturbView(pair, sign), problem, drawn).hex() for sign in (1, -1)]
    assert got == LOSS_KNOWN_ANSWERS


def test_the_batch_dtype_is_part_of_the_batch_key():
    prob = make_problem("none", 6, "two_body", 3)
    s64 = SpatialSample(master=3, step=5, B=4, b=2, d=6)
    s32 = dataclasses.replace(s64, dtype="float32")
    assert s64.dtype == np.float64 and s32.dtype == np.float32
    assert s64.batch_key[:4] == s32.batch_key[:4] and s64.batch_key != s32.batch_key
    assert s32.points().dtype == np.float32 and s32.unlocked().batch_key == s32.batch_key
    with pytest.raises(ValueError, match="batch"):
        draw_sample(prob, s32, batch=draw_sample(prob, s64))
    with pytest.raises(ValueError, match="float64 or float32"):
        SpatialSample(master=3, step=5, B=4, b=2, d=6, dtype=np.float16)


def test_drawn_sample_is_read_only_and_lends_only_its_own_batch():
    prob = make_problem("none", 6, "two_body", 3)
    s = SpatialSample(master=3, step=5, B=4, b=2, d=6)
    drawn = draw_sample(prob, s)
    assert np.array_equal(drawn.X, s.points())
    assert np.array_equal(drawn.f, rhs_eval(prob, s.points()))
    for a in (drawn.X, drawn.f, drawn.dims, drawn.sets.phi):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        drawn.X = np.zeros((4, 6))
    # the unlocked minus pass reads the same batch with its own sets
    assert s.unlocked().batch_key == s.batch_key
    assert not np.array_equal(s.unlocked().set1(), s.set1())
    other = draw_sample(prob, s.unlocked(), batch=drawn)
    assert other.X is drawn.X and other.f is drawn.f and other.sets.phi is drawn.sets.phi
    assert np.array_equal(other.dims[: s.b], SpatialSample(3, 5, 4, 2, 6, set_replicate=1).set1())
    with pytest.raises(ValueError, match="batch"):
        draw_sample(prob, dataclasses.replace(s, step=6), batch=drawn)


def test_independent_dim_set_streams():
    # I1 and I2 come from different roles: over many steps they must differ
    diff = sum(
        not np.array_equal(
            SpatialSample(1, t, 1, 3, 30).set1(), SpatialSample(1, t, 1, 3, 30).set2()
        )
        for t in range(50)
    )
    assert diff >= 45


def test_relative_l2_trivials_and_hand_value(monkeypatch):
    prob = make_problem("none", 2, "two_body", 6)
    params = init_mlp([2, 3, 1], "sin", 6)
    # an all-zero output layer scores 0, so the error is the exact solution's norm
    zero = MlpParams([params.weights[0], np.zeros((3, 1))])
    assert relative_l2(zero, prob, TEST_KEY, 64) == 1.0
    # u_theta - u_exact = (1, 0) on a 2-point test set with u_exact = (1, 1)
    monkeypatch.setattr(spatial, "ansatz", lambda view, X: np.array([[2.0], [1.0]]))
    monkeypatch.setattr(spatial, "exact_solution", lambda problem, X: np.array([1.0, 1.0]))
    assert np.isclose(relative_l2(params, prob, TEST_KEY, 2), np.sqrt(0.5), rtol=1e-15)


@pytest.mark.parametrize("view", ["exact", "plain"])
def test_relative_l2_scores_parameters_only(view):
    prob = make_problem("none", 2, "two_body", 6)
    params = init_mlp([2, 3, 1], "sin", 6)
    given = ExactSolutionView(prob) if view == "exact" else plain_view(params)
    with pytest.raises(TypeError, match="^params must be MlpParams"):
        relative_l2(given, prob, TEST_KEY, 64)


def test_relative_l2_refuses_a_problem_whose_exact_solution_vanishes():
    prob = make_problem("none", 2, "two_body", 6)
    zero = dataclasses.replace(prob, coeffs=np.zeros_like(prob.coeffs))
    params = init_mlp([2, 3, 1], "sin", 6)
    with pytest.raises(ValueError, match="^degenerate metric"):
        relative_l2(params, zero, TEST_KEY, 64)


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# Bytes of the d-sized path's outputs: the 2 000 x 100 test-point draw, then
# the rhs and exact solution on a 100 x 100 collocation batch.  A change that
# keeps the same bits (a reused buffer, a blocked draw) keeps these.
BATCH_KNOWN_ANSWERS = {
    "ball": "455d6ebe0d1d9976bd90f12e8a18379d946f554191319ea229d48fa10b5a639b",
    ("rhs", "none", "two_body"): "c978fcd3ad098931e88a0fec2943e28e57dff4a2aab86138dd3b099d2afea1e3",
    ("rhs", "none", "three_body"): "5a5eed8c613d78c1a00196af06a5e5cb2db2e3a26acc31a33912d41a41148dd7",
    ("rhs", "allen_cahn", "two_body"): "073d743ae6c3b11d9e67b35cf05b8a67173c39b91c40a8fb9c74e7421664b07c",
    ("exact", "none", "two_body"): "d267aa2607441712edc8283910bdec0de12cbbeec4418ddaa30038972bc2aa51",
    ("exact", "none", "three_body"): "1d7f553884e06dcc2f54988143ab7f045c4ac871db44a4ed393c067e5e92b23f",
}


def test_batch_known_answers():
    got = {"ball": _sha256(sample_unit_ball(derive_stream(TEST_KEY), 2000, 100))}
    X = sample_unit_ball(derive_stream(StreamKey(5, Role.COLLOCATION, 2, 0)), 100, 100)
    for what, kind, solution in [k for k in BATCH_KNOWN_ANSWERS if k != "ball"]:
        problem = make_problem(kind, 100, solution, 5)
        fn = rhs_eval if what == "rhs" else exact_solution
        got[what, kind, solution] = _sha256(fn(problem, X))
    assert got == BATCH_KNOWN_ANSWERS


# relative_l2 at init on 2 000 test points of the two-body Poisson problem,
# seed 3: the crns-sweep net (100-64-1) and the poisson100 net (100-128-128-1
# with bias) of the benchmark
REL_L2_KNOWN_ANSWERS = [
    ([100, 64, 1], False, "0x1.00b9efb58700ap+0"),
    ([100, 128, 128, 1], True, "0x1.00995123ad3adp+0"),
]


@pytest.mark.parametrize("widths, bias, want", REL_L2_KNOWN_ANSWERS)
def test_relative_l2_known_answers(widths, bias, want):
    problem = make_problem("none", 100, "two_body", 3)
    params = init_mlp(widths, "sin", 3, bias)
    assert relative_l2(params, problem, TEST_KEY, 2000).hex() == want


@pytest.mark.parametrize("n_test", [True, 2.0, 2.5, 0])
def test_relative_l2_takes_an_integer_count_of_test_points(n_test):
    problem = make_problem("none", 3, "two_body", 3)
    params = init_mlp([3, 4, 1], "sin", 3)
    with pytest.raises(ValueError, match=r"^n_test must be an integer >= 1"):
        relative_l2(params, problem, TEST_KEY, n_test)


def _whole_batch_relative_l2(params, problem, n_test):
    """relative_l2 as one batch: every test point drawn, evaluated and scored at once."""
    X = sample_unit_ball(derive_stream(TEST_KEY), n_test, problem.dim)
    u_hat, u_ex = net.ansatz(plain_view(params), X)[:, 0], exact_solution(problem, X)
    diff = u_hat - u_ex
    return float(np.sqrt(np.dot(diff, diff) / float(np.dot(u_ex, u_ex))))


@pytest.mark.parametrize("solution", ["two_body", "three_body"])
@pytest.mark.parametrize("d", [3, 100, 333])
@pytest.mark.parametrize("n_test", [1, 255, 256, 257, 2000])
def test_relative_l2_in_row_blocks_has_the_bits_of_the_whole_batch(n_test, d, solution):
    # one block up to 511 points, then blocks of EVAL_ROWS with the rest in
    # the last; the poisson100 network with its bias row
    problem = make_problem("none", d, solution, 3)
    params = init_mlp([d, 128, 128, 1], "sin", 3, bias=True)
    got = relative_l2(params, problem, TEST_KEY, n_test)
    assert got.hex() == _whole_batch_relative_l2(params, problem, n_test).hex()


def test_relative_l2_holds_its_values_and_one_block(monkeypatch, peak_spans):
    # Measured bytes at the poisson100 network (d = 100, widths 100-128-128-1
    # with bias).  The evaluation holds the n_test network and exact values
    # (16 bytes a point) and one block of at most 2 EVAL_ROWS - 1 points: per
    # point its d coordinates and at most 2 d + 3 h words of planes (the
    # exact solution's d-wide planes, or the network's h-wide ones), beside
    # one draw block of the rng (CHUNK_BYTES), plus 16 KiB.  2 000 points
    # end in a 464-point block and 20 000 in a 288-point one: the smaller
    # block more than pays for the larger values, so 20 000 points may hold
    # no more than 2 000 do, plus 4 KiB.
    two_threads(monkeypatch, False)  # the serial path
    d, h = 100, 128
    problem = make_problem("none", d, "two_body", 3)
    params = init_mlp([d, h, h, 1], "sin", 3, bias=True)
    evaluate = peak_spans.measure(relative_l2, "eval", key=lambda p, prob, key, n: n)
    for n_test in (2000, 20_000):
        evaluate(params, problem, TEST_KEY, n_test)
    peaks = dict(peak_spans.calls["eval"])
    rows = 2 * spatial.EVAL_ROWS - 1
    for n_test, peak in peaks.items():
        assert peak <= 16 * n_test + 8 * rows * (3 * d + 3 * h) + CHUNK_BYTES + 16384, peaks
    assert peaks[20_000] <= peaks[2000] + 4096, peaks
    # the whole batch held several 2 000 x 128 planes at once
    assert peaks[2000] < 3 * 2000 * h * 8


# --- the evaluation on two threads --------------------------------------------


def two_threads(monkeypatch, gate_open=True):
    """Open the evaluation's gate (a pinned BLAS, 2 CPUs), or close it."""
    monkeypatch.setattr(worker, "_BLAS_ONE_THREAD", gate_open)
    monkeypatch.setattr(worker, "_cpu_count", lambda: 2)


def block_starts(n_test):
    starts = list(range(0, max(n_test - spatial.EVAL_ROWS, 0) + 1, spatial.EVAL_ROWS))
    return list(zip(starts, [*starts[1:], n_test]))


def on_each_block(monkeypatch, fn):
    """Call ``fn(a, k, thread ident)`` as each block [a, a + k) is drawn; then draw it.

    The caller's first block waits until the worker has taken one, so both
    threads take blocks."""
    caller, taken, rows = threading.get_ident(), threading.Event(), spatial.ball_rows

    def drawing(stream, B, d, a, k, *args):
        here = threading.get_ident()
        if here != caller:
            taken.set()
        else:
            assert taken.wait(timeout=60)
        fn(a, k, here)
        return rows(stream, B, d, a, k, *args)

    monkeypatch.setattr(spatial, "ball_rows", drawing)


@pytest.mark.parametrize("solution", ["two_body", "three_body"])
@pytest.mark.parametrize("d", [3, 100, 333])
@pytest.mark.parametrize("n_test", [255, 256, 257, 2000])
def test_relative_l2_on_two_threads_has_the_bits_of_one(monkeypatch, n_test, d, solution):
    problem = make_problem("none", d, solution, 3)
    params = init_mlp([d, 128, 128, 1], "sin", 3, bias=True)
    two_threads(monkeypatch, False)
    serial = relative_l2(params, problem, TEST_KEY, n_test)
    two_threads(monkeypatch)
    shared, share = [], worker.share
    monkeypatch.setattr(worker, "share", lambda *args: shared.append(share(*args)))
    got = relative_l2(params, problem, TEST_KEY, n_test)
    assert got.hex() == serial.hex() == _whole_batch_relative_l2(params, problem, n_test).hex()
    assert len(shared) == (len(block_starts(n_test)) > 1)  # one block runs serially


@pytest.mark.parametrize("widths, bias, want", REL_L2_KNOWN_ANSWERS)
def test_relative_l2_known_answers_on_two_threads(monkeypatch, widths, bias, want):
    two_threads(monkeypatch)
    problem = make_problem("none", 100, "two_body", 3)
    params = init_mlp(widths, "sin", 3, bias)
    assert relative_l2(params, problem, TEST_KEY, 2000).hex() == want


def test_each_block_is_evaluated_once_and_both_threads_take_blocks(monkeypatch):
    two_threads(monkeypatch)
    problem = make_problem("none", 100, "two_body", 3)
    params = init_mlp([100, 128, 128, 1], "sin", 3, bias=True)
    want = relative_l2(params, problem, TEST_KEY, 2000)
    seen = []
    on_each_block(monkeypatch, lambda a, k, thread: seen.append((a, a + k, thread)))
    assert relative_l2(params, problem, TEST_KEY, 2000) == want
    assert sorted((a, b) for a, b, _ in seen) == block_starts(2000)
    assert len({thread for *_, thread in seen}) == 2


class BlockError(Exception):
    pass


@pytest.mark.parametrize("failing", [("worker",), ("caller",), ("caller", "worker")])
def test_an_error_in_a_block_is_raised_after_both_threads_stop(monkeypatch, failing):
    # each thread takes one block; the one that does not fail is still in
    # its block when the other raises.  The caller's error comes first
    two_threads(monkeypatch)
    caller = threading.get_ident()
    running, started = [], []

    def block(a, k, thread):
        who = "caller" if thread == caller else "worker"
        running.append(who)
        started.append(a)
        try:
            if who in failing:
                raise BlockError(who)
            time.sleep(0.05)
        finally:
            running.remove(who)

    on_each_block(monkeypatch, block)
    problem = make_problem("none", 100, "two_body", 3)
    params = init_mlp([100, 64, 1], "sin", 3)
    with pytest.raises(BlockError) as err:
        relative_l2(params, problem, TEST_KEY, 2000)
    assert running == [] and err.value.args == (failing[0],)
    assert len(started) == 2  # no thread takes a block once one has raised


def test_the_callers_errstate_reaches_the_worker(monkeypatch):
    two_threads(monkeypatch)
    seen = {}
    on_each_block(monkeypatch, lambda a, k, th: seen.setdefault(th, []).append(np.geterr()))
    problem = make_problem("none", 100, "two_body", 3)
    params = init_mlp([100, 64, 1], "sin", 3)
    with np.errstate(under="raise", divide="ignore", invalid="print", over="raise"):
        want = np.geterr()
        relative_l2(params, problem, TEST_KEY, 2000)
    assert want != np.geterr()
    assert len(seen) == 2 and all(err == want for errs in seen.values() for err in errs)


def test_a_call_on_the_worker_runs_serially(monkeypatch):
    # it cannot hand blocks to itself: it evaluates all of them
    two_threads(monkeypatch)
    problem = make_problem("none", 100, "two_body", 3)
    params = init_mlp([100, 64, 1], "sin", 3)
    want = relative_l2(params, problem, TEST_KEY, 2000)
    seen, rows = [], spatial.ball_rows

    def drawing(*args):
        seen.append(threading.get_ident())
        return rows(*args)

    monkeypatch.setattr(spatial, "ball_rows", drawing)
    got, err = worker.submit(relative_l2, params, problem, TEST_KEY, 2000).get(timeout=60)
    assert err is None and got == want
    assert len(seen) == len(block_starts(2000))
    assert set(seen) == {worker._sign_worker().thread.ident} != {threading.get_ident()}


def test_callers_on_many_threads_share_the_worker_with_the_same_bits(monkeypatch):
    # four callers, each with its own point count, hand their blocks to the
    # one worker with thread switches forced every microsecond
    problem = make_problem("none", 100, "two_body", 3)
    params = init_mlp([100, 64, 1], "sin", 3)
    counts = (600, 777, 1000, 2000)
    two_threads(monkeypatch, False)
    want = [relative_l2(params, problem, TEST_KEY, n) for n in counts]
    two_threads(monkeypatch)
    got = [None] * len(counts)

    def caller(k):
        got[k] = [relative_l2(params, problem, TEST_KEY, counts[k]) for _ in range(3)]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(counts))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[w] * 3 for w in want]


def test_relative_l2_on_two_threads_holds_its_values_and_two_blocks(monkeypatch, peak_spans):
    # Measured bytes (tracemalloc sees every thread) at the poisson100
    # network.  The two threads may each hold a block at once: the peak is
    # at most the n_test values and the serial peaks of the two largest
    # blocks, each read as a one-block evaluation's peak less its values,
    # plus 16 KiB.  The worker is started first: its thread is not the call's
    d, h = 100, 128
    problem = make_problem("none", d, "two_body", 3)
    params = init_mlp([d, h, h, 1], "sin", 3, bias=True)
    worker._sign_worker()
    evaluate = peak_spans.measure(relative_l2, "eval", key=lambda p, prob, key, n: n)
    two_threads(monkeypatch, False)
    for k in {b - a for n_test in (2000, 20_000) for a, b in block_starts(n_test)}:
        evaluate(params, problem, TEST_KEY, k)
    block = {k: peak - 16 * k for k, peak in peak_spans.calls["eval"]}
    peak_spans.calls.clear()
    two_threads(monkeypatch)
    for n_test in (2000, 20_000):
        evaluate(params, problem, TEST_KEY, n_test)
    for n_test, peak in peak_spans.calls["eval"]:
        largest = sorted((b - a for a, b in block_starts(n_test)), reverse=True)[:2]
        bound = 16 * n_test + sum(block[k] for k in largest) + 16384
        assert peak <= bound, (n_test, peak, bound, block)
