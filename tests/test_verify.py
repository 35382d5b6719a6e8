import numpy as np
import pytest

from sdze.net import init_mlp, plain_view
from sdze.verify import (
    brute_force_gradient,
    build_projection,
    explicit_delta_w,
    explicit_forward,
    flatten_params,
    implicit_suite,
    jets_suite,
    mean_bias_check,
    quadratic_identity_check,
    unbiasedness_check,
    unflatten_params,
    variance_law_check,
)


def test_brute_force_gradient_on_quadratics():
    g = brute_force_gradient(lambda th: float(th @ th), np.array([1.0, 2.0]))
    assert np.abs(g - [2.0, 4.0]).max() <= 1e-8
    g = brute_force_gradient(lambda th: float(th[0] * th[1]), np.array([3.0, -2.0]))
    assert np.abs(g - [-2.0, 3.0]).max() <= 1e-8


def test_brute_force_gradient_self_consistency_on_tiny_loss():
    params = init_mlp([3, 3, 1], "sin", 0)
    theta0 = flatten_params(params)

    def loss(th):
        p = unflatten_params(th, params)
        X = np.array([[0.1, -0.2, 0.3]])
        return float(plain_view(p).values(X)[0] ** 2)

    g = brute_force_gradient(loss, theta0)
    h = 1e-5
    e0 = np.zeros_like(theta0)
    e0[4] = h
    assert np.isclose(g[4], (loss(theta0 + e0) - loss(theta0 - e0)) / (2 * h))


def test_flatten_roundtrip_keeps_the_bias_layout():
    params = init_mlp([3, 4, 4, 1], "tanh_scaled", 2, bias=True)
    back = unflatten_params(flatten_params(params), params)
    assert (back.activation, back.bias) == ("tanh_scaled", True)
    assert all(np.array_equal(a, b) for a, b in zip(back.weights, params.weights))
    assert all(a is not b for a, b in zip(back.weights, params.weights))


def test_brute_force_gradient_reports_bad_coordinate():
    def loss(th):
        return float("nan") if th[1] > 0.15 else float(th @ th)

    with pytest.raises(FloatingPointError) as err:
        brute_force_gradient(loss, np.array([0.1, 0.15]))
    assert "coordinate 1" in str(err.value)


def test_brute_force_gradient_rejects_huge_parameter_counts():
    with pytest.raises(ValueError):
        brute_force_gradient(lambda th: 0.0, np.zeros(10**4 + 1))


def test_explicit_forward_agrees_with_net_forward_unperturbed():
    from sdze.net import forward

    params = init_mlp([5, 6, 1], "sin", 3)
    X = np.random.default_rng(0).standard_normal((4, 5)) * 0.3
    assert np.allclose(
        explicit_forward(params, X), forward(plain_view(params), X), rtol=1e-14
    )


def test_build_projection_is_orthonormal_and_block_diagonal():
    from sdze.subspace import subspace_for_layer

    subs = [subspace_for_layer(5, 0, 6, 4, 2), subspace_for_layer(5, 1, 4, 4, 2)]
    P = build_projection(subs)
    q = sum(s.rank**2 for s in subs)
    assert P.shape == (6 * 4 + 4 * 4, q)
    assert np.abs(P.T @ P - np.eye(q)).max() <= 1e-10
    assert np.allclose(P[: 6 * 4, 4:], 0.0)  # off-diagonal block is empty
    assert np.allclose(P[6 * 4 :, :4], 0.0)


def test_quadratic_identities_at_reduced_samples():
    rng = np.random.default_rng(0)
    theta = rng.standard_normal(8)
    reports = quadratic_identity_check(
        np.eye(8), theta, 2, [(2, 4)], 20_000, master=1,
        tol_mean=0.05, tol_second=0.10, tol_cosine=0.15,
    )
    assert [r.name for r in reports] == [
        "mean_vs_projected_gradient",
        "second_moment_over_(q+2)",
        "cosine_alignment_times_q",
    ]
    assert all(r.passed for r in reports)


def test_quadratic_identities_orthogonal_gradient_case():
    import sdze.verify as V

    rng = np.random.default_rng(1)
    subs = V._subspaces_for_shapes([(2, 4)], 2, 3)
    P = build_projection(subs)
    w = rng.standard_normal(8)
    w -= P @ (P.T @ w)
    reports = quadratic_identity_check(np.eye(8), w, 2, [(2, 4)], 5_000, master=3)
    assert len(reports) == 1  # moment ratios are undefined when P^T grad = 0
    assert reports[0].passed and reports[0].empirical <= 1e-12


def test_quadratic_identities_reject_bad_shapes():
    with pytest.raises(ValueError):
        quadratic_identity_check(np.eye(8), np.zeros(8), 2, [(2, 3)], 10)


def test_mean_bias_quartic_eps2_law_and_bound():
    rng = np.random.default_rng(2)
    theta = rng.standard_normal(8) * 0.5
    report, rows = mean_bias_check(theta, 2, [(2, 4)], [1e-2, 5e-3, 1e-3], 30_000, master=4)
    assert report.passed
    assert all(r["within_bound"] for r in rows)
    # one decade of eps shrinks the deviation ~100x
    assert 90.0 <= rows[0]["deviation"] / rows[2]["deviation"] <= 110.0


def test_mean_bias_quadratic_has_no_bias():
    # on a pure quadratic the deviation vanishes to rounding for every eps
    _, rows = mean_bias_check(np.zeros(8), 2, [(2, 4)], [1e-2, 1e-3], 5_000, master=5)
    assert all(r["deviation"] <= 1e-18 for r in rows)


def test_variance_law_fourth_point():
    report, info = variance_law_check(7)
    assert report.passed
    assert report.rel_deviation <= 1e-10
    assert info["C1"] > 0


def test_variance_law_aliased_terms_kill_c2():
    _, info = variance_law_check(7, term_dims=[0, 0, 0, 0])
    assert abs(info["C2"]) <= 1e-12 * max(1.0, abs(info["C1"]))


def test_variance_law_single_term_independent_of_I():
    _, info = variance_law_check(7, term_dims=[0])
    V = info["variances"]
    assert np.isclose(V[(1, 1)], V[(1, 2)], rtol=1e-12)
    assert np.isclose(V[(2, 1)], V[(2, 2)], rtol=1e-12)


def test_unbiasedness_enumerations():
    reports = unbiasedness_check(11)
    assert len(reports) == 7
    assert all(r.passed for r in reports)
    assert all(r.rel_deviation <= 1e-12 for r in reports)


def test_full_batch_surrogate_identity():
    # |B| = N_r, |I| = N_L with each element once reproduces the full gradient
    import sdze.verify as V

    resid, _, grads, _, n_points, n_terms = V._tiny_setup(2, [0, 1, 2, 3])
    g_full = V._full_batch_gradient(resid, grads, n_points, n_terms)
    g_direct = V._surrogate_gradient(resid, grads, range(n_points), range(n_terms), n_terms)
    assert np.abs(g_full - g_direct).max() <= 1e-15


def test_jets_suite_passes():
    assert all(r.passed for r in jets_suite(0))


def test_implicit_suite_passes_and_covers_splits():
    reports = implicit_suite(0)
    assert len(reports) >= 20
    assert all(r.passed for r in reports)
    ks = {r.name.rsplit("_k", 1)[-1] for r in reports}
    assert not ks.issubset({"1"})  # k > 1 splits included


def test_explicit_delta_matches_kron_identity():
    from sdze.subspace import subspace_for_layer

    state = subspace_for_layer(3, 0, 8, 6, 2)
    Z = np.random.default_rng(3).standard_normal((2, 2))
    D = explicit_delta_w(state, Z)
    vec = np.kron(state.V, state.U) @ Z.reshape(-1, order="F")
    assert np.abs(D.reshape(-1, order="F") - vec).max() <= 1e-12
