import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdze import net
from sdze.alloc import AllocationLedger, ledger_active
from sdze.net import (
    MlpParams,
    PerturbView,
    activation_triple,
    ansatz,
    derivative_bound_monitor,
    forward,
    init_mlp,
    jet_forward,
    jet_sums,
    plain_view,
)
from sdze.rng import Role, StreamKey, derive_stream
from sdze.subspace import sample_core, subspace_for_layer
from sdze.verify import explicit_delta_w, explicit_forward, explicit_jet_forward


def build(widths, master=11, rank=2, bias=False, core_step=1):
    params = init_mlp(widths, "sin", master, bias=bias)
    subs = [
        subspace_for_layer(master, l, W.shape[0], W.shape[1], rank)
        for l, W in enumerate(params.weights)
    ]
    cores = [
        sample_core(derive_stream(StreamKey(master, Role.CORE_Z, core_step, l)), s.rank)
        for l, s in enumerate(subs)
    ]
    return params, subs, cores


def test_shapes_must_chain():
    with pytest.raises(ValueError):
        MlpParams([np.zeros((3, 4)), np.zeros((5, 1))])
    with pytest.raises(ValueError):
        MlpParams([np.zeros((3, 2))])  # output width must be 1


def test_sign_zero_is_bitwise_plain():
    params, subs, cores = build([6, 5, 1])
    X = np.random.default_rng(0).standard_normal((4, 6)) * 0.4
    assert np.array_equal(
        forward(plain_view(params), X),
        forward(PerturbView(params, subs, cores, 0, 1e-3), X),
    )


def test_zero_core_perturbation_is_exact_noop():
    params, subs, _ = build([6, 5, 1])
    zero_cores = [np.zeros((s.rank, s.rank)) for s in subs]
    X = np.random.default_rng(1).standard_normal((4, 6)) * 0.4
    got = forward(PerturbView(params, subs, zero_cores, +1, 1e-3), X)
    assert np.array_equal(got, forward(plain_view(params), X))


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("sign", [+1, -1])
def test_perturbed_forward_matches_explicit_materialization(bias, sign):
    params, subs, cores = build([6, 5, 1], bias=bias)
    deltas = [explicit_delta_w(s, Z) for s, Z in zip(subs, cores)]
    X = np.random.default_rng(2).standard_normal((5, 6)) * 0.4
    got = forward(PerturbView(params, subs, cores, sign, 0.37), X)
    if bias:
        H = X
        for l, W in enumerate(params.weights):
            Wp = W + sign * 0.37 * deltas[l]
            H = np.hstack([H, np.ones((len(H), 1))]) @ Wp
            if l < params.depth - 1:
                H = np.sin(H)
        want = H
    else:
        want = explicit_forward(params, X, deltas, sign, 0.37)
    assert np.abs(got - want).max() / np.abs(want).max() <= 1e-12


def test_ansatz_boundary_and_center():
    params, _, _ = build([3, 4, 1])
    on_sphere = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    assert np.all(ansatz(plain_view(params), on_sphere) == 0.0)
    center = np.zeros((1, 3))
    assert np.array_equal(
        ansatz(plain_view(params), center), forward(plain_view(params), center)
    )
    X = np.random.default_rng(3).standard_normal((6, 3)) * 0.3
    phi = 1.0 - (X * X).sum(axis=1, keepdims=True)
    assert np.allclose(
        ansatz(plain_view(params), X), phi * forward(plain_view(params), X), rtol=1e-15
    )


def test_constant_network_second_derivative():
    # all weights zero, output bias c: u = phi * c, so d2u/dx_i^2 = -2c at 0
    c = 1.7
    weights = [np.zeros((4, 3)), np.zeros((4, 1))]
    weights[1][-1, 0] = c  # bias row of the output layer
    params = MlpParams(weights, "sin", bias=True)
    J = jet_forward(plain_view(params), np.zeros((1, 3)), np.array([0, 2]))
    assert np.allclose(J.d2, -2.0 * c)
    assert np.allclose(J.value, c)


def test_plain_jets_match_central_differences():
    params, _, _ = build([7, 9, 6, 1])
    rng = np.random.default_rng(4)
    X = rng.standard_normal((5, 7)) * 0.3
    view = plain_view(params)
    dims = np.array([0, 3, 6])
    J = jet_forward(view, X, dims)
    h = 1e-4
    for j, i in enumerate(dims):
        e = np.zeros(7)
        e[i] = h
        up = ansatz(view, X + e)[:, 0]
        um = ansatz(view, X - e)[:, 0]
        u0 = ansatz(view, X)[:, 0]
        fd1 = (up - um) / (2 * h)
        fd2 = (up - 2 * u0 + um) / h**2
        assert np.abs(J.d1[j] - fd1).max() / np.abs(fd1).max() <= 1e-6
        assert np.abs(J.d2[j] - fd2).max() / np.abs(fd2).max() <= 1e-6


@pytest.mark.parametrize("sign", [+1, -1])
def test_perturbed_jets_match_explicit_oracle(sign):
    params, subs, cores = build([6, 8, 1], rank=2)
    deltas = [explicit_delta_w(s, Z) for s, Z in zip(subs, cores)]
    X = np.random.default_rng(5).standard_normal((5, 6)) * 0.4
    dims = np.array([1, 4])
    J = jet_forward(PerturbView(params, subs, cores, sign, 0.21), X, dims)
    u_o, d1_o, d2_o = explicit_jet_forward(params, X, dims, deltas, sign, 0.21)
    for got, want in ((J.value, u_o), (J.d1, d1_o), (J.d2, d2_o)):
        assert np.abs(got - want).max() / np.abs(want).max() <= 1e-10


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("sign", [-1, 0, +1])
def test_set_sums_match_explicit_oracle(bias, sign):
    # three sets over 7 inputs: {1, 4, 4} repeats an index, {4, 0, 6}
    # overlaps it, and {2} is a singleton; the long set spans two chunks
    params, subs, cores = build([7, 9, 8, 1], rank=2, bias=bias)
    deltas = [explicit_delta_w(s, Z) for s, Z in zip(subs, cores)]
    X = np.random.default_rng(9).standard_normal((6, 7)) * 0.3
    sets = [[1, 4, 4], [4, 0, 6] * 7, [2]]
    dims = np.concatenate(sets)
    view = PerturbView(params, subs, cores, sign, 0.23)
    u, sums = jet_sums(view, X, dims, [len(I) for I in sets])
    u_o, _, d2_o = explicit_jet_forward(params, X, dims, deltas, sign, 0.23)
    ends = np.cumsum([len(I) for I in sets])
    want = np.stack([d2_o[e - len(I) : e].sum(axis=0) for I, e in zip(sets, ends)])
    assert sums.shape == (3, 6)
    assert np.abs(u - u_o).max() / np.abs(u_o).max() <= 1e-10
    assert np.abs(sums - want).max() / np.abs(want).max() <= 1e-10


def test_set_sizes_must_cover_the_directions():
    params, _, _ = build([4, 5, 1])
    X = np.zeros((2, 4))
    for sizes in ([2], [3, 1, 1], [4, 0], []):
        with pytest.raises(ValueError):
            jet_sums(plain_view(params), X, np.arange(4), sizes)


def test_jet_forward_rejects_bad_dims():
    params, _, _ = build([4, 5, 1])
    with pytest.raises(ValueError):
        jet_forward(plain_view(params), np.zeros((2, 4)), np.array([4]))


def test_forward_rejects_bad_width():
    params, _, _ = build([4, 5, 1])
    with pytest.raises(ValueError):
        forward(plain_view(params), np.zeros((2, 5)))


def test_derivative_bound_single_linear_layer():
    w = np.array([[0.4], [-1.2], [2.0]])
    params = MlpParams([w], "sin")
    obs, bound = derivative_bound_monitor(params, np.zeros(3), 1)
    assert obs <= bound
    assert np.isclose(obs, np.linalg.norm(w))
    assert np.isclose(bound, max(np.linalg.norm(w, 2), 1.0))


def test_derivative_bound_random_net():
    params = init_mlp([8, 6, 6, 1], "sin", 5)
    x = np.random.default_rng(6).standard_normal(8) * 0.2
    for order in (1, 2):
        obs, bound = derivative_bound_monitor(params, x, order)
        assert obs <= bound


def test_derivative_bound_scales_with_weight_norms():
    params = init_mlp([5, 6, 6, 1], "sin", 7)
    # inflate so every layer norm exceeds 1 before and after the x10 scaling
    for W in params.weights:
        W *= 3.0 / max(np.linalg.norm(W, 2), 1e-9)
    scaled = MlpParams([10.0 * W for W in params.weights], "sin")
    x = np.zeros(5)
    for order in (1, 2):
        _, b1 = derivative_bound_monitor(params, x, order)
        _, b2 = derivative_bound_monitor(scaled, x, order)
        L = params.depth
        predicted = 10.0 ** (1 + order * (L - 1))
        assert np.isclose(b2 / b1, predicted, rtol=1e-12)


def test_jet_temporaries_respect_single_buffer_bound():
    # during a perturbed jet sweep no single temporary exceeds
    # max(B*(1+b)*h_max, B*k_max*r_max)
    for widths, b in [([12, 16, 16, 1], 4), ([30, 8, 1], 12), ([10, 128, 1], 2)]:
        params, subs, cores = build(widths, rank=3)
        B = 9
        X = np.random.default_rng(8).standard_normal((B, widths[0])) * 0.2
        led = AllocationLedger()
        with ledger_active(led):
            jet_forward(
                PerturbView(params, subs, cores, +1, 1e-3), X, np.arange(b)
            )
        h_max = max(params.widths)
        k_max = max(s.plan.split_factor for s in subs)
        r_max = max(s.rank for s in subs)
        limit = max(B * (1 + b) * h_max, B * k_max * r_max)
        assert led.phases["jets"].largest <= limit


def test_sin_jet_at_zero():
    f, f1, f2 = activation_triple("sin")
    assert np.allclose([f(0.0), f1(0.0), f2(0.0)], [0.0, 1.0, 0.0])


def test_sin_jet_at_half_pi():
    f, f1, f2 = activation_triple("sin")
    assert np.allclose(f(np.pi / 2), 1.0)
    assert np.allclose(f1(np.pi / 2), 0.0, atol=1e-15)
    assert np.allclose(f2(np.pi / 2), -1.0)


def test_tanh_scaled_d2_matches_fd_of_first_derivative():
    # sigma'' against central differences of sigma' with h = 1e-5
    _, f1, f2 = activation_triple("tanh_scaled", 0.8)
    h = 1e-5
    rng = np.random.default_rng(3)
    for u in rng.standard_normal(20):
        fd = (f1(u + h) - f1(u - h)) / (2 * h)
        assert abs(f2(u) - fd) <= 1e-6 * max(abs(fd), 1e-3)


def test_unknown_activation_rejected():
    with pytest.raises(ValueError):
        activation_triple("relu")


def test_shared_primal_one_evaluation_per_layer():
    params = init_mlp([6, 8, 8, 1], "sin", 0)
    x = np.random.default_rng(5).standard_normal((3, 6)) * 0.2
    for n_dirs in (1, 4, 6):
        before = net.primal_eval_count()
        jet_forward(plain_view(params), x, np.arange(n_dirs))
        assert net.primal_eval_count() - before == params.depth


@given(
    alpha=st.floats(-3, 3, allow_nan=False),
    beta=st.floats(-3, 3, allow_nan=False),
    seed=st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_jet_linearity_in_the_function(alpha, beta, seed):
    # the ansatz jets are linear in the output layer: jets of the network
    # with output weights alpha*Wa + beta*Wb combine those of Wa and Wb
    rng = np.random.default_rng(seed)
    W1 = rng.standard_normal((4, 6))
    Wa, Wb = rng.standard_normal((6, 1)), rng.standard_normal((6, 1))
    x = rng.standard_normal((3, 4)) * 0.3

    def jets(W2):
        return jet_forward(plain_view(MlpParams([W1, W2])), x, np.array([2]))

    Ja, Jb, Jc = jets(Wa), jets(Wb), jets(alpha * Wa + beta * Wb)
    for plane in ("value", "d1", "d2"):
        got = getattr(Jc, plane)
        want = alpha * getattr(Ja, plane) + beta * getattr(Jb, plane)
        assert np.allclose(got, want, atol=1e-10)
