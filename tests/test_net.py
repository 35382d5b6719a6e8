import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdze import net
from sdze.net import (
    JET_CHUNK,
    MlpParams,
    PerturbView,
    SignPair,
    activation_triple,
    ansatz,
    forward,
    init_mlp,
    jet_sums,
    plain_view,
)
from sdze.rng import CHUNK_BYTES, Role, StreamKey, derive_stream
from sdze.spatial import (
    SpatialSample,
    draw_sample,
    make_problem,
    sampled_operator,
    stochastic_loss,
)
from sdze.subspace import rank_r_delta, sample_core, subspace_for_layer
from sdze.workspace import Workspace
from sdze.verify import explicit_delta_w, explicit_forward, explicit_jets


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


def test_view_sign_must_be_a_sign_of_its_pair():
    params, subs, cores = build([6, 5, 1])
    with pytest.raises(ValueError):
        PerturbView(SignPair(params, subs, cores, 1e-3), 0)
    for sign in (+1, -1):
        with pytest.raises(ValueError):
            PerturbView(SignPair(params), sign)


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_each_sign_forms_its_hidden_weights_once(bias, dtype):
    # each sign's layer l >= 1 is (W_l +/- rank_r_delta(s, Z, eps)) cast once;
    # layer 0 stays W_0 in the step dtype, its perturbation implicit
    params, subs, cores = build([6, 5, 4, 1], bias=bias)
    pair = SignPair(params, subs, cores, 0.37, dtype)
    for sign in (+1, -1):
        got = pair.weights((sign,))
        assert got[0].tobytes() == params.weights[0].astype(dtype).tobytes()
        stacks = pair.weights((1, -1))[1:]
        for W, s, Z, G, both in zip(params.weights[1:], subs[1:], cores[1:], got[1:], stacks):
            assert G.shape == (1, *W.shape) and np.shares_memory(G, both)  # its slice
            E = rank_r_delta(s, Z, 0.37)
            want = (W + E if sign > 0 else W - E).astype(dtype)
            assert G.dtype == np.dtype(dtype) and G.tobytes() == want.tobytes()


def test_a_standalone_view_forms_each_perturbation_once(monkeypatch):
    params, subs, cores = build([6, 5, 4, 1])
    calls = []

    def counted(*args):
        calls.append(args[0].layer)
        return rank_r_delta(*args)

    monkeypatch.setattr(net, "rank_r_delta", counted)
    view = PerturbView(SignPair(params, subs, cores, 1e-3), -1)
    X = np.random.default_rng(0).standard_normal((4, 6)) * 0.4
    ansatz(view, X)
    jet_sums(view, X, [0, 3], [1, 1])
    assert sorted(calls) == [1, 2]


def test_zero_core_perturbation_is_exact_noop():
    params, subs, _ = build([6, 5, 1])
    zero_cores = [np.zeros((s.rank, s.rank)) for s in subs]
    X = np.random.default_rng(1).standard_normal((4, 6)) * 0.4
    got = forward(PerturbView(SignPair(params, subs, zero_cores, 1e-3), +1), X)
    assert np.array_equal(got, forward(plain_view(params), X))


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("sign", [+1, -1])
def test_perturbed_forward_matches_explicit_materialization(bias, sign):
    params, subs, cores = build([6, 5, 1], bias=bias)
    deltas = [explicit_delta_w(s, Z) for s, Z in zip(subs, cores)]
    X = np.random.default_rng(2).standard_normal((5, 6)) * 0.4
    got = forward(PerturbView(SignPair(params, subs, cores, 0.37), sign), X)
    want = explicit_forward(params, X, deltas, sign, 0.37)
    assert np.abs(got - want).max() / np.abs(want).max() <= 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_precision_contract_pins_the_dtype_of_each_stage(dtype):
    # planes in the step dtype; ansatz assembly, operator and loss in f64;
    # for one, two and three hidden layers, with and without bias, each sign
    problem = make_problem("none", 7, "two_body", 3)
    drawn = draw_sample(problem, SpatialSample(3, 1, 7, 2, 7))
    for widths in ([7, 5, 4, 1], [7, 9, 8, 6, 1], [7, 1]):
        for bias in (False, True):
            params, subs, cores = build(widths, bias=bias)
            pair = SignPair(params, subs, cores, 1e-3, dtype)
            plus, minus = PerturbView(pair, 1), PerturbView(pair, -1)
            for view in (minus, PerturbView(SignPair(params, dtype=dtype)), plus):
                batch = view.pair.batch(drawn.X)
                rows = view.pair.rows(drawn.sets)
                planes = net._raw_jets(view.pair, view.signs, batch, rows, [0, 2])
                stages = [*planes, batch.G0, rows.R0, forward(view, drawn.X)]
                if view.sign:
                    stages += [batch.P, rows.D]
                assert [p.dtype for p in stages] == [np.dtype(dtype)] * len(stages)
                u, sums = jet_sums(view, drawn.X, drawn.dims, [2, 2])
                op = sampled_operator(view, problem, drawn.X, drawn.dims, [2, 2])
                assert (u.dtype, sums.dtype, op.dtype) == (np.dtype(np.float64),) * 3
                assert isinstance(stochastic_loss(view, problem, drawn), float)


def test_an_overflow_in_the_primal_names_its_layer():
    # sin(1) * 3e38 + 3e38 is past float32's range at the output layer's bias
    W0 = np.zeros((4, 3))
    W0[-1] = 1.0  # bias row: every pre-activation is 1
    W1 = np.zeros((4, 1))
    W1[0, 0] = W1[-1, 0] = 3e38
    view = PerturbView(SignPair(MlpParams([W0, W1], bias=True), dtype=np.float32))
    X = np.zeros((2, 3), np.float32)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="^layer 1 jet sweep overflows .* float32$"):
            jet_sums(view, X, [0, 2], [1, 1])
        # values alone run no jet sweep: the error names the forward pass
        for values in (forward, ansatz):
            with pytest.raises(
                FloatingPointError, match="^layer 1 forward pass overflows .* float32$"
            ):
                values(view, X)


def _one_sign_overflows(core_sign):
    """A float32 pair whose output layer passes float32's range at one sign only.

    The input layer's perturbation moves each sign's sin planes; the output
    weights (1e35 each) and a bias between the two signs' largest outputs,
    measured in float64, put one sign past the range.  Negating the core
    swaps the signs exactly.  Returns (pair, batch, the overflowing sign).
    """
    params = init_mlp([3, 8, 1], "sin", 5, bias=True)
    subs = [subspace_for_layer(5, l, *W.shape, 2) for l, W in enumerate(params.weights)]
    cores = [core_sign * 10.0 * np.array([[1.0, -0.5], [0.3, 0.8]]), np.zeros((subs[1].rank,) * 2)]
    X = np.array([[0.3, -0.2, 0.5], [0.1, 0.4, -0.6], [-0.5, 0.2, 0.1]], np.float32)
    W1 = params.weights[1]
    W1[:-1] = 1e35 * np.array([[1.0, -0.7, 0.9, 0.4, -1.0, 0.8, 0.6, -0.3]]).T
    W1[-1] = 0.0
    top = {
        sign: forward(PerturbView(SignPair(params, subs, cores, 0.5), sign), X).max()
        for sign in (1, -1)
    }
    over = max(top, key=top.get)
    W1[-1] = float(np.finfo(np.float32).max) - (top[1] + top[-1]) / 2
    assert abs(top[1] - top[-1]) > 1e-5 * W1[-1, 0]  # far past float32's rounding
    return SignPair(params, subs, cores, 0.5, np.float32), X, over


def test_an_overflow_at_either_sign_of_a_stack_names_its_layer():
    overflowing = []
    for core_sign in (1.0, -1.0):
        pair, X, over = _one_sign_overflows(core_sign)
        overflowing.append(over)
        with np.errstate(over="raise"):
            jet_sums(PerturbView(pair, -over), X, [0, 2], [1, 1])  # the other sign is finite
            for view in (PerturbView(pair, over), PerturbView(pair, (1, -1))):
                with pytest.raises(FloatingPointError, match="^layer 1 jet sweep overflows"):
                    jet_sums(view, X, [0, 2], [1, 1])
    assert sorted(overflowing) == [-1, 1]


def test_a_non_finite_tangent_term_names_its_layer_whatever_the_errstate():
    # layer-1 weights of 1e25 keep the primal and the adjoints finite in
    # float32, but the tangents' squares pass 1e38; einsum raises nothing
    params = init_mlp([5, 6, 4, 1], "sin", 3)
    params.weights[1] *= 1e25
    view = PerturbView(SignPair(params, dtype=np.float32))
    X = (np.random.default_rng(4).standard_normal((3, 5)) * 0.3).astype(np.float32)
    with pytest.raises(FloatingPointError, match="^layer 1 jet sweep overflows .* float32$"):
        jet_sums(view, X, [0, 3], [2])


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
    u, sums = jet_sums(plain_view(params), np.zeros((1, 3)), [0, 2, 0, 2], [1, 1, 2])
    assert np.allclose(sums, [[-2.0 * c], [-2.0 * c], [-4.0 * c]])
    assert np.allclose(u, c)


def test_plain_jets_match_central_differences():
    params, _, _ = build([7, 9, 6, 1])
    rng = np.random.default_rng(4)
    X = rng.standard_normal((5, 7)) * 0.3
    view = plain_view(params)
    dims = np.array([0, 3, 6])
    _, sums = jet_sums(view, X, dims, [1, 1, 1])
    h = 1e-4
    u0 = ansatz(view, X)[:, 0]
    for j, i in enumerate(dims):
        e = np.zeros(7)
        e[i] = h
        fd2 = (ansatz(view, X + e)[:, 0] - 2 * u0 + ansatz(view, X - e)[:, 0]) / h**2
        assert np.abs(sums[j] - fd2).max() / np.abs(fd2).max() <= 1e-6


@pytest.mark.parametrize("sign", [+1, -1])
def test_perturbed_jets_match_explicit_oracle(sign):
    params, subs, cores = build([6, 8, 1], rank=2)
    deltas = [explicit_delta_w(s, Z) for s, Z in zip(subs, cores)]
    X = np.random.default_rng(5).standard_normal((5, 6)) * 0.4
    dims = np.array([1, 4])
    view = PerturbView(SignPair(params, subs, cores, 0.21), sign)
    u, sums = jet_sums(view, X, dims, [1, 1])
    u_o, d2_o = explicit_jets(params, X, dims, deltas, sign, 0.21)
    for got, want in ((u, u_o), (sums, d2_o)):
        assert np.abs(got - want).max() / np.abs(want).max() <= 1e-10


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("sign", [-1, 0, +1])
def test_set_sums_match_explicit_oracle(bias, sign):
    # three sets over 7 inputs: {1, 4, 4} repeats an index, {4, 0, 6}
    # overlaps it, and {2} is a singleton; the long set spans two chunks.
    # Depths 2, 4 and 1: with three hidden layers an adjoint crosses two
    # hidden-to-hidden layers and a tangent is rescaled between GEMMs
    X = np.random.default_rng(9).standard_normal((6, 7)) * 0.3
    sets = [[1, 4, 4], [4, 0, 6] * 7, [2]]
    dims = np.concatenate(sets)
    ends = np.cumsum([len(I) for I in sets])
    for widths in ([7, 9, 8, 1], [7, 9, 8, 6, 1], [7, 1]):
        params, subs, cores = build(widths, rank=2, bias=bias)
        deltas = [explicit_delta_w(s, Z) for s, Z in zip(subs, cores)]
        # sign 0 is the plain network, a pair of its own
        pair = SignPair(params, subs, cores, 0.23) if sign else SignPair(params)
        u, sums = jet_sums(PerturbView(pair, sign), X, dims, [len(I) for I in sets])
        u_o, d2_o = explicit_jets(params, X, dims, deltas, sign, 0.23)
        want = np.stack([d2_o[e - len(I) : e].sum(axis=0) for I, e in zip(sets, ends)])
        assert sums.shape == (3, 6)
        assert np.abs(u - u_o).max() / np.abs(u_o).max() <= 1e-10, widths
        assert np.abs(sums - want).max() / np.abs(want).max() <= 1e-10, widths


def test_set_sizes_must_cover_the_directions():
    params, _, _ = build([4, 5, 1])
    X = np.zeros((2, 4))
    for sizes in ([2], [3, 1, 1], [4, 0], []):
        with pytest.raises(ValueError):
            jet_sums(plain_view(params), X, np.arange(4), sizes)


def test_jet_sums_rejects_bad_dims():
    params, _, _ = build([4, 5, 1])
    for dims in ([4], [-1]):
        with pytest.raises(ValueError):
            jet_sums(plain_view(params), np.zeros((2, 4)), dims, [1])


def test_forward_rejects_bad_width():
    params, _, _ = build([4, 5, 1])
    with pytest.raises(ValueError):
        forward(plain_view(params), np.zeros((2, 5)))


def test_jet_temporaries_respect_single_buffer_bound(peak_spans):
    # Measured peak bytes of a perturbed jet sweep (f64) stay within a bound
    # that does not grow with d: with two or more hidden layers, JET_CHUNK-wide
    # first-order tangent blocks of B x h planes (the block, its GEMM product
    # and as much reduction scratch), none with one hidden layer; sigma' and
    # sigma'' of every hidden layer, two B x h transients, the seed rows and
    # the outputs, plus 16 KiB of small objects.  The later layers'
    # W_l +/- E_l are not counted: the pair forms them when it is built,
    # before the sweep starts.  With d >> h, a (b, B, d) one-hot tangent
    # block alone would exceed it.
    peak_spans.wrap(net, "_raw_jets")
    B = 9
    cases = [
        ([12, 16, 16, 1], 4, False),
        ([30, 8, 1], 12, False),
        ([10, 128, 1], 2, False),
        ([2000, 16, 16, 1], 8, False),
        ([2000, 16, 16, 1], 8, True),
        ([12, 16, 16, 16, 1], 20, True),
    ]
    for widths, b, bias in cases:
        params, subs, cores = build(widths, rank=3, bias=bias)
        X = np.random.default_rng(8).standard_normal((B, widths[0])) * 0.2
        view = PerturbView(SignPair(params, subs, cores, 1e-3), +1)
        jet_sums(view, X, np.arange(b) % widths[0], [b])
        h = max(widths[1:])
        c = min(JET_CHUNK, b)
        words = (
            (3 * c * B * h if len(widths) > 3 else 0)
            + 2 * B * sum(widths[1:-1])
            + 2 * B * h
            + b * h
            + 2 * b * B
        )
        limit = 8 * words + 16384
        assert peak_spans.peaks("_raw_jets")[-1] <= limit, (widths, b, bias)
        if widths[0] > 100 * h:
            assert 8 * b * B * widths[0] > limit


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
    _, f1, f2 = activation_triple("tanh_scaled")
    h = 1e-5
    rng = np.random.default_rng(3)
    for u in rng.standard_normal(20):
        fd = (f1(u + h) - f1(u - h)) / (2 * h)
        assert abs(f2(u) - fd) <= 1e-6 * max(abs(fd), 1e-3)


def test_unknown_activation_rejected():
    with pytest.raises(ValueError):
        activation_triple("relu")
    # a network refuses the tag when it is built, not at its first pass
    with pytest.raises(ValueError, match="relu"):
        MlpParams([np.ones((3, 2)), np.ones((2, 1))], "relu")
    with pytest.raises(ValueError, match="relu"):
        init_mlp([3, 2, 1], "relu", 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("act", net.ACTIVATIONS)
def test_activation_planes_equal_the_oracle_bitwise(act, dtype):
    G = np.random.default_rng(4).standard_normal((20, 64)).astype(dtype) * 3
    G[0, :4] = [0.0, -0.0, np.pi / 2, 40.0]
    planes = net.activation_planes(act, G, derivs=True)
    oracle = [f(G) for f in activation_triple(act)]
    assert [p.dtype for p in planes] == [np.dtype(dtype)] * 3
    assert [p.tobytes() for p in planes] == [p.tobytes() for p in oracle]
    value, none1, none2 = net.activation_planes(act, G, derivs=False)
    assert value.tobytes() == oracle[0].tobytes() and none1 is None and none2 is None
    # in place, as a pass without derivatives applies it from layer 1 on
    inplace = G.copy()
    assert net.activation_planes(act, inplace, derivs=False, out=inplace)[0] is inplace
    assert inplace.tobytes() == oracle[0].tobytes()


@pytest.mark.parametrize(
    "sizes, n, want",
    [([5, 5], 10, [0, 5]), ([3], 3, [0]), ((1, 2, 3), 6, [0, 1, 3]), (np.array([2, 1]), 3, [0, 2])],
)
def test_set_starts_known_answers(sizes, n, want):
    starts = net.set_starts(sizes, n)
    assert starts == want and all(type(s) is int for s in starts)


@pytest.mark.parametrize(
    "sizes, n",
    [
        ([], 0),  # empty
        ([0, 5], 5),  # non-positive
        ([-1, 6], 5),
        ([[5, 5]], 10),  # not 1-D
        (np.array([[5, 5]]), 10),
        (5, 5),
        (np.array(5), 5),
        ([5, 5], 9),  # wrong sum
        ([2.0, 3.0], 5),  # not integers
        ([True, True], 2),  # bools
        ([True, 1], 2),
        (np.array([True, True]), 2),
    ],
)
def test_set_starts_rejects_invalid_sizes(sizes, n):
    with pytest.raises(ValueError):
        net.set_starts(sizes, n)


def test_shared_primal_one_evaluation_per_layer(monkeypatch):
    # every direction of a sweep shares one primal pass over all layers
    params = init_mlp([6, 8, 8, 1], "sin", 0)
    x = np.random.default_rng(5).standard_normal((3, 6)) * 0.2
    primal = net._primal
    passes = []

    def counted(pair, signs, X, derivs):
        passes.append(derivs)
        return primal(pair, signs, X, derivs=derivs)

    monkeypatch.setattr(net, "_primal", counted)
    for n_dirs in (1, 4, 6, 40):
        passes.clear()
        jet_sums(plain_view(params), x, np.arange(n_dirs) % 6, [n_dirs])
        assert passes == [True]


STACK_WIDTHS = {1: [40, 1], 2: [40, 7, 1], 3: [40, 7, 6, 1], 4: [40, 7, 6, 5, 1]}


@pytest.mark.parametrize("work", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("act", net.ACTIVATIONS)
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("depth", sorted(STACK_WIDTHS))
def test_a_stacked_sweep_equals_one_sweep_per_sign_bytewise(depth, bias, act, dtype, work):
    # b = 2 x 19 > JET_CHUNK: each set has a full and a partial tangent block
    widths = STACK_WIDTHS[depth]
    params = init_mlp(widths, act, 4, bias=bias)
    subs = [subspace_for_layer(4, l, *W.shape, 3) for l, W in enumerate(params.weights)]
    cores = [
        sample_core(derive_stream(StreamKey(4, Role.CORE_Z, 1, l)), s.rank)
        for l, s in enumerate(subs)
    ]
    problem = make_problem("none", 40, "two_body", 4)
    drawn = draw_sample(problem, SpatialSample(4, 1, 6, 19, 40, dtype=dtype))
    assert drawn.dims.size > 2 * JET_CHUNK

    def pair():
        return SignPair(params, subs, cores, 0.3, dtype, Workspace() if work else None)

    stacked = PerturbView(pair(), (1, -1))
    got = jet_sums(stacked, drawn.X, drawn.dims, drawn.sets)
    values = forward(stacked, drawn.X)
    loss = stochastic_loss(stacked, problem, drawn)
    for k, sign in enumerate((1, -1)):
        alone = PerturbView(pair(), sign)
        want = jet_sums(alone, drawn.X, drawn.dims, drawn.sets)
        assert [a[k].tobytes() for a in got] == [a.tobytes() for a in want], sign
        assert values[k].tobytes() == forward(alone, drawn.X).tobytes()
        assert loss[k] == stochastic_loss(alone, problem, drawn)
    # a stack of one is the one sign with its sign axis kept
    one = jet_sums(PerturbView(pair(), (-1,)), drawn.X, drawn.dims, drawn.sets)
    assert [a.shape[0] for a in one] == [1, 1]
    assert [a[0].tobytes() for a in one] == [a[1].tobytes() for a in got]


@pytest.mark.parametrize("widths", [[7, 1], [7, 5, 1], [7, 5, 6, 1]])
def test_one_sign_sweeps_read_their_slice_of_a_stacked_sweeps_planes(widths, monkeypatch):
    # a pinned-batch sweep forms each pair's planes once: the stack's first
    # sweep forms both signs', and every later sweep at one sign, or at both,
    # reads them, with the bits of a fresh pair's sweep at that sign
    params, subs, cores = build(widths, bias=True)
    problem = make_problem("none", 7, "two_body", 3)
    samples = [SpatialSample(3, k, 6, 3, 7, collocation_step=0) for k in range(1, 4)]
    pinned = draw_sample(problem, samples[0])
    reused = SignPair(params, subs, cores, 0.3)
    primal, passes = net._primal, []

    def counted(pair, signs, X, derivs):
        passes.append((pair, signs))
        return primal(pair, signs, X, derivs=derivs)

    monkeypatch.setattr(net, "_primal", counted)
    for sample in samples:
        drawn = draw_sample(problem, sample, batch=pinned)
        for sign in ((1, -1), 1, -1, (1,), (-1,)):
            got = jet_sums(PerturbView(reused, sign), drawn.X, drawn.dims, [3, 3])
            want = jet_sums(
                PerturbView(SignPair(params, subs, cores, 0.3), sign), drawn.X, drawn.dims, [3, 3]
            )
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], sign
    assert [signs for pair, signs in passes if pair is reused] == [(1, -1)]


def _pair(params, subs, cores, sign, dtype):
    if sign:
        return SignPair(params, subs, cores, 0.3, dtype)
    return SignPair(params, dtype=dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("widths", [[7, 1], [7, 5, 1], [7, 5, 6, 1], [7, 5, 6, 4, 1]])
def test_a_pair_on_a_pinned_batch_forms_its_planes_once_per_sign(
    widths, bias, dtype, monkeypatch
):
    # one pair serves draws that differ only in their index sets, as the
    # replicates of a variance sweep do; each result has the bits of a fresh
    # pair's, and the reused pair runs one primal pass per sign
    params, subs, cores = build(widths, bias=bias)
    problem = make_problem("none", 7, "two_body", 3)
    samples = [SpatialSample(3, k, 6, 3, 7, collocation_step=0) for k in range(1, 7)]
    pinned = draw_sample(problem, samples[0])
    reused = {sign: _pair(params, subs, cores, sign, dtype) for sign in (1, 0)}
    reused[-1] = reused[1]
    primal, passes = net._primal, []

    def counted(pair, signs, X, derivs):
        passes.append((pair, signs))
        return primal(pair, signs, X, derivs=derivs)

    monkeypatch.setattr(net, "_primal", counted)
    for k, sample in enumerate(samples):
        drawn = draw_sample(problem, sample, batch=pinned)
        for sign, pair in reused.items():
            got = jet_sums(PerturbView(pair, sign), drawn.X, drawn.dims, [3, 3])
            fresh = PerturbView(_pair(params, subs, cores, sign, dtype), sign)
            want = jet_sums(fresh, drawn.X, drawn.dims, [3, 3])
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], (k, sign)
    assert sorted(signs for pair, signs in passes if pair in (reused[1], reused[0])) == [
        (-1,), (0,), (1,)
    ]


def test_a_writable_batch_changed_in_place_gets_new_planes():
    params, subs, cores = build([6, 5, 4, 1])
    rng = np.random.default_rng(6)
    X, X2 = rng.standard_normal((2, 4, 6)) * 0.4
    dims = np.array([0, 3, 5])
    for sign in (1, -1):
        view = PerturbView(SignPair(params, subs, cores, 0.3), sign)
        X_live = X.copy()
        first = jet_sums(view, X_live, dims, [1, 2])
        X_live[:] = X2
        got = jet_sums(view, X_live, dims, [1, 2])
        want = jet_sums(PerturbView(SignPair(params, subs, cores, 0.3), sign), X2, dims, [1, 2])
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert not np.array_equal(got[0], first[0])


def test_cached_planes_are_read_only():
    params, subs, cores = build([6, 5, 4, 1])
    problem = make_problem("none", 6, "two_body", 3)
    drawn = draw_sample(problem, SpatialSample(3, 1, 4, 2, 6))
    for pair, sign in ((SignPair(params, subs, cores, 0.3), 1), (SignPair(params), 0)):
        batch = pair.batch(drawn.X)
        g = net._raw_jets(pair, (sign,), batch, pair.rows(drawn.sets), [0, 2])[0]
        value, s1s, nus, lam0 = batch.planes[sign,]
        assert g is value
        products = (batch.G0,) if batch.P is None else (batch.G0, batch.P)
        for plane in (value, *s1s, *nus, lam0, *products):
            with pytest.raises(ValueError, match="read-only"):
                plane[0] = 0.0


@given(
    alpha=st.floats(-3, 3, allow_nan=False),
    beta=st.floats(-3, 3, allow_nan=False),
    seed=st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_jet_linearity_in_the_function(alpha, beta, seed):
    # the ansatz jets are linear in the output layer: jets of the network
    # with output weights alpha*Wa + beta*Wb combine those of Wa and Wb,
    # for a singleton set and a set with a repeated index
    rng = np.random.default_rng(seed)
    W1 = rng.standard_normal((4, 6))
    Wa, Wb = rng.standard_normal((6, 1)), rng.standard_normal((6, 1))
    x = rng.standard_normal((3, 4)) * 0.3

    def jets(W2):
        return jet_sums(plain_view(MlpParams([W1, W2])), x, [2, 0, 3, 0], [1, 3])

    Ja, Jb, Jc = jets(Wa), jets(Wb), jets(alpha * Wa + beta * Wb)
    for a, b, c in zip(Ja, Jb, Jc):
        assert np.allclose(c, alpha * a + beta * b, atol=1e-10)


def test_f32_jet_sums_stay_close_to_f64_at_the_training_shape():
    # the criterion-7 shape: 100-128-128-1 with bias, B = 100, two sets of
    # b = 16, rank 16, eps 1e-3; f32 and f64 sweeps read the same keys
    worst = 0.0
    for key in range(10):
        params, subs, cores = build([100, 128, 128, 1], master=key, rank=16, bias=True)
        problem = make_problem("none", 100, "two_body", key)
        drawn = draw_sample(problem, SpatialSample(key, 1, 100, 16, 100))
        out = {}
        for dtype in (np.float32, np.float64):
            pair = SignPair(params, subs, cores, 1e-3, dtype)
            for sign in (+1, -1):
                out[dtype, sign] = jet_sums(PerturbView(pair, sign), drawn.X, drawn.dims, [16, 16])
        for sign in (+1, -1):
            for lo, hi in zip(out[np.float32, sign], out[np.float64, sign]):
                worst = max(worst, np.abs(lo - hi).max() / np.abs(hi).max())
    assert worst <= 1e-6


# jet_sums of one small perturbed f64 bias net at eps 0.3, sign +1 then -1:
# u (2,) and the sums of two sets of 2 (2, 2), row-major.  A re-association
# of the sweep's arithmetic changes these bits.
JET_SUMS_KNOWN_ANSWER = [
    "-0x1.78b4e1066ec38p-2",
    "0x1.acb3a8e4792c5p-6",
    "0x1.be2e2999c1712p+2",
    "-0x1.0fab4e2e8a7aep+2",
    "0x1.a5e20de708d89p+1",
    "-0x1.aef11232510c0p-1",
    "-0x1.a91220640ae1fp-8",
    "-0x1.0773aa5433744p-7",
    "0x1.7d42187106bd5p-2",
    "0x1.107405e1b3490p-3",
    "-0x1.3ffaa8398d4cap-3",
    "0x1.e35b0fafa1553p+0",
]


def test_jet_sums_known_answer():
    params, subs, cores = build([5, 4, 3, 1], master=11, rank=2, bias=True)
    problem = make_problem("none", 5, "two_body", 11)
    drawn = draw_sample(problem, SpatialSample(11, 1, 2, 2, 5))
    pair = SignPair(params, subs, cores, 0.3)
    got = []
    for sign in (+1, -1):
        u, sums = jet_sums(PerturbView(pair, sign), drawn.X, drawn.dims, [2, 2])
        got += [float(x).hex() for x in np.concatenate([u, sums.ravel()])]
    assert got == JET_SUMS_KNOWN_ANSWER


# sha256 of init_mlp([301, 65, 33, 1], "sin", 4)'s weight bytes, layer by
# layer: the first layer's 19 565 normals span two draw blocks and end on
# half a pair
INIT_KNOWN_ANSWERS = {
    False: "ba4d8dd5fef90e202b03a41a747c36df8e26635ebf24ff342d00baab625132e7",
    True: "267bf7114a6b6bfaef64b8c69172e6556bdf09d57c33c7286b88965c76d8ade5",
}


@pytest.mark.parametrize("bias", [False, True])
def test_init_known_answers(bias):
    params = init_mlp([301, 65, 33, 1], "sin", 4, bias)
    h = hashlib.sha256()
    for W in params.weights:
        assert W.flags.c_contiguous
        h.update(W.tobytes())
    assert h.hexdigest() == INIT_KNOWN_ANSWERS[bias]
    if bias:
        assert all(not W[-1].any() for W in params.weights)


def test_init_holds_the_weights_and_one_draw_block(peak_spans):
    init = peak_spans.measure(init_mlp, "init")
    params = init([20_000, 128, 128, 1], "sin", 3, True)
    weights = sum(W.nbytes for W in params.weights)
    assert peak_spans.peaks("init")[0] <= weights + CHUNK_BYTES + 4096
