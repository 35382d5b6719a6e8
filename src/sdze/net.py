"""The solution-ansatz network and its three forward modes.

The raw network is a composition of weight-only linear layers with an
elementwise activation everywhere except the scalar output layer
(input-times-weight convention: a batch of row vectors times W).  The ansatz
hardens the zero boundary condition on the unit sphere by multiplying the raw
output with (1 - ||x||^2), so no boundary loss term is needed.

Forward modes:

* plain values (``sign=0``),
* perturbed values.  Only the input layer (d x width) is d-sized; its
  perturbation stays implicit, ``sigma(H W_0 +/- eps * contract(H, U, Z, V))``
  with ``contract`` the segmented low-rank product of :mod:`sdze.subspace`,
  so the d-sized perturbation matrix is never formed.  Every later layer is
  perturbed explicitly: each sweep builds W_l +/- eps T^-1(U Z V^T) once
  (bounded streaming update on an f64 copy, cast once to the step dtype),
* jets along coordinate directions for the loss: one first-order plane per
  direction and one *summed* second-order plane per index set, which is all
  the sampled operator reads.  The input layer seeds directions by row
  extraction (``delta_rows`` for the implicit perturbation) instead of
  one-hot tangents.  Per-direction second derivatives are the same sweep
  with singleton sets.

All jet code lives here: the activation derivatives and the :class:`Jet2`
planes that :func:`jet_forward` returns.  The maximum order is 2, the order
of every supported operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import Role, StreamKey, derive_stream
from .subspace import LayerSubspace, apply_rank_r_update, delta_rows, perturb_product


def activation_triple(act: str, scale: float = 1.0):
    """(sigma, sigma', sigma'') for the supported activation tags."""
    if act == "sin":
        return np.sin, np.cos, lambda u: -np.sin(u)
    if act == "tanh_scaled":
        # scale * tanh; scale <= 1 keeps |sigma^(k)| <= 1 for k <= 2
        def f(u):
            return scale * np.tanh(u)

        def f1(u):
            t = np.tanh(u)
            return scale * (1.0 - t * t)

        def f2(u):
            t = np.tanh(u)
            return scale * (-2.0 * t * (1.0 - t * t))

        return f, f1, f2
    raise ValueError(f"unknown activation tag: {act!r}")


@dataclass
class Jet2:
    """Truncated second-order directional Taylor coefficients.

    ``value`` has shape ``(B,)``; ``d1`` and ``d2`` carry a leading direction
    axis, shape ``(k, B)`` for ``k`` directions.
    """

    value: np.ndarray
    d1: np.ndarray
    d2: np.ndarray


@dataclass
class MlpParams:
    """Weight-only MLP; adjacent layer shapes chain and the output is scalar.

    The default network has no bias terms, which makes it an odd function of
    its input under odd activations.  The optional bias extension (off by
    default) appends a constant-1 input to every layer, absorbed as an extra
    weight row, so biases live inside the weight matrices and are explored
    and updated by the low-rank machinery like any other parameter.
    """

    weights: list[np.ndarray]
    activation: str = "sin"
    act_scale: float = 1.0
    bias: bool = False

    def __post_init__(self):
        extra = 1 if self.bias else 0
        for a, b in zip(self.weights, self.weights[1:]):
            if a.shape[1] + extra != b.shape[0]:
                raise ValueError(f"layer shapes do not chain: {a.shape} -> {b.shape}")
        if self.weights[-1].shape[1] != 1:
            raise ValueError("output layer must have a single column")

    @property
    def dim(self) -> int:
        return self.weights[0].shape[0] - (1 if self.bias else 0)

    @property
    def depth(self) -> int:
        return len(self.weights)

    @property
    def widths(self) -> list[int]:
        return [self.dim] + [W.shape[1] for W in self.weights]

    @property
    def n_params(self) -> int:
        return sum(W.size for W in self.weights)


def init_mlp(
    widths: list[int],
    activation: str,
    master: int,
    act_scale: float = 1.0,
    bias: bool = False,
) -> MlpParams:
    """Layer weights ~ N(0, 1/fan_in) from per-layer weight-init streams.

    With the bias extension each matrix carries one extra input row,
    zero-initialized (the constant feature's row).
    """
    weights = []
    for l, (m, n) in enumerate(zip(widths, widths[1:])):
        stream = derive_stream(StreamKey(master, Role.WEIGHT_INIT, 0, l))
        W = stream.normals(m * n).reshape(m, n) / np.sqrt(m)
        if bias:
            W = np.vstack([W, np.zeros((1, n))])
        weights.append(W)
    return MlpParams(weights, activation, act_scale, bias)


@dataclass
class PerturbView:
    """A (possibly sign-perturbed) read-only view of the network.

    ``sign=0`` skips the perturbation branch entirely and reproduces the
    unperturbed network bitwise.
    """

    params: MlpParams
    subspaces: list[LayerSubspace] | None = None
    cores: list[np.ndarray] | None = None
    sign: int = 0
    eps: float = 0.0
    dtype: np.dtype = field(default_factory=lambda: np.dtype(np.float64))

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if self.sign != 0 and (self.subspaces is None or self.cores is None):
            raise ValueError("perturbed view needs subspaces and cores")

    # Loss-pipeline surface shared with the exact-solution stand-in.
    def values(self, X: np.ndarray) -> np.ndarray:
        return ansatz(self, X)[:, 0]

    def jet_eval(self, X: np.ndarray, dims: np.ndarray, sizes) -> tuple[np.ndarray, np.ndarray]:
        return jet_sums(self, X, dims, sizes)


def plain_view(params: MlpParams) -> PerturbView:
    return PerturbView(params)


def _sweep_weights(view: PerturbView) -> list[np.ndarray]:
    """Layer weights in the view's dtype, as one sweep multiplies them.

    Layer 0 (d x width) comes back unperturbed; its perturbation stays
    implicit, so nothing d-sized is formed.  Every later layer is
    d-independent and is perturbed explicitly: W + sign*eps*T^-1(U Z V^T) is
    streamed into an f64 copy by the bounded rank-r update and cast once.
    """
    out = []
    for l, W in enumerate(view.params.weights):
        if l > 0 and view.sign != 0:
            W = np.array(W, dtype=np.float64)
            apply_rank_r_update(W, view.subspaces[l], view.cores[l], view.sign * view.eps)
        if W.dtype != view.dtype:
            W = W.astype(view.dtype)
        out.append(W)
    return out


def _input_core(view: PerturbView) -> np.ndarray:
    """The input layer's core with the perturbation sign and scale folded in."""
    return np.asarray(view.sign * view.eps * view.cores[0], dtype=view.dtype)


def _primal(view: PerturbView, X: np.ndarray, weights: list[np.ndarray], derivs: bool):
    """Values of the raw network, shape (B, 1).

    With ``derivs`` also returns the activation-derivative planes
    sigma'(G_l), sigma''(G_l) of every hidden layer, which the tangent
    transport of a jet sweep reuses for all directions.
    """
    params = view.params
    if X.ndim != 2 or X.shape[1] != params.dim:
        raise ValueError(f"input shape {X.shape} does not match dim {params.dim}")
    bias = params.bias
    f, f1, f2 = activation_triple(params.activation, params.act_scale)
    s1s: list[np.ndarray] = []
    s2s: list[np.ndarray] = []
    H = X.astype(view.dtype, copy=False)
    for l, W in enumerate(weights):
        G = (H @ W[:-1] + W[-1]) if bias else (H @ W)
        if l == 0 and view.sign != 0:
            G += perturb_product(
                H, view.subspaces[0], _input_core(view), tail="one" if bias else None
            )
        if l < params.depth - 1:
            if derivs:
                s1s.append(f1(G))
                s2s.append(f2(G))
            H = f(G)
        else:
            H = G
    return H, s1s, s2s


def forward(view: PerturbView, X: np.ndarray) -> np.ndarray:
    """Raw network values, shape (B, 1)."""
    return _primal(view, X, _sweep_weights(view), derivs=False)[0]


def boundary_factor(X: np.ndarray) -> np.ndarray:
    return 1.0 - np.sum(X * X, axis=-1)


def ansatz(view: PerturbView, X: np.ndarray) -> np.ndarray:
    """u(x) = (1 - ||x||^2) * raw(x); exactly zero on the unit sphere."""
    return boundary_factor(X)[:, None] * forward(view, X)


def set_starts(sizes, n_dims: int) -> np.ndarray:
    """Offsets of consecutive index sets of ``sizes`` within ``n_dims`` directions."""
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.ndim != 1 or sizes.size == 0 or sizes.min() < 1 or sizes.sum() != n_dims:
        raise ValueError(f"set sizes {sizes.tolist()} must be >= 1 and sum to {n_dims}")
    return np.cumsum(sizes) - sizes


# directions transported per cache-sized block during jet sweeps
JET_CHUNK = 16


def _raw_jets(view: PerturbView, X: np.ndarray, dims: np.ndarray, sizes):
    """Raw-network jets along coordinate directions, second order summed per set.

    ``dims`` is split into consecutive index sets of the given ``sizes``; a
    repeated index counts with multiplicity.  The primal trajectory is
    computed once and shared by every direction.  Tangents then travel in
    blocks of at most ``JET_CHUNK`` directions of one set: one first-order
    plane per direction plus one plane holding the block's summed second
    order, which a layer maps as

        sum d2' = s' * (sum d2) W + s'' * sum (d1 W)^2,

    so each block costs one GEMM per layer.  The input layer maps one-hot
    seeds to (implicitly perturbed) weight rows, so no (b, B, d) tangent
    block is ever formed; later layers multiply explicitly perturbed weights.

    Returns g (B,), the first derivatives g1 (b, B) and the per-set sums of
    second derivatives g2 (len(sizes), B).
    """
    params = view.params
    dims = np.asarray(dims, dtype=np.int64)
    if dims.size and (dims.min() < 0 or dims.max() >= params.dim):
        raise ValueError("direction index out of range")
    starts = set_starts(sizes, dims.size)
    ends = np.append(starts[1:], dims.size)
    depth = params.depth
    bias = params.bias

    weights = _sweep_weights(view)
    value, s1s, s2s = _primal(view, X, weights, derivs=True)
    B = X.shape[0]
    # e_i @ W0; a constant feature has zero tangent
    seed_rows = weights[0][dims]
    if view.sign != 0:
        seed_rows = seed_rows + delta_rows(view.subspaces[0], _input_core(view), dims)

    g1 = np.empty((dims.size, B), dtype=view.dtype)
    g2 = np.zeros((starts.size, B), dtype=view.dtype)
    if depth == 1:
        g1[:] = seed_rows[:, :1]
        return value[:, 0], g1, g2

    for s, (e0, e1) in enumerate(zip(starts, ends)):
        for c0 in range(e0, e1, JET_CHUNK):
            c1 = min(c0 + JET_CHUNK, e1)
            nc = c1 - c0
            rows = seed_rows[c0:c1]
            # first activation: d1 = s' * rows, sum d2 = s'' * sum rows^2
            tg = np.empty((nc + 1, B, rows.shape[1]), dtype=view.dtype)
            np.multiply(rows[:, None, :], s1s[0], out=tg[:nc])
            np.multiply(np.einsum("kh,kh->h", rows, rows), s2s[0], out=tg[nc])
            for l in range(1, depth):
                W = weights[l]
                flat = tg.reshape(-1, tg.shape[-1])
                tg = (flat @ (W[:-1] if bias else W)).reshape(nc + 1, B, W.shape[1])
                if l < depth - 1:
                    d1, d2 = tg[:nc], tg[nc]
                    sq = np.einsum("kbh,kbh->bh", d1, d1)
                    sq *= s2s[l]
                    d2 *= s1s[l]
                    d2 += sq
                    d1 *= s1s[l]
            g1[c0:c1] = tg[:nc, :, 0]
            g2[s] += tg[nc, :, 0]
    return value[:, 0], g1, g2


def _ansatz_terms(view: PerturbView, X: np.ndarray, dims, sizes):
    X = np.atleast_2d(np.asarray(X))
    dims = np.asarray(dims, dtype=np.int64)
    g, g1, g2 = _raw_jets(view, X, dims, sizes)
    return boundary_factor(X), X[:, dims].T, g, g1, g2


def jet_sums(view: PerturbView, X: np.ndarray, dims, sizes) -> tuple[np.ndarray, np.ndarray]:
    """Ansatz values and, per index set, the sum of pure second derivatives.

    With g the raw network and phi = 1 - ||x||^2, over a set I (repeated
    indices counted with multiplicity):
    sum_{i in I} d2u/dx_i^2 = phi sum g''_i - 4 sum x_i g'_i - 2 |I| g.
    Returns u (B,) and the sums (len(sizes), B).
    """
    phi, xi, g, g1, g2 = _ansatz_terms(view, X, dims, sizes)
    sizes = np.asarray(sizes, dtype=np.int64)
    xg1 = np.add.reduceat(xi * g1, set_starts(sizes, xi.shape[0]), axis=0)
    sums = phi * g2 - 4.0 * xg1 - 2.0 * sizes[:, None] * g
    u = phi * g
    return u, sums


def jet_forward(view: PerturbView, X: np.ndarray, dims: np.ndarray) -> Jet2:
    """Order-2 jets of the *ansatz* along each coordinate direction.

    The same sweep as :func:`jet_sums` with one singleton set per direction:
    u = phi g,  du_i = phi g'_i - 2 x_i g,  d2u_i = phi g''_i - 4 x_i g'_i - 2 g.
    Returns planes value (B,), d1/d2 (b, B).
    """
    n = np.asarray(dims).size
    phi, xi, g, g1, g2 = _ansatz_terms(view, X, dims, np.ones(n, dtype=np.int64))
    u = phi * g
    du = phi * g1 - 2.0 * xi * g
    d2u = phi * g2 - 4.0 * xi * g1 - 2.0 * g
    return Jet2(u, du, d2u)
