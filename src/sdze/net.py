"""The solution-ansatz network and its three forward modes.

The raw network is a composition of weight-only linear layers with an
elementwise activation everywhere except the scalar output layer
(input-times-weight convention: a batch of row vectors times W).  The ansatz
hardens the zero boundary condition on the unit sphere by multiplying the raw
output with (1 - ||x||^2), so no boundary loss term is needed.

Forward modes:

* plain values (``sign=0``),
* perturbed values.  Only the input layer (d x width) is d-sized; its
  perturbation stays implicit, ``sigma(H W_0 +/- contract(H, U, eps Z, V))``
  with ``contract`` the segmented low-rank product of :mod:`sdze.subspace`,
  so the d-sized perturbation matrix is never formed.  Every later layer is
  perturbed explicitly: E_l = eps T^-1(U Z V^T) is built once by the bounded
  streaming blocks of the update, and each sign multiplies W_l +/- E_l,
  cast once to the step dtype,
* jets along coordinate directions for the loss (:func:`jet_sums`): one
  first-order plane per direction and one *summed* second-order plane per
  index set, which is all the sampled operator reads.  The input layer
  seeds directions by row extraction (``delta_rows`` for the implicit
  perturbation) instead of one-hot tangents.  Per-direction second
  derivatives are the same sweep with singleton sets.

The +eps and -eps views of one estimate (:func:`sign_views`) read one
:class:`SignPair`, which forms everything that does not depend on the sign
once: W_0 in the step dtype, the core eps Z_0 and every E_l; for a batch X
the products X W_0 and X (eps DW_0); for an index set I the seed rows
W_0[I] and (eps DW_0)[I]; and phi(X) and X[:, I] of the ansatz.  Each sign
then adds or subtracts the perturbation term and keeps only its own
activations and tangent blocks.  This changes no bit: every sign-dependent
term is linear in the sign and IEEE negation is exact, so (-eps) Z =
-(eps Z), a product with one operand negated is the negated product, and
W + (-E) = W - E.  Batch terms are reused when the -eps pass reads the same
read-only X, index-set terms when it also reads the same read-only index
array (a seed-locked sample).  A view built on its own reads a pair of one.

All jet code lives here, and :func:`jet_sums` is its one entry point.  The
maximum order is 2, the order of every supported operator.

Precision contract.  A view's ``dtype`` (the step dtype, f32 or f64) is the
dtype of the raw network: the input-layer products, the weights each sweep
multiplies, every activation and tangent plane of :func:`_raw_jets` and the
values of :func:`forward`.  The ansatz is assembled in f64: phi is formed
from the f64 batch and promotes what it multiplies, so the values and set
sums of :func:`jet_sums`, and with them the sampled operator and the loss,
are f64 computed from step-dtype planes.  That costs B values per set and
keeps the residual op - f, whose f is f64, out of f32 arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .rng import Role, StreamKey, derive_stream
from .subspace import LayerSubspace, delta_rows, perturb_product, rank_r_delta


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
    unperturbed network bitwise.  ``pair`` is the :class:`SignPair` the view's
    passes read; :func:`sign_views` sets it, and a view built on its own reads
    a pair of one built per call.
    """

    params: MlpParams
    subspaces: list[LayerSubspace] | None = None
    cores: list[np.ndarray] | None = None
    sign: int = 0
    eps: float = 0.0
    dtype: np.dtype = field(default_factory=lambda: np.dtype(np.float64))
    pair: SignPair | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if self.sign != 0 and (self.subspaces is None or self.cores is None):
            raise ValueError("perturbed view needs subspaces and cores")

    def shared(self) -> SignPair:
        """The sign-independent terms this view's passes read."""
        if self.pair is not None:
            return self.pair
        if self.sign == 0:
            return SignPair(self.params, self.dtype)
        return SignPair(self.params, self.dtype, self.subspaces, self.cores, self.eps)

    # Loss-pipeline surface shared with the exact-solution stand-in.
    def values(self, X: np.ndarray) -> np.ndarray:
        return ansatz(self, X)[:, 0]

    def jet_eval(self, X: np.ndarray, dims: np.ndarray, sizes) -> tuple[np.ndarray, np.ndarray]:
        return jet_sums(self, X, dims, sizes)


def plain_view(params: MlpParams) -> PerturbView:
    return PerturbView(params)


def sign_views(
    params: MlpParams,
    subspaces: list[LayerSubspace],
    cores: list[np.ndarray],
    eps: float,
    dtype,
) -> tuple[PerturbView, PerturbView]:
    """The +eps and -eps views of one estimate, reading one :class:`SignPair`."""
    pair = SignPair(params, dtype, subspaces, cores, eps)
    views = tuple(PerturbView(params, subspaces, cores, s, eps, pair.dtype) for s in (1, -1))
    for view in views:
        view.pair = pair
    return views


def _signed(shared: np.ndarray, term: np.ndarray | None, sign: int) -> np.ndarray:
    """``shared + sign * term``; the sign is applied exactly, by adding or subtracting."""
    if sign == 0:
        return shared
    return shared + term if sign > 0 else shared - term


@dataclass(eq=False)
class _Batch:
    """Sign-independent terms of one input batch (see :class:`SignPair`)."""

    X: np.ndarray  # (B, d), as given
    G0: np.ndarray  # X W_0 (+ bias row), step dtype
    P: np.ndarray | None  # X (eps DW_0), contracted implicitly; None unperturbed
    act: tuple  # (sigma, sigma', sigma'')

    @cached_property
    def phi(self) -> np.ndarray:
        return boundary_factor(self.X)


@dataclass(eq=False)
class _Rows:
    """Sign-independent terms of one index set on one batch (see :class:`SignPair`)."""

    batch: _Batch
    dims: np.ndarray  # (b,) int64
    R0: np.ndarray  # W_0[dims], step dtype
    D: np.ndarray | None  # (eps DW_0)[dims]; None unperturbed
    xi: np.ndarray  # X[:, dims].T, (b, B)


def _reusable(cached: np.ndarray, new: np.ndarray) -> bool:
    # a writable array may have changed since it was cached
    return cached is new and not new.flags.writeable


class SignPair:
    """The sign-independent half of a +/-eps pair of views (module docstring).

    Built with ``cores`` for perturbed views and without for plain ones.
    :meth:`batch` and :meth:`rows` keep their last result and return it again
    for the same read-only arrays, which is how the -eps pass reuses what the
    +eps pass formed.  The pair reads ``params`` when it is built and is meant
    to live for one estimate.
    """

    def __init__(self, params: MlpParams, dtype, subspaces=None, cores=None, eps: float = 0.0):
        self.params = params
        self.dtype = np.dtype(dtype)
        self.act = activation_triple(params.activation, params.act_scale)
        self.W0 = params.weights[0].astype(self.dtype, copy=False)
        self.perturbed = cores is not None
        if self.perturbed:
            self.sub0 = subspaces[0]
            self.core0 = np.asarray(eps * cores[0], dtype=self.dtype)
            self.E = [rank_r_delta(s, Z, eps) for s, Z in zip(subspaces[1:], cores[1:])]
        self._batch: _Batch | None = None
        self._rows: _Rows | None = None

    def batch(self, X: np.ndarray) -> _Batch:
        """X W_0 and the implicit X (eps DW_0) of a batch, in the step dtype."""
        cached = self._batch
        if cached is not None and _reusable(cached.X, X):
            return cached
        params = self.params
        if X.ndim != 2 or X.shape[1] != params.dim:
            raise ValueError(f"input shape {X.shape} does not match dim {params.dim}")
        H = X.astype(self.dtype, copy=False)
        W = self.W0
        G0 = (H @ W[:-1] + W[-1]) if params.bias else (H @ W)
        P = None
        if self.perturbed:
            P = perturb_product(H, self.sub0, self.core0, tail="one" if params.bias else None)
        self._batch = _Batch(X, G0, P, self.act)
        return self._batch

    def rows(self, batch: _Batch, dims: np.ndarray) -> _Rows:
        """Input-layer seed rows and coordinates of ``batch`` along ``dims``."""
        cached = self._rows
        if cached is not None and cached.batch is batch and _reusable(cached.dims, dims):
            return cached
        if dims.size and (dims.min() < 0 or dims.max() >= self.params.dim):
            raise ValueError("direction index out of range")
        D = delta_rows(self.sub0, self.core0, dims) if self.perturbed else None
        self._rows = _Rows(batch, dims, self.W0[dims], D, batch.X[:, dims].T)
        return self._rows

    def weights(self, sign: int) -> list[np.ndarray]:
        """Layer weights in the step dtype, as one sweep at ``sign`` multiplies them.

        Layer 0 is W_0 as is: its perturbation stays implicit (:meth:`batch`,
        :meth:`rows`).  Every later layer is W_l +/- E_l, cast once.
        """
        out = [self.W0]
        for l, W in enumerate(self.params.weights[1:]):
            if sign != 0:
                W = _signed(W, self.E[l], sign)
            out.append(W.astype(self.dtype, copy=False))
        return out


def _primal(view: PerturbView, X: _Batch, weights: list[np.ndarray], derivs: bool):
    """Values of the raw network, shape (B, 1).

    ``X`` is the batch with its shared input-layer products
    (:meth:`SignPair.batch`).  With ``derivs`` also returns the
    activation-derivative planes sigma'(G_l), sigma''(G_l) of every hidden
    layer, which the tangent transport of a jet sweep reuses for all
    directions.
    """
    params = view.params
    bias = params.bias
    f, f1, f2 = X.act
    s1s: list[np.ndarray] = []
    s2s: list[np.ndarray] = []
    G = _signed(X.G0, X.P, view.sign)
    for l in range(params.depth):
        if l > 0:
            W = weights[l]
            G = (H @ W[:-1] + W[-1]) if bias else (H @ W)
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
    pair = view.shared()
    return _primal(view, pair.batch(X), pair.weights(view.sign), derivs=False)[0]


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


def _raw_jets(view: PerturbView, pair: SignPair, batch: _Batch, rows: _Rows, starts: np.ndarray):
    """Raw-network jets along coordinate directions, second order summed per set.

    ``rows.dims`` is split into consecutive index sets at ``starts``; a
    repeated index counts with multiplicity.  The primal trajectory is
    computed once and shared by every direction.  Tangents then travel in
    blocks of at most ``JET_CHUNK`` directions of one set: one first-order
    plane per direction plus one plane holding the block's summed second
    order, which a layer maps as

        sum d2' = s' * (sum d2) W + s'' * sum (d1 W)^2,

    so each block costs one GEMM per layer.  The input layer maps one-hot
    seeds to (implicitly perturbed) weight rows, so no (b, B, d) tangent
    block is ever formed; later layers multiply explicitly perturbed weights.
    Everything sign-independent comes from ``pair``, ``batch`` and ``rows``.

    Returns g (B,), the first derivatives g1 (b, B) and the per-set sums of
    second derivatives g2 (len(starts), B).
    """
    params = view.params
    depth = params.depth
    bias = params.bias
    n = rows.dims.size

    weights = pair.weights(view.sign)
    value, s1s, s2s = _primal(view, batch, weights, derivs=True)
    B = value.shape[0]
    # e_i @ W0 +/- e_i @ (eps DW_0); a constant feature has zero tangent
    seed_rows = _signed(rows.R0, rows.D, view.sign)

    g1 = np.empty((n, B), dtype=view.dtype)
    g2 = np.zeros((starts.size, B), dtype=view.dtype)
    if depth == 1:
        g1[:] = seed_rows[:, :1]
        return value[:, 0], g1, g2

    bounds = starts.tolist() + [n]
    for s in range(starts.size):
        e0, e1 = bounds[s], bounds[s + 1]
        for c0 in range(e0, e1, JET_CHUNK):
            c1 = min(c0 + JET_CHUNK, e1)
            nc = c1 - c0
            rows_c = seed_rows[c0:c1]
            # first activation: d1 = s' * rows, sum d2 = s'' * sum rows^2
            tg = np.empty((nc + 1, B, rows_c.shape[1]), dtype=view.dtype)
            np.multiply(rows_c[:, None, :], s1s[0], out=tg[:nc])
            np.multiply(np.einsum("kh,kh->h", rows_c, rows_c), s2s[0], out=tg[nc])
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


def jet_sums(view: PerturbView, X: np.ndarray, dims, sizes) -> tuple[np.ndarray, np.ndarray]:
    """Ansatz values and, per index set, the sum of pure second derivatives.

    ``dims`` is split into consecutive index sets of ``sizes``.  With g the
    raw network and phi = 1 - ||x||^2, over a set I (repeated indices
    counted with multiplicity):
    sum_{i in I} d2u/dx_i^2 = phi sum g''_i - 4 sum x_i g'_i - 2 |I| g.
    Returns u (B,) and the sums (len(sizes), B).
    """
    pair = view.shared()
    batch = pair.batch(np.atleast_2d(np.asarray(X)))
    rows = pair.rows(batch, np.asarray(dims, dtype=np.int64))
    starts = set_starts(sizes, rows.dims.size)
    g, g1, g2 = _raw_jets(view, pair, batch, rows, starts)
    sizes = np.asarray(sizes, dtype=np.int64)
    xg1 = np.add.reduceat(rows.xi * g1, starts, axis=0)
    sums = batch.phi * g2 - 4.0 * xg1 - 2.0 * sizes[:, None] * g
    return batch.phi * g, sums
