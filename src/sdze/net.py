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
  perturbed explicitly: E_l = eps T^-1(U Z V^T) is built by the bounded
  streaming blocks of the update, and each sign multiplies W_l +/- E_l,
  cast once to the step dtype,
* jets along coordinate directions for the loss (:func:`jet_sums`): first
  derivatives and, per index set, the *sum* of pure second derivatives, all
  the sampled operator reads.  The head is linear with one column, so both
  come from reverse adjoints of the primal (forward-over-reverse, identity
  in :func:`_raw_jets`): first-order tangents cross hidden-to-hidden layers
  only, none for one hidden layer.  The input layer seeds directions by row
  extraction (``delta_rows`` for the implicit perturbation), not one-hot
  tangents.  Each hidden layer's planes sigma, sigma' and sigma'' come from
  one activation evaluation (:func:`activation_planes`), bitwise equal to
  the functions of :func:`activation_triple`, which the dense oracles read.

A view (:class:`PerturbView`) is one sign of one :class:`SignPair`: sign 0
of a plain pair (:func:`plain_view`), or +1 or -1 of a perturbed pair, whose
two signs are the +eps and -eps views of one estimate (:func:`sign_views`).
The pair owns everything the signs share.  When it is built it forms W_0 in
the step dtype, the core eps Z_0 and each sign's hidden weights: one E_l per
layer gives W_l + E_l, then W_l - E_l in E_l's own buffer, so no E_l
outlives its layer.  For a batch X it forms the products X W_0 and
X (eps DW_0); for an index set I the seed rows W_0[I] and (eps DW_0)[I];
and phi(X) and X[:, I] of the ansatz.  Each sign then adds or subtracts the
perturbation term and forms its own activations and tangent blocks.
This changes no bit: every sign-dependent term is linear in the sign and
IEEE negation is exact, so (-eps) Z = -(eps Z), a product with one operand
negated is the negated product, and W + (-E) = W - E.  Batch terms are
reused when the -eps pass reads the same read-only X, index-set terms when
it also reads the same read-only index array (a seed-locked sample).

The half of a jet sweep that reads no index set also depends only on the
pair, the sign and the batch: the primal values, the sigma' planes the
tangent transport reads and the reverse adjoints (:func:`_adjoints`).  So
the batch keeps them too, per sign and read-only.  A sign forms its planes
at its first sweep on a batch, and every later sweep of that sign on the
same read-only X reads them.  They live as long as the batch: until the
pair is given another X, or until the pair goes.  That is two planes of
B x h_l words per hidden layer l, and B values, per sign.

A pair is one perturbation of ``params`` as they were when it was built.  It
serves any number of estimates, on any batches and index sets, until
``params`` change; after an update, build a new pair.  So an estimate reads
the pair its caller built: a training step builds one per step and
evaluates each sign once, and holds both signs' planes until the pair goes
(both at once when the signs run on two threads).  A variance sweep builds
one per eps, whose replicates then share its weights, the products of their
pinned batch and each sign's planes on it: one primal and one adjoint pass
per sign, whatever the number of replicates.

The two signs of an estimate may run on two threads
(:func:`sdze.optimizer.directional_delta`).  The caller then forms every
sign-independent term first (:meth:`SignPair.share`), so a sweep writes
nothing the other sign reads: only its own sign's entry of the batch's
planes, and its tangent blocks.  The thread that runs the +eps pass
transports its tangents in two kept blocks (``PerturbView.blocks``), so it
neither grows a heap of its own nor allocates them per estimate.

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

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .rng import Role, StreamKey, derive_stream
from .subspace import LayerSubspace, delta_rows, perturb_product, rank_r_delta


# the supported activation tags
ACTIVATIONS = ("sin", "tanh_scaled")


def _check_activation(act: str) -> None:
    if act not in ACTIVATIONS:
        raise ValueError(f"unknown activation tag: {act!r}; supported: {ACTIVATIONS}")


def activation_triple(act: str):
    """(sigma, sigma', sigma'') for the supported activation tags.

    ``tanh_scaled`` is tanh at unit scale, so |sigma^(k)| <= 1 for k <= 2,
    as it is for sin.  Each function evaluates on its own; the network's
    passes read the same planes from one evaluation (:func:`activation_planes`).
    """
    if act == "sin":
        return np.sin, np.cos, lambda u: -np.sin(u)
    if act == "tanh_scaled":
        def f1(u):
            t = np.tanh(u)
            return 1.0 - t * t

        def f2(u):
            t = np.tanh(u)
            return -2.0 * t * (1.0 - t * t)

        return np.tanh, f1, f2
    raise ValueError(f"unknown activation tag: {act!r}")


def activation_planes(act: str, G: np.ndarray, derivs: bool, out: np.ndarray | None = None):
    """sigma(G) and, with ``derivs``, sigma'(G) and sigma''(G) from one evaluation.

    Bitwise equal to :func:`activation_triple`: sin gives sigma'' = -sigma by
    exact negation, and tanh_scaled forms tanh and 1 - t^2 once, with the same
    expressions.  Without ``derivs`` the derivative planes are None.  Sigma
    is written to ``out`` when one is given; that may be ``G`` itself only
    without ``derivs``, since the derivative planes read ``G`` after sigma.
    """
    if act == "sin":
        s = np.sin(G, out=out)
        return (s, np.cos(G), np.negative(s)) if derivs else (s, None, None)
    _check_activation(act)
    t = np.tanh(G, out=out)
    if not derivs:
        return t, None, None
    q = 1.0 - t * t
    return t, q, -2.0 * t * q


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
    bias: bool = False

    def __post_init__(self):
        _check_activation(self.activation)
        extra = 1 if self.bias else 0
        for a, b in zip(self.weights, self.weights[1:]):
            if a.shape[1] + extra != b.shape[0]:
                raise ValueError(f"layer shapes do not chain: {a.shape} -> {b.shape}")
        if not self.weights or self.weights[-1].shape[1] != 1:
            raise ValueError("need at least one layer, the output layer with a single column")

    @property
    def dim(self) -> int:
        return self.weights[0].shape[0] - (1 if self.bias else 0)

    @property
    def depth(self) -> int:
        return len(self.weights)

    @property
    def widths(self) -> list[int]:
        return [self.dim] + [W.shape[1] for W in self.weights]


def init_mlp(widths: list[int], activation: str, master: int, bias: bool = False) -> MlpParams:
    """Layer weights ~ N(0, 1/fan_in) from per-layer weight-init streams.

    With the bias extension each matrix carries one extra input row,
    zero-initialized (the constant feature's row).  Each layer is drawn and
    scaled in its final array, so init holds the weights and one draw block.
    """
    extra = 1 if bias else 0
    weights = []
    for l, (m, n) in enumerate(zip(widths, widths[1:])):
        stream = derive_stream(StreamKey(master, Role.WEIGHT_INIT, 0, l))
        flat = np.empty((m + extra) * n)
        stream.normals(m * n, out=flat[: m * n])
        flat[: m * n] /= np.sqrt(m)
        flat[m * n :] = 0.0
        weights.append(flat.reshape(m + extra, n))
    return MlpParams(weights, activation, bias)


@dataclass(frozen=True)
class PerturbView:
    """One sign of a :class:`SignPair`: 0 of a plain pair, +1 or -1 of a perturbed one.

    Sign 0 reproduces the unperturbed network bitwise.  A view reads its pair,
    which lives as the module docstring says: until ``params`` change.
    ``blocks`` are two buffers of at least :meth:`SignPair.tangent_words`
    words of the step dtype that its jet sweeps transport tangents in;
    without them each block is allocated.
    """

    pair: SignPair
    sign: int = 0
    blocks: tuple[np.ndarray, np.ndarray] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.sign not in ((1, -1) if self.pair.perturbed else (0,)):
            kind = "perturbed" if self.pair.perturbed else "plain"
            raise ValueError(f"sign {self.sign!r} is not a sign of a {kind} pair")

    @property
    def params(self) -> MlpParams:
        return self.pair.params

    @property
    def dtype(self) -> np.dtype:
        return self.pair.dtype

    # Loss-pipeline surface shared with the exact-solution stand-in.
    def values(self, X: np.ndarray) -> np.ndarray:
        return ansatz(self, X)[:, 0]

    def jet_eval(self, X: np.ndarray, dims: np.ndarray, sizes) -> tuple[np.ndarray, np.ndarray]:
        return jet_sums(self, X, dims, sizes)


def plain_view(params: MlpParams) -> PerturbView:
    return PerturbView(SignPair(params))


def sign_views(
    params: MlpParams,
    subspaces: list[LayerSubspace],
    cores: list[np.ndarray],
    eps: float,
    dtype,
) -> tuple[PerturbView, PerturbView]:
    """The +eps and -eps views of one estimate, the two signs of one :class:`SignPair`."""
    pair = SignPair(params, subspaces, cores, eps, dtype)
    return PerturbView(pair, 1), PerturbView(pair, -1)


def _signed(shared: np.ndarray, term: np.ndarray | None, sign: int) -> np.ndarray:
    """``shared + sign * term``; the sign is applied exactly, by adding or subtracting."""
    if sign == 0:
        return shared
    return shared + term if sign > 0 else shared - term


@dataclass(eq=False)
class _Batch:
    """Sign-independent terms of one input batch (see :class:`SignPair`)."""

    X: np.ndarray  # (B, d), as given
    G0: np.ndarray  # X W_0 (+ bias row), step dtype, read-only
    P: np.ndarray | None  # X (eps DW_0), contracted implicitly, read-only; None unperturbed
    # sign -> the read-only planes of :func:`_adjoints` at that sign
    planes: dict = field(default_factory=dict)

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


def _cast(W: np.ndarray, dtype: np.dtype, layer: int) -> np.ndarray:
    """Layer ``layer``'s weights ``W`` in the step dtype; a value outside its range raises."""
    with np.errstate(over="raise"):
        try:
            return W.astype(dtype, copy=False)
        except FloatingPointError:
            raise FloatingPointError(
                f"layer {layer} weights overflow the step dtype {dtype.name}"
            ) from None


class SignPair:
    """What the views of one estimate share (module docstring).

    Perturbed, with ``subspaces``, ``cores`` and ``eps``, its signs are +1 and
    -1; plain, from ``params`` alone, its sign is 0.  Each sign's layer weights
    are formed here, from ``params`` as they are now; a weight outside the
    range of the step dtype raises ``FloatingPointError`` naming its layer.
    :meth:`batch` and :meth:`rows` return their last result again for the
    same read-only arrays, which is how the -eps pass, and any later estimate
    of the pair on the same arrays, reuses what an earlier pass formed.  The
    batch carries each sign's primal and adjoint planes too, formed at that
    sign's first jet sweep on it, so every later estimate of the pair on a
    pinned read-only batch skips the primal and the adjoint sweep.  Those
    planes die with the batch: when the pair is given another X, or with the
    pair.  So a training step's pair holds both signs' planes from its
    second pass until it goes; when its signs run on two threads, both
    sweeps form theirs at once.  :meth:`share` forms what both signs read
    before they run concurrently.
    """

    def __init__(
        self, params: MlpParams, subspaces=None, cores=None, eps: float = 0.0, dtype=np.float64
    ):
        self.params = params
        self.subspaces, self.cores, self.eps = subspaces, cores, eps
        self.dtype = np.dtype(dtype)
        self.W0 = _cast(params.weights[0], self.dtype, 0)
        self.perturbed = cores is not None
        later = list(enumerate(params.weights[1:], 1))
        if not self.perturbed:
            self._weights = {0: [self.W0] + [_cast(W, self.dtype, l) for l, W in later]}
        else:
            self.sub0 = subspaces[0]
            self.core0 = np.asarray(eps * cores[0], dtype=self.dtype)
            plus, minus = [self.W0], [self.W0]
            for (l, W), s, Z in zip(later, subspaces[1:], cores[1:]):
                E = rank_r_delta(s, Z, eps)
                plus.append(_cast(W + E, self.dtype, l))
                minus.append(_cast(np.subtract(W, E, out=E), self.dtype, l))
            self._weights = {1: plus, -1: minus}
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
        G0 = H @ (W[:-1] if params.bias else W)
        if params.bias:
            G0 += W[-1]
        P = None
        if self.perturbed:
            P = perturb_product(H, self.sub0, self.core0, tail="one" if params.bias else None)
        # both signs and every later sweep on X read them
        for a in (G0, P):
            if a is not None:
                a.flags.writeable = False
        self._batch = _Batch(X, G0, P)
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

    def share(self, X: np.ndarray, dims: np.ndarray) -> None:
        """Form every term of the read-only ``X`` and ``dims`` that both signs read.

        That is :meth:`batch`, :meth:`rows` and phi.  A jet sweep of either
        sign on the same arrays then writes nothing the other sign reads.
        """
        self.rows(self.batch(X), dims).batch.phi

    @cached_property
    def transport_macs(self) -> int:
        """Multiply-adds per point and direction of one sign's tangent transport.

        sum_{l=1..L-2} h_l h_{l+1} over the hidden widths h; 0 with fewer
        than two hidden layers, whose sweeps transport no tangent.
        """
        h = self.params.widths[1:-1]
        return sum(a * b for a, b in zip(h, h[1:]))

    def tangent_words(self, B: int) -> int:
        """Words of the step dtype each tangent block of a sweep on B points takes.

        ``JET_CHUNK`` x B x h_max, h_max the widest hidden layer; 0 when no
        tangent crosses a layer.
        """
        h = self.params.widths[1:-1]
        return JET_CHUNK * B * max(h) if len(h) > 1 else 0

    def weights(self, sign: int) -> list[np.ndarray]:
        """Layer weights in the step dtype, as one sweep at ``sign`` multiplies them.

        Layer 0 is W_0 as is: its perturbation stays implicit (:meth:`batch`,
        :meth:`rows`).  Every later layer is W_l +/- E_l, cast once.
        """
        return self._weights[sign]


def _primal(view: PerturbView, X: _Batch, weights: list[np.ndarray], derivs: bool):
    """Values of the raw network, shape (B, 1).

    ``X`` is the batch with its shared input-layer products
    (:meth:`SignPair.batch`).  With ``derivs`` also returns the
    activation-derivative planes sigma'(G_l), sigma''(G_l) of every hidden
    layer, which the tangent transport of a jet sweep reuses for all
    directions.  Each hidden layer evaluates its activation once
    (:func:`activation_planes`); without ``derivs``, in place on its own
    pre-activation from layer 1 on (layer 0's may be the batch's ``G0``).
    """
    params = view.pair.params
    bias = params.bias
    act = params.activation
    s1s: list[np.ndarray] = []
    s2s: list[np.ndarray] = []
    l = 0
    try:
        G = _signed(X.G0, X.P, view.sign)
        for l in range(params.depth):
            if l > 0:
                W = weights[l]
                G = H @ (W[:-1] if bias else W)
                if bias:
                    G += W[-1]
            if l < params.depth - 1:
                H, s1, s2 = activation_planes(act, G, derivs, out=G if l and not derivs else None)
                if derivs:
                    s1s.append(s1)
                    s2s.append(s2)
            else:
                H = G
    except FloatingPointError:
        raise _overflow(l, view.dtype) from None
    return H, s1s, s2s


def forward(view: PerturbView, X: np.ndarray) -> np.ndarray:
    """Raw network values, shape (B, 1)."""
    pair = view.pair
    return _primal(view, pair.batch(X), pair.weights(view.sign), derivs=False)[0]


def boundary_factor(X: np.ndarray) -> np.ndarray:
    return 1.0 - np.sum(X * X, axis=-1)


def ansatz(view: PerturbView, X: np.ndarray) -> np.ndarray:
    """u(x) = (1 - ||x||^2) * raw(x); exactly zero on the unit sphere."""
    return boundary_factor(X)[:, None] * forward(view, X)


def set_starts(sizes, n_dims: int) -> list[int]:
    """Offsets of consecutive index sets of ``sizes`` within ``n_dims`` directions.

    ``sizes`` is a non-empty 1-D sequence of integers >= 1 summing to
    ``n_dims``.  Plain ints: a loss pass has two sets, for which numpy's
    reductions cost more than the sum.
    """
    try:
        counts = [operator.index(k) for k in sizes]
    except TypeError:  # not 1-D, or not integers
        counts = []
    if not counts or min(counts) < 1 or sum(counts) != n_dims:
        raise ValueError(f"set sizes {sizes!r} must be integers >= 1 that sum to {n_dims}")
    return list(accumulate(counts[:-1], initial=0))


# directions transported per cache-sized block during jet sweeps
JET_CHUNK = 16


def _overflow(layer: int, dtype: np.dtype) -> FloatingPointError:
    """The error of a jet sweep whose step-dtype arithmetic overflowed at ``layer``."""
    return FloatingPointError(f"layer {layer} jet sweep overflows the step dtype {dtype.name}")


def _block(view: PerturbView, i: int, shape: tuple[int, ...]) -> np.ndarray | None:
    """``shape``'s leading words of the view's tangent block ``i``; None without blocks."""
    if view.blocks is None:
        return None
    return view.blocks[i][: math.prod(shape)].reshape(shape)


def _adjoints(view: PerturbView, batch: _Batch):
    """The half of a jet sweep at ``view``'s sign that reads no index set.

    Returns the primal values g (B,), the planes s'_l of hidden layers
    0 .. L-3 (the ones the tangent transport reads), nu_l = s''_l * lam_l of
    every hidden layer and s'_0 * lam_0, the operand of g1 (None with no
    hidden layer); see :func:`_raw_jets`.  They depend only on the pair, the
    sign and the batch, so they are formed once per sign of ``batch`` and
    kept on it, read-only: any later sweep on the batch reads them.
    """
    sign = view.sign
    if sign in batch.planes:
        return batch.planes[sign]
    params = view.params
    depth, weights = params.depth, view.pair.weights(sign)
    value, s1s, s2s = _primal(view, batch, weights, derivs=True)
    # lam_l, then s'_l * lam_l, last layer first; nu_l overwrites s''_l (read by
    # nothing else), s'_{L-2} * lam overwrites s'_{L-2} (read by no tangent)
    lam = None
    if depth > 1:
        lin = [W[:-1] for W in weights] if params.bias else weights
        lam = lin[-1][:, 0]
        l = depth - 2
        try:
            for l in range(depth - 2, -1, -1):
                s2s[l] *= lam
                lam = np.multiply(s1s[l], lam, out=s1s[l] if l == depth - 2 else None)
                if l:
                    lam = lam @ lin[l].T
        except FloatingPointError:
            raise _overflow(l, view.dtype) from None
    g, s1s = value[:, 0], s1s[: max(depth - 2, 0)]
    for a in (g, *s1s, *s2s, lam):
        if a is not None:
            a.flags.writeable = False
    batch.planes[sign] = g, s1s, s2s, lam
    return batch.planes[sign]


def _raw_jets(view: PerturbView, batch: _Batch, rows: _Rows, starts: list[int]):
    """Raw-network jets along coordinate directions, second order summed per set.

    ``rows.dims`` is split into consecutive index sets at ``starts``; a
    repeated index counts with multiplicity.  With G_l, s'_l, s''_l the
    planes of hidden layer l < L - 1, W_l without its bias row and w the
    output column, reverse adjoints give (forward-over-reverse)

        lam_{L-2} = w,   lam_{l-1} = (s'_l * lam_l) W_l^T,   nu_l = s''_l * lam_l,
        dg/dx_i = <s'_0 * lam_0, r_i>,
        sum_{i in I} d2g/dx_i^2 = sum_l <nu_l, sum_{i in I} (dG_l/dx_i)^2>,

    with dG_0/dx_i = r_i, row i of the (implicitly perturbed) input weights,
    and dG_l/dx_i = (s'_{l-1} * dG_{l-1}/dx_i) W_l.  The primal, the planes
    and the adjoints read no index set: :func:`_adjoints` forms them once per
    sign of ``batch``, shared by every direction of this sweep and of every
    later sweep of the pair on the same read-only batch.  What reads the set
    is formed per call and only reads those planes: g1 is one GEMM of the
    seed rows, and first-order tangents cross layers 1 .. L-2 only, in blocks
    of at most ``JET_CHUNK`` directions of one set, one GEMM per layer and
    block.  No (b, B, d) tangent block is ever formed; with ``view.blocks``
    the blocks are written into those buffers, with the same bits, instead of
    new ones.  Everything sign-independent comes from the view's pair,
    ``batch`` and ``rows``.

    Under ``np.errstate(over="raise")``, which a training step sets for both
    its passes (:func:`sdze.optimizer.sdze_step`), a value past the range of
    the step dtype, in the primal, the adjoints or a tangent layer, raises
    ``FloatingPointError`` naming the layer.  einsum raises no overflow, so a
    non-finite tangent term raises it whatever the caller's errstate.

    Returns g (B,), read-only, the first derivatives g1 (b, B) and the
    per-set sums of second derivatives g2 (len(starts), B).
    """
    pair, sign, params = view.pair, view.sign, view.params
    depth = params.depth
    g, s1s, nus, lam0 = _adjoints(view, batch)
    B = g.shape[0]
    l = 0
    try:
        # e_i @ W0 +/- e_i @ (eps DW_0); a constant feature has zero tangent
        seed_rows = _signed(rows.R0, rows.D, sign)
        if depth == 1:
            g2 = np.zeros((len(starts), B), dtype=pair.dtype)
            return g, np.repeat(seed_rows[:, :1], B, axis=1), g2

        g1 = seed_rows @ lam0.T
        g2 = np.add.reduceat(seed_rows * seed_rows, starts, axis=0) @ nus[0].T
        if depth == 2:
            return g, g1, g2

        weights = pair.weights(sign)
        lin = [W[:-1] for W in weights] if params.bias else weights
        bounds = [*starts, seed_rows.shape[0]]
        for s in range(len(starts)):
            for c0 in range(bounds[s], bounds[s + 1], JET_CHUNK):
                k = min(JET_CHUNK, bounds[s + 1] - c0)
                tg = seed_rows[c0 : c0 + k, None, :]
                tg = np.multiply(tg, s1s[0], out=_block(view, 0, (k, B, tg.shape[-1])))
                for l in range(1, depth - 1):
                    if l > 1:
                        tg *= s1s[l - 1]
                    n = lin[l].shape[1]
                    flat = np.matmul(
                        tg.reshape(-1, tg.shape[-1]), lin[l], out=_block(view, l % 2, (k * B, n))
                    )
                    tg = flat.reshape(k, B, n)
                    term = np.einsum("bh,bh->b", np.einsum("kbh,kbh->bh", tg, tg), nus[l])
                    if not np.isfinite(term).all():  # einsum raises no overflow
                        raise FloatingPointError
                    g2[s] += term
    except FloatingPointError:
        raise _overflow(l, pair.dtype) from None
    return g, g1, g2


def jet_sums(view: PerturbView, X: np.ndarray, dims, sizes) -> tuple[np.ndarray, np.ndarray]:
    """Ansatz values and, per index set, the sum of pure second derivatives.

    ``dims`` is split into consecutive index sets of ``sizes``.  With g the
    raw network and phi = 1 - ||x||^2, over a set I (repeated indices
    counted with multiplicity):
    sum_{i in I} d2u/dx_i^2 = phi sum g''_i - 4 sum x_i g'_i - 2 |I| g.
    Returns u (B,) and the sums (len(sizes), B).
    """
    pair = view.pair
    batch = pair.batch(np.atleast_2d(np.asarray(X)))
    rows = pair.rows(batch, np.asarray(dims, dtype=np.int64))
    starts = set_starts(sizes, rows.dims.size)
    g, g1, g2 = _raw_jets(view, batch, rows, starts)
    xg1 = np.add.reduceat(rows.xi * g1, starts, axis=0)
    # 2|I| as an f64 column: an f32 g widens to f64, as the other terms do
    twice = np.array([2.0 * k for k in sizes])
    sums = batch.phi * g2 - 4.0 * xg1 - twice[:, None] * g
    return batch.phi * g, sums
