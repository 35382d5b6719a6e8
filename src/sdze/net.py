"""The solution-ansatz network and its three forward modes.

The raw network is a composition of weight-only linear layers with an
elementwise activation everywhere except the scalar output layer
(input-times-weight convention: a batch of row vectors times W).  The ansatz
hardens the zero boundary condition on the unit sphere by multiplying the raw
output with (1 - ||x||^2), so no boundary loss term is needed.

Forward modes:

* plain values (sign 0),
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

A view (:class:`PerturbView`) evaluates signs of one :class:`SignPair`:
sign 0 of a plain pair (:func:`plain_view`), or +1 or -1 of a perturbed
pair, the +eps and -eps views of one estimate, or the stack (+1, -1) of
both.  The loss reads a view through its one surface, ``jet_eval``
(:func:`jet_sums`), which the closed-form stand-in
:class:`sdze.spatial.ExactSolutionView` has too; values alone are
:func:`ansatz` of the view.  The pair owns everything the signs share that
depends on the perturbation.  When it is built it forms W_0 in the step
dtype, the core eps Z_0 and the hidden weights of both signs: one E_l per
layer gives the stack (W_l + E_l, W_l - E_l), each formed in float64 and
rounded once to the step dtype, so no E_l outlives its layer.  For a batch
X it forms the products X W_0 and X (eps DW_0); for an index set I only the
seed rows W_0[I] and (eps DW_0)[I].

One jet sweep.  A sweep evaluates a stack of S signs: every plane it forms
carries a leading axis of the signs.  The signs' input-layer terms are one
broadcast product of the perturbation term by the signs, added to the
shared term (one sign alone adds or subtracts it); each later layer is one
stacked GEMM, a GEMM per sign of the same shapes, against the pair's stack
of weights; the activation planes, the tangent blocks, their einsum
reductions and the set sums are elementwise or reduce per sign.  So a stack of both signs is one sweep whose every slice
has the bits of that sign swept alone, and a one-sign sweep is a stack of
one: there is no other.  This changes no bit against forming each sign on
its own: every sign-dependent term is linear in the sign and IEEE negation
is exact, so (-eps) Z = -(eps Z), a product with one operand negated is the
negated product, and W + (-E) = W - E.  A seed-locked estimate on one
thread is one sweep over (+1, -1) (:func:`sdze.optimizer.directional_delta`);
the unlocked ablation, whose signs read different index sets, and the
concurrent path, one sign a thread, sweep one sign each.

What an index set forms whatever the pair and the sign is not the pair's:
the split of the direction list into sets, their offsets, 2|I|, X[:, I]
and the ansatz's phi(X) are one :class:`IndexSets`, formed by
:func:`index_sets` with the one range check of the directions.  A drawn
sample forms it once, with the phi its rhs formed
(:class:`sdze.spatial.DrawnSample`), and every pass and pair on the draw
reads it; a call on raw arrays (:func:`jet_sums`) forms it once per call.

The half of a jet sweep that reads no index set also depends only on the
pair, the signs and the batch: the primal values, the sigma' planes the
tangent transport reads and the reverse adjoints (:func:`_adjoints`).  So
the batch keeps them too, per stack of signs and read-only.  A stack forms
its planes at its first sweep on a batch, and every later sweep of it on
the same read-only X reads them; a one-sign sweep reads its slice of the
pair's stack of both signs where the batch holds one.  They live as long as
the batch: until the pair is given another X, or until the pair goes.  That
is two planes of B x h_l words per hidden layer l, and B values, per sign.

A pair is one perturbation of ``params`` as they were when it was built.  It
serves any number of estimates, on any batches and index sets, until
``params`` change; after an update, build a new pair.  So an estimate reads
the pair its caller built: a training step builds one per step and
evaluates each sign once, and holds both signs' planes until the pair goes.
A variance sweep builds one per eps, whose replicates then share its
weights, the products of their pinned batch and both signs' planes on it:
one primal and one adjoint pass per pair, at its first locked estimate,
whatever the number of replicates; the unlocked passes read their sign's
slice.

The two signs of an estimate may run on two threads
(:func:`sdze.optimizer.directional_delta`).  The caller then forms every
sign-independent term first (:meth:`SignPair.share`), so a sweep writes
nothing the other sign reads: only its own stack's entry of the batch's
planes, and its tangent blocks.

A pair built with a workspace (:mod:`sdze.workspace`), as each training
step builds one, writes the arrays it forms into the workspace's buffers,
with the same bits: its weights and batch products under names of their
own; each stack's values, sigma' and sigma'' planes and adjoint under names
of that stack of signs; and what dies within a call (the pre-activations
and sigma of a layer, the adjoint's products, the tangent blocks and their
squares) in scratch of the thread that runs it.  So every thread that runs
a jet sweep, the worker, the caller's -eps pass or the serial path's stack
of both signs, transports its tangents in kept blocks, and a run's steps
allocate none of these arrays.  Without a workspace each is allocated as it
is formed.  The arrays of one index set (the seed rows and g1: S |I| h and
S |I| B words, and the draw's X[:, I]) are allocated either way: at
poisson100's shapes they are 13-52 KB, which the heap serves with no page
faults, while taking them from a workspace cost the variance sweep's
read-only estimates 3 %.

All jet code lives here, and :func:`jet_sums` is its one entry point.  The
maximum order is 2, the order of every supported operator.

Precision contract.  A view's ``dtype`` (the step dtype, f32 or f64) is the
dtype of the raw network: the input-layer products, the weights each sweep
multiplies, every activation and tangent plane of :func:`_raw_jets` and the
values of :func:`forward`.  A training step draws its collocation batch in
the step dtype too (:class:`sdze.spatial.SpatialSample`), so an f32 step
reads an f32 X, which :meth:`SignPair.batch` multiplies with no B x d cast.
Everything that reads X outside the raw network is f64, computed from X's
exact values, since widening f32 to f64 is exact:

* the rhs f (:func:`sdze.spatial.rhs_eval`) and phi (:func:`boundary_factor`,
  whose f32 squares are exact in f64);
* the coordinates ``IndexSets.xi`` = X[:, I] of the ansatz's first-order term;
* :class:`sdze.spatial.ExactSolutionView`, the network's stand-in.

phi and xi promote what they multiply, so the values and set sums of
:func:`jet_sums`, and with them the sampled operator, the residual op - f
and the loss, are f64 computed from step-dtype planes.  That costs B values
per set and keeps the residual out of f32 arithmetic.  The test points of
:func:`sdze.spatial.relative_l2` stay f64 in every run, and so do the
weights, bases and cores the optimizer keeps.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .rng import Role, StreamKey, derive_stream
from .subspace import delta_rows, perturb_product, rank_r_delta
from .workspace import Workspace, buffer


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


def activation_planes(act: str, G: np.ndarray, derivs: bool, out=None, deriv_out=(None, None)):
    """sigma(G) and, with ``derivs``, sigma'(G) and sigma''(G) from one evaluation.

    Bitwise equal to :func:`activation_triple`: sin gives sigma'' = -sigma by
    exact negation, and tanh_scaled forms tanh and 1 - t^2 once, with the same
    expressions.  Without ``derivs`` the derivative planes are None.  Sigma
    is written to ``out`` and the derivative planes to ``deriv_out`` where
    they are given; ``out`` may be ``G`` itself only without ``derivs``,
    since the derivative planes read ``G`` after sigma.
    """
    if act == "sin":
        s = np.sin(G, out=out)
        if not derivs:
            return s, None, None
        return s, np.cos(G, out=deriv_out[0]), np.negative(s, out=deriv_out[1])
    _check_activation(act)
    t = np.tanh(G, out=out)
    if not derivs:
        return t, None, None
    q = np.multiply(t, t, out=deriv_out[0])  # 1 - t * t
    np.subtract(1.0, q, out=q)
    t2 = np.multiply(-2.0, t, out=deriv_out[1])  # -2 t * q
    t2 *= q
    return t, q, t2


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
    """Signs of a :class:`SignPair`: 0 of a plain pair, +1 or -1 of a perturbed one.

    ``sign`` is one sign, or a stack of them: the pair's :attr:`SignPair.signs`,
    (+1, -1) for a perturbed pair, or a stack of one.  A one-sign view gives
    one result; a stack gives one per sign, stacked on a leading axis in its
    order, as an int index of a numpy array drops an axis that a tuple of
    one keeps.  Sign 0 reproduces the unperturbed network bitwise.  A view
    reads its pair, which lives as the module docstring says: until
    ``params`` change.
    """

    pair: SignPair
    sign: int | tuple[int, ...] = 0

    def __post_init__(self):
        if self.signs not in self.pair._weights:
            kind = "perturbed" if self.pair.perturbed else "plain"
            raise ValueError(f"sign {self.sign!r} is not a sign of a {kind} pair")

    @property
    def params(self) -> MlpParams:
        return self.pair.params

    @property
    def dtype(self) -> np.dtype:
        return self.pair.dtype

    @property
    def signs(self) -> tuple[int, ...]:
        """The stack of signs the view evaluates: ``sign``, or a stack of it alone."""
        return self.sign if type(self.sign) is tuple else (self.sign,)

    # Loss-pipeline surface shared with the exact-solution stand-in.
    def jet_eval(self, X: np.ndarray, dims: np.ndarray, sizes) -> tuple[np.ndarray, np.ndarray]:
        """:func:`jet_sums` at this view; ``sizes`` may be the :class:`IndexSets` of X and dims."""
        return jet_sums(self, X, dims, sizes)


def plain_view(params: MlpParams) -> PerturbView:
    return PerturbView(SignPair(params))


def _signed(shared: np.ndarray, term: np.ndarray | None, signs, column, out=None) -> np.ndarray:
    """``shared + s * term`` for each sign s of ``signs``, stacked: (S, ...).

    ``column`` holds a stack of several signs as an (S, 1, 1) array in
    ``term``'s dtype.  The product with +1 or -1 is exact and ``a + (-b)`` is
    ``a - b``, so each slice has the bits of ``shared +/- term``, which a
    stack of one sign forms directly, by adding or subtracting.  Unperturbed
    (no ``term``), the one sign 0 gives ``shared`` itself, as a stack of one.
    Written to ``out`` when one is given.
    """
    if term is None:
        return shared[None]
    if len(signs) == 1:
        return (np.add if signs[0] > 0 else np.subtract)(shared[None], term, out=out)
    out = np.multiply(column, term, out=out)
    out += shared
    return out


@dataclass(eq=False)
class _Batch:
    """Sign-independent terms of one input batch (see :class:`SignPair`)."""

    X: np.ndarray  # (B, d), as given
    G0: np.ndarray  # X W_0 (+ bias row), step dtype, read-only
    P: np.ndarray | None  # X (eps DW_0), contracted implicitly, read-only; None unperturbed
    # stack of signs -> the read-only planes of :func:`_adjoints` at those signs
    planes: dict = field(default_factory=dict)


@dataclass(eq=False)
class _Rows:
    """The seed rows of one direction list (:meth:`SignPair.rows`)."""

    dims: np.ndarray  # (b,) int64
    R0: np.ndarray  # W_0[dims], step dtype
    D: np.ndarray | None  # (eps DW_0)[dims]; None unperturbed


def _reusable(cached: np.ndarray, new: np.ndarray) -> bool:
    # a writable array may have changed since it was cached
    return cached is new and not new.flags.writeable


def _cast_into(W: np.ndarray, out: np.ndarray) -> None:
    np.copyto(out, W, casting="same_kind")


def _layer_weights(layer: int, out: np.ndarray, op, *operands) -> np.ndarray:
    """Layer ``layer``'s weights ``op(*operands, out=out)``, formed in float64 and
    rounded to the step dtype of ``out``.  Under ``np.errstate(over="raise")``
    a value outside the dtype's range raises ``FloatingPointError`` naming
    the layer."""
    try:
        op(*operands, out=out)
    except FloatingPointError:
        raise FloatingPointError(
            f"layer {layer} weights overflow the step dtype {out.dtype.name}"
        ) from None
    return out


class SignPair:
    """What the views of one estimate share (module docstring).

    Perturbed, with ``subspaces``, ``cores`` and ``eps``, its signs are +1 and
    -1; plain, from ``params`` alone, its sign is 0.  Each hidden layer's
    weights at every sign are formed here as one stack, from ``params`` as
    they are now; a weight outside the range of the step dtype raises
    ``FloatingPointError`` naming its layer.  ``work``, a
    :class:`~sdze.workspace.Workspace`, holds the arrays the pair and its
    sweeps form but those of an index set (module docstring); its owner
    builds one pair at a time, and drops it before the next.  :meth:`batch`
    and :meth:`rows` return their last result again for the same read-only
    arrays, which is how a later sweep of the pair on the same arrays reuses
    what an earlier one formed.  The batch carries the primal and adjoint
    planes of each stack of signs too, formed at that stack's first jet
    sweep on it, so every later estimate of the pair on a pinned read-only
    batch skips the primal and the adjoint sweep; a one-sign sweep reads its
    slice of a stack of both signs.  Those planes die with the batch: when
    the pair is given another X, or with the pair.  :meth:`share` forms what
    both signs read before they run concurrently, one sign a thread.
    """

    def __init__(
        self,
        params: MlpParams,
        subspaces=None,
        cores=None,
        eps: float = 0.0,
        dtype=np.float64,
        work: Workspace | None = None,
    ):
        self.params = params
        self.subspaces, self.cores, self.eps = subspaces, cores, eps
        self.dtype = np.dtype(dtype)
        self.work = work
        self.perturbed = cores is not None
        self.signs = (1, -1) if self.perturbed else (0,)

        def cast(l, W):  # the master weights as they are, in the step dtype
            if W.dtype == self.dtype:
                return W
            return _layer_weights(l, buffer(work, ("W", 0, l), W.shape, self.dtype), _cast_into, W)

        later = list(enumerate(params.weights[1:], 1))
        with np.errstate(over="raise"):
            self.W0 = cast(0, params.weights[0])
            if not self.perturbed:
                stacks = [cast(l, W)[None] for l, W in later]
            else:
                self.sub0 = subspaces[0]
                self.core0 = np.asarray(eps * cores[0], dtype=self.dtype)
                stacks = []
                for (l, W), s, Z in zip(later, subspaces[1:], cores[1:]):
                    E = rank_r_delta(s, Z, eps, work and work.take(0, W.shape, np.float64), work)
                    stack = buffer(work, ("W", self.signs, l), (2, *W.shape), self.dtype)
                    _layer_weights(l, stack[0], np.add, W, E)
                    _layer_weights(l, stack[1], np.subtract, W, E)
                    stacks.append(stack)
        # each stack a view may evaluate, the pair's signs or one of them alone,
        # -> its layer weights (weights()); the signs as a column (_signed)
        self._weights = {(sign,): [self.W0, *(W[i : i + 1] for W in stacks)]
                         for i, sign in enumerate(self.signs)}
        self._weights[self.signs] = [self.W0, *stacks]
        self._column = np.array(self.signs, self.dtype)[:, None, None]
        self._batch: _Batch | None = None
        self._rows: _Rows | None = None

    def batch(self, X: np.ndarray) -> _Batch:
        """X W_0 and the implicit X (eps DW_0) of a batch, in the step dtype.

        A batch already in the step dtype is read as is, with no B x d cast.
        Only a read-only X is kept for the passes after this one: a writable
        one is never read again (``_reusable``), so its products stay
        writable and a pass without derivatives may overwrite them.
        """
        cached = self._batch
        if cached is not None and _reusable(cached.X, X):
            return cached
        params, work = self.params, self.work
        if X.ndim != 2 or X.shape[1] != params.dim:
            raise ValueError(f"input shape {X.shape} does not match dim {params.dim}")
        H = X.astype(self.dtype, copy=False)
        W = self.W0
        shape = (X.shape[0], W.shape[1])
        out = work and work.take("G0", shape, self.dtype)
        G0 = np.matmul(H, W[:-1] if params.bias else W, out=out)
        if params.bias:
            G0 += W[-1]
        P = None
        if self.perturbed:
            out = work and work.take("P", shape, self.dtype)
            P = perturb_product(H, self.sub0, self.core0, out=out)
        batch = _Batch(X, G0, P)
        if not X.flags.writeable:  # both signs and every later sweep on X read them
            for a in (G0, P):
                if a is not None:
                    a.flags.writeable = False
            self._batch = batch
        return batch

    def rows(self, sets: IndexSets) -> _Rows:
        """The seed rows W_0[I] and (eps DW_0)[I] of ``sets``' directions, in the step dtype.

        ``sets`` range-checked its directions against its batch's width
        (:func:`index_sets`), so a batch as wide as the network's input
        gives rows in range.  Only a read-only direction array is kept for
        the passes after this one.
        """
        cached = self._rows
        if cached is not None and _reusable(cached.dims, sets.dims):
            return cached
        if sets.X.shape[1] != self.params.dim:
            raise ValueError(f"input shape {sets.X.shape} does not match dim {self.params.dim}")
        dims = sets.dims
        D = delta_rows(self.sub0, self.core0, dims) if self.perturbed else None
        self._rows = _Rows(dims, self.W0[dims], D)
        return self._rows

    def share(self, sets: IndexSets) -> None:
        """Form every term of the read-only ``sets`` that both signs read.

        That is :meth:`batch` of its X and :meth:`rows`.  A jet sweep of
        either sign on the same sets then writes nothing the other sign reads.
        """
        self.batch(sets.X)
        self.rows(sets)

    @cached_property
    def transport_macs(self) -> int:
        """Multiply-adds per point and direction of one sign's tangent transport.

        sum_{l=1..L-2} h_l h_{l+1} over the hidden widths h; 0 with fewer
        than two hidden layers, whose sweeps transport no tangent.
        """
        h = self.params.widths[1:-1]
        return sum(a * b for a, b in zip(h, h[1:]))

    def weights(self, signs: tuple[int, ...]) -> list[np.ndarray]:
        """Layer weights in the step dtype, as one sweep at the stack ``signs``
        multiplies them.

        Layer 0 is W_0 as is: its perturbation stays implicit (:meth:`batch`,
        :meth:`rows`).  Every later layer is W_l +/- E_l, cast once, as an
        (S, m, n) stack for the S signs: a view of the one stack the pair
        formed.
        """
        return self._weights[signs]


def _primal(pair: SignPair, signs: tuple[int, ...], X: _Batch, derivs: bool):
    """Values of the raw network at each of ``signs``, shape (S, B, 1).

    ``X`` is the batch with its shared input-layer products
    (:meth:`SignPair.batch`).  Every plane carries a leading axis of the S
    signs, and each layer is one (S, B, n) product of per-sign GEMMs, with the
    bits of one sign alone.  With ``derivs`` also returns the
    activation-derivative planes sigma'(G_l), sigma''(G_l) of every hidden
    layer, which the tangent transport of a jet sweep reuses for all
    directions.  Each hidden layer evaluates its activation once
    (:func:`activation_planes`); without ``derivs``, in place on its own
    pre-activation, unless that is a batch product that later passes read.
    With ``derivs`` every plane is a buffer of the pair's workspace, if it
    has one (:mod:`sdze.workspace`): each pre-activation in scratch 0, each
    sigma in scratch 1, which the next pre-activation reads, and the values
    and derivative planes, which outlive the pass, under names of their own.
    """
    params = pair.params
    work = pair.work if derivs else None  # a pass without derivatives allocates
    bias = params.bias
    act = params.activation
    depth = params.depth
    weights = pair.weights(signs)
    shape = (len(signs), *X.G0.shape)
    names = [0] * (depth - 1) + [("g", signs)]
    s1s: list[np.ndarray] = []
    s2s: list[np.ndarray] = []
    l = 0
    try:
        out = work and work.take(names[0], shape, X.G0.dtype) if X.P is not None else None
        G = _signed(X.G0, X.P, signs, pair._column, out)
        for l in range(depth):
            if l > 0:
                W = weights[l]
                out = work and work.take(names[l], (*shape[:2], W.shape[2]), H.dtype)
                G = np.matmul(H, W[:, :-1] if bias else W, out=out)
                if bias:
                    G += W[:, -1:]
            if l == depth - 1:
                H = G
            elif not derivs:
                H = activation_planes(act, G, False, out=G if G.flags.writeable else None)[0]
            else:
                # s'_{L-2} is only read by the adjoint, which overwrites it (_adjoints)
                s1 = ("lam", signs) if l == depth - 2 else ("s'", signs, l)
                planes = [work and work.take(n, G.shape, G.dtype) for n in (s1, ("s''", signs, l))]
                sigma = work and work.take(1, G.shape, G.dtype)
                H, s1, s2 = activation_planes(act, G, True, sigma, planes)
                s1s.append(s1)
                s2s.append(s2)
    except FloatingPointError:
        raise _overflow(l, pair.dtype, "jet sweep" if derivs else "forward pass") from None
    return H, s1s, s2s


def forward(view: PerturbView, X: np.ndarray) -> np.ndarray:
    """Raw network values, shape (B, 1), or (S, B, 1) for a stack of S signs."""
    pair = view.pair
    values = _primal(pair, view.signs, pair.batch(X), derivs=False)[0]
    return values if type(view.sign) is tuple else values[0]


def boundary_factor(X: np.ndarray) -> np.ndarray:
    """phi(x) = 1 - ||x||^2 in float64; a float32 x squares exactly in float64."""
    return 1.0 - np.sum(np.multiply(X, X, dtype=np.float64), axis=-1)


def ansatz(view: PerturbView, X: np.ndarray) -> np.ndarray:
    """u(x) = (1 - ||x||^2) * raw(x); exactly zero on the unit sphere."""
    return boundary_factor(X)[:, None] * forward(view, X)


def _set_size(k) -> int:
    if isinstance(k, bool):  # operator.index takes it as 0 or 1
        raise TypeError("a bool is not a set size")
    return operator.index(k)


def set_starts(sizes, n_dims: int) -> list[int]:
    """Offsets of consecutive index sets of ``sizes`` within ``n_dims`` directions.

    ``sizes`` is a non-empty 1-D sequence of integers >= 1 summing to
    ``n_dims``; a bool is not a size.  Plain ints: a loss has two sets, for
    which numpy's reductions cost more than the sum.
    """
    try:
        counts = [_set_size(k) for k in sizes]
    except TypeError:  # not 1-D, or not integers
        counts = []
    if not counts or min(counts) < 1 or sum(counts) != n_dims:
        raise ValueError(f"set sizes {sizes!r} must be integers >= 1 that sum to {n_dims}")
    return list(accumulate(counts[:-1], initial=0))


@dataclass(frozen=True, eq=False)
class IndexSets:
    """The terms of consecutive index sets on a batch that no pair or sign changes.

    Made by :func:`index_sets`, which checks the directions' range once.  A
    drawn sample holds one (:class:`sdze.spatial.DrawnSample`), so every
    pass and pair on the draw reads these arrays, read-only, and forms none
    of them.
    """

    X: np.ndarray  # (B, d) batch, as given
    dims: np.ndarray  # (n,) int64, each in [0, d)
    sizes: tuple[int, ...]  # of the consecutive sets
    starts: tuple[int, ...]  # their offsets in dims (:func:`set_starts`)
    twice: np.ndarray  # (len(sizes), 1) float64: 2 |I| of each set
    xi: np.ndarray  # (n, B) float64: X[:, dims].T, exact for a float32 X
    phi: np.ndarray  # (B,) float64: 1 - ||x||^2 (boundary_factor)


def index_sets(X, dims, sizes, phi=None) -> IndexSets:
    """The :class:`IndexSets` of batch ``X`` along ``dims``, split into sets of ``sizes``.

    A direction index outside [0, d), d the batch's width, raises
    ``ValueError``.  ``sizes`` may instead be the IndexSets of these very
    ``X`` and ``dims``, as a pass over a drawn sample passes them; it is
    returned as is, so a pass forms nothing of its index sets.  ``phi``,
    X's :func:`boundary_factor` where the caller has formed it (a drawn
    sample, from its rhs), is held as given; otherwise it is formed here.
    """
    if isinstance(sizes, IndexSets):
        if sizes.X is not X or sizes.dims is not dims:
            raise ValueError("the index sets are not those of this batch and direction list")
        return sizes
    X = np.atleast_2d(np.asarray(X))
    dims = np.asarray(dims, dtype=np.int64)
    if dims.size and (dims.min() < 0 or dims.max() >= X.shape[1]):
        raise ValueError("direction index out of range")
    starts = tuple(set_starts(sizes, dims.size))
    counts = tuple(hi - lo for lo, hi in zip(starts, [*starts[1:], dims.size]))
    # 2|I| as an f64 column: an f32 g widens to f64, as the other terms do
    twice = np.array([2.0 * k for k in counts])[:, None]
    xi = X[:, dims].astype(np.float64, copy=False).T
    phi = boundary_factor(X) if phi is None else phi
    twice.flags.writeable = xi.flags.writeable = phi.flags.writeable = False
    return IndexSets(X, dims, counts, starts, twice, xi, phi)


# directions transported per cache-sized block during jet sweeps
JET_CHUNK = 16


def _overflow(layer: int, dtype: np.dtype, what: str = "jet sweep") -> FloatingPointError:
    """The error of a pass (``what``) whose step-dtype arithmetic overflowed at ``layer``."""
    return FloatingPointError(f"layer {layer} {what} overflows the step dtype {dtype.name}")


def _adjoints(pair: SignPair, signs: tuple[int, ...], batch: _Batch):
    """The half of a jet sweep at each of ``signs`` that reads no index set.

    Returns the primal values g (S, B), the planes s'_l of hidden layers
    0 .. L-3 (the ones the tangent transport reads), nu_l = s''_l * lam_l of
    every hidden layer and s'_0 * lam_0, the operand of g1 (None with no
    hidden layer); see :func:`_raw_jets`.  Each carries the leading sign
    axis.  They depend only on the pair, the signs and the batch, so they are
    formed once per stack of signs of ``batch`` and kept on it, read-only:
    any later sweep on the batch reads them, and a one-sign sweep reads its
    slice of a stack of all the pair's signs.
    """
    planes = batch.planes.get(signs)
    if planes is not None:
        return planes
    both = batch.planes.get(pair.signs)
    if both is not None:  # one sign of the pair's stack: its slice
        i = pair.signs.index(signs[0])
        g, s1s, nus, lam0 = both
        cut = [a[i : i + 1] for a in (g, *s1s, *nus)]
        n = len(s1s)
        lam0 = None if lam0 is None else lam0[i : i + 1]
        batch.planes[signs] = cut[0], cut[1 : 1 + n], cut[1 + n :], lam0
        return batch.planes[signs]
    params, work = pair.params, pair.work
    depth, weights = params.depth, pair.weights(signs)
    value, s1s, s2s = _primal(pair, signs, batch, derivs=True)
    # lam_l, then s'_l * lam_l, last layer first; nu_l overwrites s''_l (read by
    # nothing else), s'_{L-2} * lam overwrites s'_{L-2} (read by no tangent)
    lam = None
    if depth > 1:
        lin = [W[..., :-1, :] for W in weights] if params.bias else weights
        lam = lin[-1][:, None, :, 0]
        l = depth - 2
        try:
            for l in range(depth - 2, -1, -1):
                s2s[l] *= lam
                s1 = s1s[l]
                out = s1 if l == depth - 2 else (
                    work and work.take(("lam", signs), s1.shape, s1.dtype)
                )
                lam = np.multiply(s1, lam, out=out)
                if l:
                    shape = (*lam.shape[:2], lin[l].shape[1])
                    lam = np.matmul(lam, lin[l].mT, out=work and work.take(1, shape, s1.dtype))
        except FloatingPointError:
            raise _overflow(l, pair.dtype) from None
    g, s1s = value[..., 0], s1s[: max(depth - 2, 0)]
    for a in (g, *s1s, *s2s, lam):
        if a is not None:
            a.flags.writeable = False
    batch.planes[signs] = g, s1s, s2s, lam
    return batch.planes[signs]


def _raw_jets(
    pair: SignPair, signs: tuple[int, ...], batch: _Batch, rows: _Rows, starts: list[int]
):
    """Raw-network jets along coordinate directions at each of ``signs``, second
    order summed per set.

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
    stack of signs of ``batch``, shared by every direction of this sweep and
    of every later sweep of the pair on the same read-only batch.  What reads
    the set is formed per call and only reads those planes: g1 is one GEMM
    of the seed rows, and first-order tangents cross layers 1 .. L-2 only,
    in blocks of at most ``JET_CHUNK`` directions of one set, one GEMM per
    layer and block.  No (b, B, d) tangent block is ever formed; with the
    pair's workspace the blocks are its calling thread's scratch 0 and 1,
    with the same bits.  Everything sign-independent comes from the pair,
    ``batch`` and ``rows``.

    Every array carries a leading axis of the S signs, and every operation
    on it is the one-sign operation per slice: a broadcast multiply by the
    signs, per-sign GEMMs and per-sign einsum and reduceat, each with the
    bits of that sign alone.  So a stack of both signs is one sweep with the
    bits of two.

    Under ``np.errstate(over="raise")``, which a training step sets for its
    estimate (:func:`sdze.optimizer.sdze_step`), a value past the range of
    the step dtype at any sign, in the primal, the adjoints or a tangent
    layer, raises ``FloatingPointError`` naming the layer.  einsum raises no
    overflow, so a non-finite tangent term raises it whatever the caller's
    errstate.

    Returns g (S, B), read-only, the first derivatives g1 (S, b, B) and the
    per-set sums of second derivatives g2 (S, len(starts), B).
    """
    params, dtype = pair.params, pair.dtype
    depth, work = params.depth, pair.work
    g, s1s, nus, lam0 = _adjoints(pair, signs, batch)
    S, B = g.shape
    l = 0
    try:
        # e_i @ W0 +/- e_i @ (eps DW_0); a constant feature has zero tangent
        seed_rows = _signed(rows.R0, rows.D, signs, pair._column)
        if depth == 1:
            g2 = np.zeros((S, len(starts), B), dtype=dtype)
            return g, np.repeat(seed_rows[..., :1], B, axis=2), g2

        g1 = seed_rows @ lam0.mT
        g2 = np.add.reduceat(seed_rows * seed_rows, starts, axis=1) @ nus[0].mT
        if depth == 2:
            return g, g1, g2

        weights = pair.weights(signs)
        lin = [W[..., :-1, :] for W in weights] if params.bias else weights
        bounds = [*starts, seed_rows.shape[1]]
        for s in range(len(starts)):
            for c0 in range(bounds[s], bounds[s + 1], JET_CHUNK):
                k = min(JET_CHUNK, bounds[s + 1] - c0)
                tg = seed_rows[:, c0 : c0 + k, None, :]
                block = work and work.take(0, (S, k, B, tg.shape[-1]), dtype)
                tg = np.multiply(tg, s1s[0][:, None], out=block)
                for l in range(1, depth - 1):
                    if l > 1:
                        tg *= s1s[l - 1][:, None]
                    n = lin[l].shape[-1]
                    block = work and work.take(l % 2, (S, k * B, n), dtype)
                    flat = np.matmul(tg.reshape(S, k * B, -1), lin[l], out=block)
                    tg = flat.reshape(S, k, B, n)
                    # the squares in the block the GEMM has read
                    squares = work and work.take((l + 1) % 2, (S, B, n), dtype)
                    squares = np.einsum("skbh,skbh->sbh", tg, tg, out=squares)
                    term = np.einsum("sbh,sbh->sb", squares, nus[l])
                    if not np.isfinite(term).all():  # einsum raises no overflow
                        raise FloatingPointError
                    g2[:, s] += term
    except FloatingPointError:
        raise _overflow(l, dtype) from None
    return g, g1, g2


def jet_sums(view: PerturbView, X: np.ndarray, dims, sizes) -> tuple[np.ndarray, np.ndarray]:
    """Ansatz values and, per index set, the sum of pure second derivatives.

    ``dims`` is split into consecutive index sets of ``sizes``, or read from
    the :class:`IndexSets` of ``X`` and ``dims`` passed as ``sizes``
    (:func:`index_sets`).  With g the raw network and phi = 1 - ||x||^2,
    over a set I (repeated indices counted with multiplicity):
    sum_{i in I} d2u/dx_i^2 = phi sum g''_i - 4 sum x_i g'_i - 2 |I| g.
    Returns u (B,) and the sums (len(sizes), B); a view of a stack of S signs
    returns them at every sign, (S, B) and (S, len(sizes), B), from one sweep.
    """
    sets = index_sets(X, dims, sizes)
    pair = view.pair
    g, g1, g2 = _raw_jets(pair, view.signs, pair.batch(sets.X), pair.rows(sets), sets.starts)
    if type(view.sign) is not tuple:  # one sign: its slices, as the view gives them
        g, g1, g2 = g[0], g1[0], g2[0]
    xg1 = np.add.reduceat(sets.xi * g1, sets.starts, axis=-2)
    sums = sets.phi * g2 - 4.0 * xg1 - sets.twice * g[..., None, :]
    return sets.phi * g, sums
