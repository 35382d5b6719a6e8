"""PDE problems, the randomized spatial operator, and the stochastic loss.

Operators act on the unit ball with a hardened zero boundary.  The Laplacian
is decomposed into d per-dimension second-derivative terms; the randomized
operator sums a uniformly sampled subset of terms scaled by d/|I|, and the
scalar loss pairs two independently subsampled operator evaluations so the
product is an unbiased estimator of the squared residual.  Pointwise
nonlinearities ride along unsampled (they cost O(1)).

Ground truth is manufactured: the right-hand side is the full operator
applied to a closed-form solution, evaluated analytically (never through the
network), so solution error is measurable exactly.  Each closed form sums
over the windows of k consecutive coordinates (``SOLUTIONS``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import worker
from .net import IndexSets, MlpParams, ansatz, boundary_factor, index_sets, plain_view
from .rng import CHUNK_PAIRS, Role, RngStream, StreamKey, derive_stream, sample_index_set
from .workspace import buffer

NONLINEARITIES = ("none", "allen_cahn", "sine_gordon")
# solution tag -> k, its interaction sum being S = sum_j c_j exp(x_j ... x_{j+k-1})
# over the d - k + 1 windows of k consecutive coordinates
SOLUTIONS = {"two_body": 2, "three_body": 3}
NORMALIZATIONS = ("raw", "dim_normalized")


def coefficient_count(solution: str, dim: int) -> int:
    """How many coefficients c_j ``solution`` has in ``dim`` dimensions: one per window.

    Raises ``ValueError`` for an unknown solution tag or a ``dim`` too small
    for one window (a pair for two_body, a triple for three_body).
    """
    if solution not in SOLUTIONS:
        raise ValueError(f"unknown solution tag {solution!r}")
    k = SOLUTIONS[solution]
    if dim < k:
        raise ValueError(f"{solution} needs dim >= {k}")
    return dim - k + 1


@dataclass(frozen=True)
class PdeProblem:
    """Operator decomposition + manufactured solution on the unit ball.

    The differential part is the Laplacian, split into N_L = dim terms
    (one pure second derivative per coordinate).
    """

    dim: int
    kind: str  # none -> Poisson; allen_cahn; sine_gordon
    solution: str
    coeffs: np.ndarray
    normalization: str = "dim_normalized"

    def __post_init__(self):
        if self.kind not in NONLINEARITIES:
            raise ValueError(f"unknown pde kind {self.kind!r}")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        need = coefficient_count(self.solution, self.dim)
        if len(self.coeffs) != need:
            raise ValueError(f"expected {need} coefficients, got {len(self.coeffs)}")

    @property
    def n_terms(self) -> int:
        return self.dim

    @property
    def kappa(self) -> float:
        return float(self.dim**2) if self.normalization == "dim_normalized" else 1.0

    def nonlinearity(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "none":
            return np.zeros_like(u)
        if self.kind == "allen_cahn":
            return u - u**3
        return np.sin(u)


def make_problem(
    kind: str, dim: int, solution: str, master: int, normalization: str = "dim_normalized"
) -> PdeProblem:
    """Problem with solution coefficients c_i ~ N(0,1) frozen from the seed."""
    n = coefficient_count(solution, dim)
    stream = derive_stream(StreamKey(master, Role.SOLUTION_COEFFS, 0, 0))
    return PdeProblem(dim, kind, solution, stream.normals(n), normalization)


# elements per block of whole rows for the ball's row norms: one block of
# scratch, at most rng.CHUNK_BYTES in float64 until one row alone is larger
_NORM_BLOCK_ELEMS = 2 * CHUNK_PAIRS


def sample_unit_ball(
    stream: RngStream, B: int, d: int, dtype=np.float64, work=None
) -> np.ndarray:
    """Uniform points in the unit ball: x = U^(1/d) * g / ||g||, held in ``dtype``.

    g is drawn in ``dtype``'s layout (:meth:`RngStream.normals`); the radii
    U^(1/d) are float64 either way.  The row norms are taken per row block,
    in ``dtype``, with one block of scratch, so beside its output the draw
    holds the larger of one draw block and one norm block.  In float64 each
    point is g scaled by the float64 ratio; in float32 by that ratio rounded
    to float32, so a point may sit outside the unit sphere by float32
    rounding.  The draw consumes the batch's words of ``stream``;
    :func:`ball_rows` draws any row block of it alone.  With ``work``
    (:mod:`sdze.workspace`) the batch and the draw's scratch are its buffers.
    """
    X = ball_rows(stream, B, d, 0, B, dtype, work)
    stream.offset += (2 if np.dtype(dtype) == np.float64 else 1) * ((B * d + 1) // 2) + B
    return X


def ball_rows(
    stream: RngStream, B: int, d: int, a: int, k: int, dtype=np.float64, work=None
) -> np.ndarray:
    """Rows [a, a + k) of the B x d batch :func:`sample_unit_ball` draws from ``stream``.

    The rows are read at the word offsets of the key layout in the :mod:`sdze.rng`
    docstring, counted from ``stream``'s offset, which is not advanced; their
    bits are those of the same rows of the whole batch.
    """
    if B < 1 or d < 1:
        raise ValueError("B and d must be >= 1")
    if not 0 <= a < a + k <= B:
        raise ValueError(f"rows [{a}, {a + k}) are not a row block of {B} rows")
    w = 2 if np.dtype(dtype) == np.float64 else 1  # words a pair of normals takes
    odd = a * d % 2
    g = buffer(work, "ball", (k * d + odd,), dtype)
    RngStream(stream.state, stream.offset + w * (a * d // 2)).normals(g.size, g, dtype, work)
    X = g[odd:].reshape(k, d)
    radii = RngStream(stream.state, stream.offset + w * ((B * d + 1) // 2) + a).uniforms(k)
    rho = radii ** (1.0 / d)
    n = max(1, _NORM_BLOCK_ELEMS // d)
    squares = buffer(work, 0, (min(n, k), d), X.dtype)
    norms = np.empty(k, X.dtype)
    for r in range(0, k, n):
        rows = X[r : r + n]
        sq = np.multiply(rows, rows, out=squares[: rows.shape[0]])
        np.add.reduce(sq, axis=1, out=norms[r : r + n])
    scale = rho / np.sqrt(norms, out=norms)
    X *= scale[:, None].astype(X.dtype, copy=False)
    return X


# --- closed-form solution machinery ----------------------------------------


# The closed forms compute in float64 from a batch of either dtype, with the
# bits of its float64 widening: a product of two coordinates is formed in
# float64 (dtype=float64), where that of two float32 values is exact, and any
# other operation widens its float32 operand, which is exact, so no float64
# copy of X is made.


def _windows(X: np.ndarray, k: int) -> list[np.ndarray]:
    """Coordinate s of every window of k, for s = 0 .. k-1: k views of shape (B, d - k + 1)."""
    n = X.shape[1] - k + 1
    return [X[:, s : s + n] for s in range(k)]


def _window_products(x: list[np.ndarray], out=None) -> np.ndarray:
    """x_j ... x_{j+k-1} of each window of :func:`_windows`, in float64, formed
    left to right; in ``out`` when one is given."""
    P = np.multiply(x[0], x[1], out=out, dtype=np.float64)
    for xs in x[2:]:
        P *= xs
    return P


def _interaction_terms(problem: PdeProblem, X: np.ndarray, out=None) -> np.ndarray:
    """exp of each window's coordinate product, shape (B, n_coeffs), float64;
    in ``out`` when one is given."""
    E = _window_products(_windows(X, SOLUTIONS[problem.solution]), out)
    return np.exp(E, out=E)


def exact_solution(problem: PdeProblem, X: np.ndarray) -> np.ndarray:
    """u_exact(x) = (1 - ||x||^2) * sum_j c_j * exp(x_j ... x_{j+k-1}), in float64."""
    X = np.atleast_2d(X)
    return boundary_factor(X) * (_interaction_terms(problem, X) @ problem.coeffs)


def _core_jets_at_dim(problem: PdeProblem, X: np.ndarray, i: int):
    """(dS/dx_i, d2S/dx_i^2) of the interaction sum S, shape (B,) each.

    Each window j that holds x_i adds c_j p e and c_j p^2 e, with e its
    term exp(x_j ... x_{j+k-1}) and p the product of its other coordinates.
    """
    c, d = problem.coeffs, problem.dim
    k = SOLUTIONS[problem.solution]
    d1, d2 = np.zeros((2, X.shape[0]))
    for j in range(max(0, i - k + 1), min(d - k, i) + 1):
        window = [X[:, j + t] for t in range(k)]
        e = np.exp(np.prod(window, axis=0))
        partner = np.prod([x for t, x in enumerate(window) if j + t != i], axis=0)
        d1 += c[j] * partner * e
        d2 += c[j] * partner**2 * e
    return d1, d2


class ExactSolutionView:
    """The closed-form solution as the network's stand-in in the loss pipeline.

    The loss reads a view only through ``jet_eval``, so this view can take a
    network view's place in :func:`sampled_operator` and
    :func:`stochastic_loss`, where it must drive the residual to zero: the
    manufactured-solution consistency checks.  It computes in float64
    whatever the batch's dtype, as :func:`rhs_eval` does; its jets widen a
    float32 batch first, which is exact.
    """

    def __init__(self, problem: PdeProblem):
        self.problem = problem

    def jet_eval(self, X: np.ndarray, dims, sizes) -> tuple[np.ndarray, np.ndarray]:
        """Values and, per consecutive index set of ``sizes``, sum_i d2u/dx_i^2.

        ``sizes`` may be the :class:`~sdze.net.IndexSets` of ``X`` and
        ``dims``, and a direction index outside [0, d) raises ``ValueError``,
        as for the network's views (:func:`sdze.net.index_sets`).
        """
        sets = index_sets(X, dims, sizes)
        X, phi = sets.X.astype(np.float64, copy=False), sets.phi
        S = _interaction_terms(self.problem, X) @ self.problem.coeffs
        d2 = np.empty((sets.dims.size, X.shape[0]))
        for j, i in enumerate(sets.dims):
            s1, s2 = _core_jets_at_dim(self.problem, X, int(i))
            d2[j] = phi * s2 - 4.0 * X[:, i] * s1 - 2.0 * S
        return phi * S, np.add.reduceat(d2, sets.starts, axis=0)


def rhs_eval(problem: PdeProblem, X: np.ndarray, work=None, phi=None) -> np.ndarray:
    """f(x) = Laplacian of u_exact plus the pointwise nonlinearity, closed form.

    With u = phi*S, phi = 1 - ||x||^2:
    Lap u = phi*Lap S - 4 x . grad S - 2 d S, all vectorized over the batch.
    Over the windows, Lap S = sum_j c_j E_j sum_t (prod_{s != t} x_s)^2, the
    one plane formed per k, and x . grad S = sum_j c_j k (x_j ... x_{j+k-1}) E_j.
    Each term is formed in place, at most two B x n_coeffs buffers at a time,
    with the operations of the closed form in their order.  It computes in
    float64 from a batch of either dtype, with no float64 copy of a float32
    batch: f is the rhs at the batch's exact points, bitwise that of its
    float64 widening.  With ``work`` (:mod:`sdze.workspace`) the planes are
    its buffers.  ``phi``, a float64 array of B values, when given receives
    phi, bitwise :func:`sdze.net.boundary_factor` of X.
    """
    X = np.atleast_2d(X)
    d = problem.dim
    c = problem.coeffs
    B, n, k = X.shape[0], coefficient_count(problem.solution, d), SOLUTIONS[problem.solution]
    x = _windows(X, k)

    def plane(i, cols=n):  # XX, then U, die before E takes their buffer
        return work and work.take(i, (B, cols), np.float64)

    XX = np.multiply(X, X, out=plane(0, d), dtype=np.float64)
    phi = np.subtract(1.0, np.sum(XX, axis=1), out=phi)
    if k == 2:  # x1 * x1 + x2 * x2
        T = np.add(XX[:, :-1], XX[:, 1:], out=plane(1))
        del XX
    else:  # (x2 * x3) ** 2 + (x1 * x3) ** 2 + (x1 * x2) ** 2
        del XX
        T = np.multiply(x[1], x[2], out=plane(1), dtype=np.float64)
        U = np.multiply(x[0], x[2], out=plane(0), dtype=np.float64)
        T *= T
        U *= U
        T += U
        np.multiply(x[0], x[1], out=U, dtype=np.float64)
        U *= U
        T += U
        del U
    E = _interaction_terms(problem, X, plane(0))
    T *= E
    lap_S = T @ c
    _window_products(x, T)  # k * ((x1 ... xk) * E)
    T *= E
    T *= float(k)
    x_grad_S = T @ c
    S = E @ c
    lap_u = phi * lap_S - 4.0 * x_grad_S - 2.0 * d * S
    return lap_u + problem.nonlinearity(phi * S)


# --- sampling records and the stochastic loss --------------------------------


@dataclass(frozen=True)
class SpatialSample:
    """Keys of a seed-locked spatial sample: collocation batch + two dim-index sets.

    Everything regenerates bit-identically from the stored key fields.
    :func:`draw_sample` draws it once, and every loss evaluation of a step
    reads that one draw, which is what locks the random measure across the
    +eps and -eps evaluations.  ``set_replicate`` only enters the index-set
    keys: the unlocked ablation's minus pass reads :meth:`unlocked`, whose
    sets come from replicate 1, and shares the collocation batch.

    ``dtype``, float64 or float32, is the dtype the batch is drawn and held
    in: a run's step dtype.  It picks the draw's layout
    (:meth:`RngStream.normals`), so it is part of :attr:`batch_key`: the two
    dtypes' batches of one key are different points, not roundings of one.
    """

    master: int
    step: int
    B: int
    b: int
    d: int
    set_replicate: int = 0
    collocation_step: int | None = None  # defaults to step; lets studies pin the batch
    dtype: np.dtype = np.dtype(np.float64)

    def __post_init__(self):
        dtype = np.dtype(self.dtype)
        if dtype not in (np.float64, np.float32):
            raise ValueError(f"a batch is float64 or float32, not {dtype}")
        object.__setattr__(self, "dtype", dtype)

    @property
    def batch_key(self) -> tuple[int, int, int, int, np.dtype]:
        """(master, step, B, d, dtype) of the collocation batch; equal keys, equal batch."""
        at = self.step if self.collocation_step is None else self.collocation_step
        return self.master, at, self.B, self.d, self.dtype

    def unlocked(self) -> SpatialSample:
        """The unlocked minus pass's sample: this batch, index sets of replicate 1."""
        return replace(self, set_replicate=1)

    def points(self, work=None) -> np.ndarray:
        """The B x d collocation batch, drawn in :attr:`dtype`; in ``work``'s buffer,
        and with its scratch, when one is given (:mod:`sdze.workspace`)."""
        master, at, B, d, dtype = self.batch_key
        stream = derive_stream(StreamKey(master, Role.COLLOCATION, at, 0))
        return sample_unit_ball(stream, B, d, dtype, work)

    def _set(self, role: Role, size: int) -> np.ndarray:
        stream = derive_stream(
            StreamKey(self.master, role, self.step, self.set_replicate)
        )
        # index sets are sets: canonical order makes term summation
        # order-independent (two draws of the same subset evaluate bit-equal)
        return np.sort(sample_index_set(stream, self.d, size))

    def set1(self) -> np.ndarray:
        return self._set(Role.DIM_SET_1, self.b)

    def set2(self) -> np.ndarray:
        return self._set(Role.DIM_SET_2, self.b)


@dataclass(frozen=True)
class DrawnSample:
    """A :class:`SpatialSample` drawn for a problem: its batch, f(X) and both index sets.

    X is in the sample's dtype; f is float64 whatever that is, the rhs at
    X's exact values (:func:`rhs_eval`).  Made by :func:`draw_sample`, which
    also forms every term of the draw that no pair or sign changes: the
    index sets' terms (``sets``, :class:`~sdze.net.IndexSets`: the split of
    ``dims`` into I1 then I2, its offsets, 2|I|, X[:, I] in float64 and
    phi, from the rhs's squares of X),
    each set's operator scale N_L/|I| as a float64 column, which multiplies
    the float64 set sums of every view as it is, and the loss denominator
    2 B kappa.  The arrays are read-only, so every loss evaluation that
    shares the draw reads the same bits, and a pass forms none of them: it
    only does the arithmetic of its sign.  ``dims``, I1 then I2, is the
    direction list of the loss's one jet sweep; I1 is its first ``b``
    entries.
    """

    sample: SpatialSample
    f: np.ndarray
    sets: IndexSets
    scale: np.ndarray  # (2, 1) float64: N_L/|I| of each set
    denom: float  # 2 B kappa

    @property
    def X(self) -> np.ndarray:
        return self.sets.X

    @property
    def dims(self) -> np.ndarray:
        return self.sets.dims


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _set_scale(problem: PdeProblem, sets: IndexSets) -> np.ndarray:
    """N_L/|I| of each set of ``sets``, a read-only float64 column."""
    return _read_only(np.array([problem.n_terms / k for k in sets.sizes])[:, None])


def draw_sample(
    problem: PdeProblem, sample: SpatialSample, batch: DrawnSample | None = None, work=None
) -> DrawnSample:
    """Draw ``sample`` once: its batch, the closed-form rhs on it, and its index sets.

    The batch is drawn and held in ``sample.dtype``, and the rhs is float64,
    formed from the batch's exact values; the rhs's squares of X give phi
    too.  ``batch``, a draw with the same :attr:`SpatialSample.batch_key`,
    lends its X, f and phi, so only the index sets and their terms are
    formed: the unlocked minus pass and the replicates of a pinned batch
    share one batch this way.  With ``work``
    (:mod:`sdze.workspace`) the batch and the draw's and the rhs's scratch
    are its buffers, so the draw lives until the workspace's next draw.
    """
    if batch is None:
        X = _read_only(sample.points(work))
        phi = np.empty(sample.B)
        f = _read_only(rhs_eval(problem, X, work, phi))
    elif batch.sample.batch_key != sample.batch_key:
        raise ValueError(
            f"batch {batch.sample.batch_key} is not the batch {sample.batch_key} of the sample"
        )
    else:
        X, f, phi = batch.X, batch.f, batch.sets.phi
    dims = _read_only(np.concatenate([sample.set1(), sample.set2()]))
    sets = index_sets(X, dims, (sample.b, sample.b), phi)
    denom = 2.0 * sample.B * problem.kappa
    return DrawnSample(sample, f, sets, _set_scale(problem, sets), denom)


def _operator(view, problem: PdeProblem, sets: IndexSets, scale: np.ndarray) -> np.ndarray:
    """:func:`sampled_operator` over formed ``sets``, with their ``scale`` column."""
    u, sums = view.jet_eval(sets.X, sets.dims, sets)
    op = scale * sums
    # Poisson has no nonlinearity; adding zeros could only turn -0.0 into +0.0
    return op if problem.kind == "none" else op + problem.nonlinearity(u)[..., None, :]


def sampled_operator(view, problem: PdeProblem, X: np.ndarray, dims, sizes) -> np.ndarray:
    """(N_L/|I|) * sum_{i in I} d2u/dx_i^2 + nonlinearity(u), one row per index set.

    ``dims`` is split into consecutive index sets of ``sizes``, and every set
    is read off one jet sweep (one primal pass).  Only the differential part
    is subsampled; a repeated index counts with multiplicity.  Returns shape
    (len(sizes), B), or (S, len(sizes), B) for a view of a stack of S signs.
    The call forms the sets' terms once
    (:func:`sdze.net.index_sets`) and hands them to the view, as
    :func:`stochastic_loss` hands those of its draw.  Each set's scale
    N_L/|I| is a float64 column, and every view's sums are float64 (the
    precision contract of :mod:`sdze.net`), so the scale multiplies them as
    it is.
    """
    sets = index_sets(X, dims, sizes)
    return _operator(view, problem, sets, _set_scale(problem, sets))


def stochastic_loss(view, problem: PdeProblem, drawn: DrawnSample):
    """Doubly-sampled scalar residual loss over a draw of ``problem``; only reads ``drawn``.

    (1 / (2 B kappa)) * sum_n (op_{I1}(x_n) - f(x_n)) (op_{I2}(x_n) - f(x_n)),
    with f evaluated in full closed form when the sample was drawn.  Both
    operators come from one jet sweep over ``drawn.dims``; the index sets'
    terms, the scales and 2 B kappa are the draw's (:class:`DrawnSample`),
    so the pass forms nothing that its sign does not change.  Returns a
    float; a view of a stack of signs (:class:`sdze.net.PerturbView`) gives
    a tuple of them, one per sign in the stack's order, from its one sweep,
    each with the bits its sign alone gives (one ``np.dot`` per sign).
    """
    r = _operator(view, problem, drawn.sets, drawn.scale) - drawn.f
    if r.ndim == 2:
        return float(np.dot(r[0], r[1]) / drawn.denom)
    return tuple([float(np.dot(r[s, 0], r[s, 1]) / drawn.denom) for s in range(len(r))])


# test points per row block of relative_l2.  Blocks must start at multiples
# of it and hold no fewer rows: blocks of 1, 3 or 5 rows, and blocks of ~286
# rows at d = 333, round the network or the exact solution differently from
# the whole batch (BLAS small-M and edge paths).  Each thread that evaluates
# holds at most one block at a time
EVAL_ROWS = 256


def relative_l2(params: MlpParams, problem: PdeProblem, test_key: StreamKey, n_test: int) -> float:
    """Relative L2 error of the network ``params`` against the exact solution.

    ``params`` is a :class:`~sdze.net.MlpParams`; anything else raises
    ``TypeError``.  The error is taken on regenerated test points.

    The n_test x d test batch of ``test_key``'s stream (:func:`sample_unit_ball`)
    is drawn, evaluated and scored in row blocks that start at multiples of
    ``EVAL_ROWS``: each holds ``EVAL_ROWS`` points but the last, which takes
    the rest, so it holds ``EVAL_ROWS`` to 2 ``EVAL_ROWS`` - 1 of them, or
    all n_test when there are fewer than 2 ``EVAL_ROWS``.  Block [a, a + k)
    is read from the stream at the word offsets of the :mod:`sdze.rng`
    docstring (:func:`ball_rows`): its normals from word 2 floor(a d / 2),
    dropping the first when a d is odd, and its radii from word
    2 ceil(n_test d / 2) + a.  Only the network's and the exact solution's
    n_test values are held whole, so the evaluation holds them and at most
    one block per thread.  The result has the bits of scoring the whole
    batch at once.

    The evaluation builds one plain view of ``params``, which holds no
    workspace and caches nothing of a block's writable X, and scores each
    block's ansatz values on it (:func:`sdze.net.ansatz`).  When there are
    two blocks or more and :func:`sdze.worker.may_share` holds, this thread
    and the worker take the blocks from one queue, the largest (the last)
    first, each writing only its own rows of the values.  Every block does
    the same arithmetic on either thread, so the bits do not change; an
    error is raised once both threads have stopped.
    """
    if not isinstance(params, MlpParams):
        raise TypeError(f"params must be MlpParams, got {type(params).__name__}")
    if isinstance(n_test, bool) or not isinstance(n_test, (int, np.integer)) or n_test < 1:
        raise ValueError(f"n_test must be an integer >= 1, got {n_test!r}")
    view = plain_view(params)
    stream = derive_stream(test_key)
    u_hat, u_ex = np.empty(n_test), np.empty(n_test)
    starts = range(0, max(n_test - EVAL_ROWS, 0) + 1, EVAL_ROWS)
    blocks = list(zip(starts, [*starts[1:], n_test]))

    def evaluate(block):
        a, b = block
        X = ball_rows(stream, n_test, problem.dim, a, b - a)
        u_hat[a:b] = ansatz(view, X)[:, 0]
        u_ex[a:b] = exact_solution(problem, X)

    if len(blocks) > 1 and worker.may_share():
        worker.share(evaluate, blocks[-1:] + blocks[:-1])
    else:
        for block in blocks:
            evaluate(block)
    denom = float(np.dot(u_ex, u_ex))
    if denom == 0.0:
        raise ValueError("degenerate metric: exact solution vanishes on the test set")
    diff = np.subtract(u_hat, u_ex, out=u_hat)
    return float(np.sqrt(np.dot(diff, diff) / denom))
