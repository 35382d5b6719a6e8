"""PDE problems, the randomized spatial operator, and the stochastic loss.

Operators act on the unit ball with a hardened zero boundary.  The Laplacian
is decomposed into d per-dimension second-derivative terms; the randomized
operator sums a uniformly sampled subset of terms scaled by d/|I|, and the
scalar loss pairs two independently subsampled operator evaluations so the
product is an unbiased estimator of the squared residual.  Pointwise
nonlinearities ride along unsampled (they cost O(1)).

Ground truth is manufactured: the right-hand side is the full operator
applied to a closed-form solution, evaluated analytically (never through the
network), so solution error is measurable exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .net import MlpParams, plain_view, set_starts
from .rng import Role, RngStream, StreamKey, derive_stream, sample_index_set

NONLINEARITIES = ("none", "allen_cahn", "sine_gordon")
SOLUTIONS = ("two_body", "three_body")


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
    # degenerate construction for variance studies: every term aliases the
    # first coordinate's second derivative (zero term-to-term variance)
    alias_terms: bool = False

    def __post_init__(self):
        if self.kind not in NONLINEARITIES:
            raise ValueError(f"unknown pde kind {self.kind!r}")
        if self.solution not in SOLUTIONS:
            raise ValueError(f"unknown solution tag {self.solution!r}")
        if self.normalization not in ("raw", "dim_normalized"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        need = self.dim - 1 if self.solution == "two_body" else self.dim - 2
        if need < 1:
            raise ValueError(
                f"{self.solution} needs dim >= {2 if self.solution == 'two_body' else 3}"
            )
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
    n = dim - 1 if solution == "two_body" else dim - 2
    if n < 1:
        raise ValueError(f"{solution} needs dim >= {2 if solution == 'two_body' else 3}")
    stream = derive_stream(StreamKey(master, Role.SOLUTION_COEFFS, 0, 0))
    return PdeProblem(dim, kind, solution, stream.normals(n), normalization)


def sample_unit_ball(stream: RngStream, B: int, d: int) -> np.ndarray:
    """Uniform points in the unit ball: x = U^(1/d) * g / ||g||."""
    if B < 1 or d < 1:
        raise ValueError("B and d must be >= 1")
    g = stream.normals(B * d).reshape(B, d)
    rho = stream.uniforms(B) ** (1.0 / d)
    X = g * (rho / np.linalg.norm(g, axis=1))[:, None]
    return X


# --- closed-form solution machinery ----------------------------------------


def _interaction_terms(problem: PdeProblem, X: np.ndarray) -> np.ndarray:
    """exp of the pair/triple coordinate products, shape (B, n_coeffs)."""
    if problem.solution == "two_body":
        E = np.exp(X[:, :-1] * X[:, 1:])
    else:
        E = np.exp(X[:, :-2] * X[:, 1:-1] * X[:, 2:])
    return E


def exact_solution(problem: PdeProblem, X: np.ndarray) -> np.ndarray:
    """u_exact(x) = (1 - ||x||^2) * sum_i c_i * exp(interaction_i)."""
    X = np.atleast_2d(X)
    phi = 1.0 - np.sum(X * X, axis=1)
    return phi * (_interaction_terms(problem, X) @ problem.coeffs)


def _core_jets_at_dim(problem: PdeProblem, X: np.ndarray, i: int):
    """(dS/dx_i, d2S/dx_i^2) of the interaction sum S, shape (B,) each."""
    c, d = problem.coeffs, problem.dim
    B = X.shape[0]
    d1 = np.zeros(B)
    d2 = np.zeros(B)
    if problem.solution == "two_body":
        if i <= d - 2:
            e = np.exp(X[:, i] * X[:, i + 1])
            d1 += c[i] * X[:, i + 1] * e
            d2 += c[i] * X[:, i + 1] ** 2 * e
        if i >= 1:
            e = np.exp(X[:, i - 1] * X[:, i])
            d1 += c[i - 1] * X[:, i - 1] * e
            d2 += c[i - 1] * X[:, i - 1] ** 2 * e
        return d1, d2
    for j in range(max(0, i - 2), min(d - 3, i) + 1):
        trip = [X[:, j], X[:, j + 1], X[:, j + 2]]
        e = np.exp(trip[0] * trip[1] * trip[2])
        partner = np.prod([trip[t] for t in range(3) if j + t != i], axis=0)
        d1 += c[j] * partner * e
        d2 += c[j] * partner**2 * e
    return d1, d2


class ExactSolutionView:
    """Closed-form solution behind the same surface as the network views.

    Substituting it for the network anywhere in the loss pipeline must drive
    the residual to zero; used for manufactured-solution consistency checks.
    """

    def __init__(self, problem: PdeProblem):
        self.problem = problem

    def values(self, X: np.ndarray) -> np.ndarray:
        return exact_solution(self.problem, X)

    def jet_eval(self, X: np.ndarray, dims, sizes) -> tuple[np.ndarray, np.ndarray]:
        """Values and, per consecutive index set of ``sizes``, sum_i d2u/dx_i^2."""
        X = np.atleast_2d(X)
        dims = np.asarray(dims, dtype=np.int64)
        starts = set_starts(sizes, dims.size)
        phi = 1.0 - np.sum(X * X, axis=1)
        S = _interaction_terms(self.problem, X) @ self.problem.coeffs
        d2 = np.empty((dims.size, X.shape[0]))
        for j, i in enumerate(dims):
            s1, s2 = _core_jets_at_dim(self.problem, X, int(i))
            d2[j] = phi * s2 - 4.0 * X[:, i] * s1 - 2.0 * S
        return phi * S, np.add.reduceat(d2, starts, axis=0)


def rhs_eval(problem: PdeProblem, X: np.ndarray) -> np.ndarray:
    """f(x) = Laplacian of u_exact plus the pointwise nonlinearity, closed form.

    With u = phi*S, phi = 1 - ||x||^2:
    Lap u = phi*Lap S - 4 x . grad S - 2 d S, all vectorized over the batch.
    """
    X = np.atleast_2d(X)
    d = problem.dim
    c = problem.coeffs
    phi = 1.0 - np.sum(X * X, axis=1)
    E = _interaction_terms(problem, X)
    if problem.solution == "two_body":
        x1, x2 = X[:, :-1], X[:, 1:]
        lap_S = ((x1 * x1 + x2 * x2) * E) @ c
        x_grad_S = 2.0 * ((x1 * x2) * E) @ c
    else:
        x1, x2, x3 = X[:, :-2], X[:, 1:-1], X[:, 2:]
        lap_S = (((x2 * x3) ** 2 + (x1 * x3) ** 2 + (x1 * x2) ** 2) * E) @ c
        x_grad_S = 3.0 * ((x1 * x2 * x3) * E) @ c
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
    """

    master: int
    step: int
    B: int
    b: int
    d: int
    set_replicate: int = 0
    collocation_step: int | None = None  # defaults to step; lets studies pin the batch

    @property
    def batch_key(self) -> tuple[int, int, int, int]:
        """(master, step, B, d) of the collocation batch; equal keys, equal batch."""
        at = self.step if self.collocation_step is None else self.collocation_step
        return self.master, at, self.B, self.d

    def unlocked(self) -> SpatialSample:
        """The unlocked minus pass's sample: this batch, index sets of replicate 1."""
        return replace(self, set_replicate=1)

    def points(self) -> np.ndarray:
        master, at, B, d = self.batch_key
        stream = derive_stream(StreamKey(master, Role.COLLOCATION, at, 0))
        return sample_unit_ball(stream, B, d)

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
    """A :class:`SpatialSample` drawn: the batch X, f(X) and both index sets.

    Made by :func:`draw_sample`.  The arrays are read-only, so every loss
    evaluation that shares the draw reads the same bits, and a network pass
    may reuse what it formed from them.  ``dims`` holds I1 then I2, the
    direction list of the loss's one jet sweep.
    """

    sample: SpatialSample
    X: np.ndarray
    f: np.ndarray
    dims: np.ndarray

    @property
    def I1(self) -> np.ndarray:
        return self.dims[: self.sample.b]

    @property
    def I2(self) -> np.ndarray:
        return self.dims[self.sample.b :]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def draw_sample(
    problem: PdeProblem, sample: SpatialSample, batch: DrawnSample | None = None
) -> DrawnSample:
    """Draw ``sample`` once: its batch, the closed-form rhs on it, and its index sets.

    ``batch``, a draw with the same :attr:`SpatialSample.batch_key`, lends its
    X and f, so only the index sets are drawn: the unlocked minus pass and
    the replicates of a pinned batch share one batch this way.  An
    ``alias_terms`` problem has every index replaced by 0.
    """
    if batch is None:
        X = _read_only(sample.points())
        f = _read_only(rhs_eval(problem, X))
    elif batch.sample.batch_key != sample.batch_key:
        raise ValueError(
            f"batch {batch.sample.batch_key} is not the batch {sample.batch_key} of the sample"
        )
    else:
        X, f = batch.X, batch.f
    dims = np.concatenate([sample.set1(), sample.set2()])
    if problem.alias_terms:
        dims[:] = 0
    return DrawnSample(sample, X, f, _read_only(dims))


def sampled_operator(view, problem: PdeProblem, X: np.ndarray, I) -> np.ndarray:
    """(N_L/|I|) * sum_{i in I} d2u/dx_i^2 + nonlinearity(u), per point.

    Only the differential part is subsampled; repeated indices (allowed by
    with-replacement draws in the theory checks) count with multiplicity.
    """
    I = np.asarray(I, dtype=np.int64)
    if I.size == 0:
        raise ValueError("index set must be non-empty")
    if problem.alias_terms:
        I = np.zeros_like(I)
    u, sums = view.jet_eval(np.atleast_2d(X), I, [I.size])
    return (problem.n_terms / I.size) * sums[0] + problem.nonlinearity(u)


def stochastic_loss(view, problem: PdeProblem, drawn: DrawnSample) -> float:
    """Doubly-sampled scalar residual loss over a drawn batch; only reads ``drawn``.

    (1 / (2 B kappa)) * sum_n (op_{I1}(x_n) - f(x_n)) (op_{I2}(x_n) - f(x_n)),
    with f evaluated in full closed form when the sample was drawn.  The two
    operator evaluations share one jet sweep (one primal pass) over the
    concatenated direction sets, which returns each set's summed second
    derivatives.
    """
    I1, I2 = drawn.I1, drawn.I2
    u, sums = view.jet_eval(drawn.X, drawn.dims, [I1.size, I2.size])
    nl = problem.nonlinearity(u)
    scale = problem.n_terms
    r1 = (scale / I1.size) * sums[0] + nl - drawn.f
    r2 = (scale / I2.size) * sums[1] + nl - drawn.f
    return float(np.dot(r1, r2) / (2.0 * drawn.sample.B * problem.kappa))


def relative_l2(view_or_params, problem: PdeProblem, test_key: StreamKey, n_test: int) -> float:
    """Relative L2 error against the exact solution on regenerated test points."""
    if n_test < 1:
        raise ValueError("n_test must be >= 1")
    view = (
        plain_view(view_or_params)
        if isinstance(view_or_params, MlpParams)
        else view_or_params
    )
    X = sample_unit_ball(derive_stream(test_key), n_test, problem.dim)
    u_hat = view.values(X)
    u_ex = exact_solution(problem, X)
    denom = float(np.dot(u_ex, u_ex))
    if denom == 0.0:
        raise ValueError("degenerate metric: exact solution vanishes on the test set")
    diff = u_hat - u_ex
    return float(np.sqrt(np.dot(diff, diff) / denom))

