"""Theory checks: brute-force oracles, the variance sweep, and the verify suites.

The oracles are independent of the training path: dense explicit
materialization of the per-layer perturbation (:func:`explicit_delta_w`,
:func:`explicit_forward`, :func:`explicit_jets`, :func:`build_projection`),
coordinate-wise finite differences (:func:`brute_force_gradient`), and exact
enumeration over with-replacement draws (:func:`variance_law_check`,
:func:`unbiasedness_check`).  Agreement between these oracles and the
implicit kernels is evidence, not tautology.  :func:`quadratic_identity_check`
and :func:`mean_bias_check` evaluate closed-form losses along the dense
projection.

:func:`crns_variance_sweep` is not an oracle: it runs the training estimator,
``optimizer.directional_delta`` on a ``SignPair``, to measure its variance
over the spatial measure.  It lives here because the crns suite and
``sdze ablate-crns`` call it, and the benchmark in ``perfbench/`` binds it,
``directional_delta`` and ``sample_core`` under this module.

Each ``sdze verify --suite`` is one function here that builds its own inputs
and pass rules: :func:`quadratic_suite`, :func:`mean_bias_suite`,
:func:`variance_law_suite`, :func:`unbiasedness_check`, :func:`crns_suite`,
:func:`jets_suite` and :func:`implicit_suite`.  The acceptance criteria call
the same functions; :mod:`sdze.cli` names the criterion each suite reproduces.

The "backprop gradient" referenced by the identities is realized by the
finite-difference oracle; the artifact has no reverse mode by design.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import product

import numpy as np

from .net import (
    JET_CHUNK,
    MlpParams,
    SignPair,
    activation_triple,
    ansatz,
    init_mlp,
    jet_sums,
    plain_view,
    sign_views,
)
from .optimizer import DTYPES, directional_delta, step_cores
from .rng import Role, StreamKey, derive_stream
from .spatial import (
    ExactSolutionView,
    PdeProblem,
    SpatialSample,
    draw_sample,
    make_problem,
    rhs_eval,
    sample_unit_ball,
    sampled_operator,
    stochastic_loss,
)
from .subspace import LayerSubspace, sample_core, subspace_for_layer

FD_STEP = 1e-5  # oracle step for coordinate-wise central differences

# Monte Carlo draws of the quadratic and mean-bias suites
SAMPLES = 100_000
# the quadratic suite's cases: (subspace dimension q, rank r, layer shapes)
QUADRATIC_CASES = ((4, 2, [(2, 4)]), (16, 4, [(8, 8)]))
# the crns suite's sweep: dimension, index-set size, replicates and eps values
CRNS_DIM, CRNS_B, CRNS_REPS = 100, 5, 500
CRNS_EPS = (1e-1, 1e-2, 1e-3, 1e-4)


@dataclass
class IdentityReport:
    name: str
    theoretical: float
    empirical: float
    n_samples: int
    rel_deviation: float
    passed: bool

    def row(self) -> dict:
        return asdict(self)

    @classmethod
    def within(
        cls, name: str, theoretical: float, empirical: float, n_samples: int, tol: float
    ) -> IdentityReport:
        """The report that passes when |empirical - theoretical| <= tol."""
        dev = abs(empirical - theoretical)
        return cls(name, theoretical, empirical, n_samples, dev, dev <= tol)


# --- explicit oracles -------------------------------------------------------


def explicit_delta_w(state: LayerSubspace, Z: np.ndarray) -> np.ndarray:
    """Densely materialized T^-1(U Z V^T) via column-major reshape."""
    return np.reshape(state.U @ Z @ state.V.T, state.plan.orig, order="F")


def explicit_forward(
    params: MlpParams,
    X: np.ndarray,
    deltas: list[np.ndarray] | None = None,
    sign: int = 0,
    eps: float = 0.0,
) -> np.ndarray:
    """Dense forward with explicitly perturbed weights.

    With the bias extension every layer input gets a constant-1 column.
    """
    f = activation_triple(params.activation)[0]
    H = X
    for l, W in enumerate(params.weights):
        Wp = W if sign == 0 else W + sign * eps * deltas[l]
        if params.bias:
            H = np.hstack([H, np.ones((len(H), 1))])
        H = H @ Wp
        if l < params.depth - 1:
            H = f(H)
    return H


def explicit_jets(
    params: MlpParams,
    X: np.ndarray,
    dims,
    deltas: list[np.ndarray] | None = None,
    sign: int = 0,
    eps: float = 0.0,
):
    """Dense order-2 jets of the hardened ansatz with one-hot seeds.

    With the bias extension every layer input gets a constant-1 column (zero
    in the tangent planes).  Returns u (B,) and the pure second derivatives
    d2u/dx_i^2, shape (len(dims), B).
    """
    f, f1, f2 = activation_triple(params.activation)
    X = np.atleast_2d(X)
    B = X.shape[0]
    dims = np.asarray(dims, dtype=np.int64)
    d2_out = np.empty((dims.size, B))
    u_out = None
    for j, i in enumerate(dims):
        val = X.copy()
        d1 = np.zeros_like(X)
        d1[:, i] = 1.0
        d2 = np.zeros_like(X)
        for l, W in enumerate(params.weights):
            Wp = W if sign == 0 else W + sign * eps * deltas[l]
            if params.bias:
                val = np.hstack([val, np.ones((B, 1))])
                d1 = np.hstack([d1, np.zeros((B, 1))])
                d2 = np.hstack([d2, np.zeros((B, 1))])
            val, d1, d2 = val @ Wp, d1 @ Wp, d2 @ Wp
            if l < params.depth - 1:
                s1, s2 = f1(val), f2(val)
                val, d1, d2 = f(val), s1 * d1, s2 * d1 * d1 + s1 * d2
        g, g1, g2 = val[:, 0], d1[:, 0], d2[:, 0]
        phi = 1.0 - (X * X).sum(axis=1)
        xi = X[:, i]
        u_out = phi * g
        d2_out[j] = phi * g2 - 4.0 * xi * g1 - 2.0 * g
    return u_out, d2_out


def flatten_params(params: MlpParams) -> np.ndarray:
    """Global parameter vector: column-major vec of each layer, concatenated."""
    return np.concatenate([W.reshape(-1, order="F") for W in params.weights])


def unflatten_params(theta: np.ndarray, like: MlpParams) -> MlpParams:
    weights = []
    at = 0
    for W in like.weights:
        weights.append(theta[at : at + W.size].reshape(W.shape, order="F").copy())
        at += W.size
    return MlpParams(weights, like.activation, like.bias)


def build_projection(subspaces: list[LayerSubspace]) -> np.ndarray:
    """Desk-scale materialization of the block-diagonal Kronecker projection."""
    blocks = [np.kron(s.V, s.U) for s in subspaces]
    P = sum(b.shape[0] for b in blocks)
    q = sum(b.shape[1] for b in blocks)
    out = np.zeros((P, q))
    i = j = 0
    for b in blocks:
        out[i : i + b.shape[0], j : j + b.shape[1]] = b
        i += b.shape[0]
        j += b.shape[1]
    return out


def brute_force_gradient(loss_fn, theta: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Coordinate-wise central differences; the stand-in for backprop."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.size > 10**4:
        raise ValueError("parameter count too large to enumerate")
    grad = np.empty_like(theta)
    for k in range(theta.size):
        step = np.zeros_like(theta)
        step[k] = h
        fp = loss_fn(theta + step)
        fm = loss_fn(theta - step)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise FloatingPointError(f"non-finite loss at coordinate {k}")
        grad[k] = (fp - fm) / (2.0 * h)
    return grad


# --- quadratic / smooth-loss identities --------------------------------------


def _subspaces_for_shapes(
    shapes: list[tuple[int, int]], r: int, master: int
) -> list[LayerSubspace]:
    return [subspace_for_layer(master, l, m, n, r) for l, (m, n) in enumerate(shapes)]


def quadratic_identity_check(
    H: np.ndarray,
    theta: np.ndarray,
    r: int,
    layer_shapes: list[tuple[int, int]],
    n_samples: int,
    master: int = 0,
    eps: float = 1e-3,
    tol_mean: float = 0.02,
    tol_second: float = 0.05,
    tol_cosine: float = 0.10,
) -> list[IdentityReport]:
    """Monte Carlo checks of the three quadratic-loss identities.

    On L(theta) = theta^T H theta the estimate delta*(Pz) has mean exactly
    P P^T grad, second moment (q+2) ||P^T grad||^2, and its squared
    normalized alignment with the gradient averages 1/q.
    """
    P_dim = H.shape[0]
    if sum(m * n for m, n in layer_shapes) != P_dim:
        raise ValueError("layer shapes must tile the parameter dimension")
    subs = _subspaces_for_shapes(layer_shapes, r, master)
    q = sum(s.rank**2 for s in subs)
    if q > P_dim:
        raise ValueError(f"subspace dimension q={q} exceeds P={P_dim}")
    Pmat = build_projection(subs)
    grad = (H + H.T) @ theta
    a = Pmat.T @ grad
    a_norm2 = float(a @ a)

    z = derive_stream(StreamKey(master, Role.CORE_Z, 0, 0)).normals(
        n_samples * q
    ).reshape(n_samples, q)
    v = z @ Pmat.T
    lp = np.einsum("np,pq,nq->n", theta + eps * v, H, theta + eps * v)
    lm = np.einsum("np,pq,nq->n", theta - eps * v, H, theta - eps * v)
    delta = (lp - lm) / (2.0 * eps)
    ghat = delta[:, None] * v

    target_mean = Pmat @ a
    target_norm = float(np.linalg.norm(target_mean))
    grad_norm = float(np.linalg.norm(grad))
    # gradient mass outside the subspace leaves a ~0 target; scale by the
    # full gradient then so "mean ~ 0" is judged against something real
    scale = target_norm if target_norm > 1e-9 * max(grad_norm, 1.0) else max(grad_norm, 1.0)
    dev_mean = float(np.linalg.norm(ghat.mean(axis=0) - target_mean)) / scale
    reports = [
        IdentityReport.within("mean_vs_projected_gradient", 0.0, dev_mean, n_samples, tol_mean)
    ]

    if a_norm2 > (1e-9 * max(grad_norm, 1.0)) ** 2:
        second = float(np.mean(np.einsum("np,np->n", ghat, ghat))) / ((q + 2) * a_norm2)
        reports.append(
            IdentityReport.within("second_moment_over_(q+2)", 1.0, second, n_samples, tol_second)
        )
        inner = ghat @ grad
        g2 = np.einsum("np,np->n", ghat, ghat)
        ok = g2 > 0
        cosine = float(np.mean(inner[ok] ** 2 / (a_norm2 * g2[ok])))
        name = "cosine_alignment_times_q"
        reports.append(IdentityReport.within(name, 1.0, cosine * q, n_samples, tol_cosine))
    return reports


def mean_bias_check(
    theta: np.ndarray,
    r: int,
    layer_shapes: list[tuple[int, int]],
    eps_list: list[float],
    n_samples: int,
    master: int = 0,
) -> tuple[IdentityReport, list[dict]]:
    """O(eps^2) shrinkage of the estimator-mean bias on a quartic loss.

    Loss sum_i theta_i^4 (Hessian diag(12 theta_i^2); its Lipschitz constant
    on the perturbation-reachable box is 24*(max|theta_i| + 1), used for the
    bound row).  Uses common z across eps values and subtracts the
    first-order term (whose mean is the projected gradient, exactly) as a
    control variate, leaving an unbiased low-noise estimate of the bias.
    """
    subs = _subspaces_for_shapes(layer_shapes, r, master)
    q = sum(s.rank**2 for s in subs)
    Pmat = build_projection(subs)
    grad = 4.0 * theta**3
    z = derive_stream(StreamKey(master, Role.CORE_Z, 0, 1)).normals(
        n_samples * q
    ).reshape(n_samples, q)
    v = z @ Pmat.T
    first_order = (v @ grad)[:, None] * v  # mean is exactly P P^T grad

    L2 = 24.0 * (float(np.max(np.abs(theta))) + 1.0)
    rows = []
    devs = []
    for eps in eps_list:
        lp = ((theta + eps * v) ** 4).sum(axis=1)
        lm = ((theta - eps * v) ** 4).sum(axis=1)
        ghat = (((lp - lm) / (2.0 * eps)))[:, None] * v
        dev = float(np.linalg.norm((ghat - first_order).mean(axis=0)))
        bound = (eps**2 / 6.0) * L2 * (q + 4) ** 2
        devs.append(dev)
        rows.append(
            {"eps": eps, "deviation": dev, "bound": bound, "within_bound": dev <= bound}
        )
    ratios = [devs[i] / devs[i + 1] for i in range(len(devs) - 1)]
    scale_ratios = [
        (eps_list[i] / eps_list[i + 1]) ** 2 for i in range(len(eps_list) - 1)
    ]
    worst = max(abs(rr / sr - 1.0) for rr, sr in zip(ratios, scale_ratios))
    passed = all(r for r in (row["within_bound"] for row in rows)) and worst <= 0.25
    report = IdentityReport(
        "mean_bias_eps2_scaling",
        1.0,
        1.0 + worst,
        n_samples,
        worst,
        passed,
    )
    return report, rows


# --- exact enumeration of the spatial sampling laws ---------------------------


def _tiny_setup(master: int, term_dims: list[int], n_points: int = 3):
    """Tiny problem + net + per-(point, term) gradient table.

    Terms are the pure second derivatives along ``term_dims`` (repeats allowed
    to construct aliased operators).  Gradients w.r.t. the flattened
    parameters come from the coordinate-wise finite-difference oracle.
    """
    d = 4
    problem = PdeProblem(d, "none", "two_body", np.array([0.7, -1.1, 0.4]))
    params = init_mlp([d, 3, 1], "sin", master)
    X = sample_unit_ball(
        derive_stream(StreamKey(master, Role.COLLOCATION, 0, 0)), n_points, d
    )
    theta0 = flatten_params(params)
    n_terms = len(term_dims)

    def term_value(theta: np.ndarray, point: int, term: int) -> float:
        p = unflatten_params(theta, params)
        _, sums = plain_view(p).jet_eval(X[point : point + 1], [term_dims[term]], [1])
        return float(sums[0, 0])

    # residuals use the constructed operator Lu = sum_j L_j u
    term_vals = np.array(
        [[term_value(theta0, i, j) for j in range(n_terms)] for i in range(n_points)]
    )
    R_vals = np.array([rhs_eval(problem, X[i : i + 1])[0] for i in range(n_points)])
    resid = term_vals.sum(axis=1) - R_vals
    grads = np.empty((n_points, n_terms, theta0.size))
    for i in range(n_points):
        for j in range(n_terms):
            grads[i, j] = brute_force_gradient(
                lambda th, i=i, j=j: term_value(th, i, j), theta0
            )
    return resid, term_vals, grads, R_vals, n_points, n_terms


def _surrogate_gradient(resid, grads, B_slots, I_slots, n_terms):
    """g_{B,I} for explicit slot lists (with-replacement draws)."""
    acc = np.zeros(grads.shape[-1])
    for n in B_slots:
        acc += resid[n] * grads[n][list(I_slots)].sum(axis=0)
    return acc / (len(B_slots) * len(I_slots) * n_terms)


def _full_batch_gradient(resid, grads, n_points, n_terms):
    g = np.zeros(grads.shape[-1])
    for i in range(n_points):
        g += resid[i] * grads[i].sum(axis=0)
    return g / (n_points * n_terms**2)


def variance_law_check(
    master: int = 0, term_dims: list[int] | None = None
) -> tuple[IdentityReport, dict]:
    """Exact enumeration of the (C1|I| + C2|B| + C3)/(|B||I|) variance law.

    Enumerates every equally likely with-replacement draw for
    (|B|, |I|) in {1,2}^2, fits the three constants from three
    configurations, and checks the fourth against the law.
    """
    term_dims = term_dims if term_dims is not None else [0, 1, 2, 3]
    resid, _, grads, _, n_points, n_terms = _tiny_setup(master, term_dims)
    g_full = _full_batch_gradient(resid, grads, n_points, n_terms)

    def enumerate_var(nB: int, nI: int) -> float:
        total = 0.0
        count = 0
        for B_slots in product(range(n_points), repeat=nB):
            for I_slots in product(range(n_terms), repeat=nI):
                gv = _surrogate_gradient(resid, grads, B_slots, I_slots, n_terms)
                diff = gv - g_full
                total += diff @ diff
                count += 1
        return total / count

    V = {(nB, nI): enumerate_var(nB, nI) for nB, nI in product((1, 2), repeat=2)}
    # Var * |B||I| = C1|I| + C2|B| + C3, solved from three configs
    A = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 1.0], [2.0, 1.0, 1.0]])
    y = np.array([V[(1, 1)], 2.0 * V[(2, 1)], 2.0 * V[(1, 2)]])
    C1, C2, C3 = np.linalg.solve(A, y)
    predicted = (C1 * 2 + C2 * 2 + C3) / 4.0
    tol = 1e-10 * max(1.0, abs(V[(2, 2)]))
    n_draws = sum((n_points**nB) * (n_terms**nI) for nB, nI in V)
    report = IdentityReport.within("variance_law_fourth_point", predicted, V[(2, 2)], n_draws, tol)
    return report, {"C1": C1, "C2": C2, "C3": C3, "variances": V}


def unbiasedness_check(master: int = 0) -> list[IdentityReport]:
    """Enumerated expectations of the sampled gradients equal the full gradient."""
    term_dims = [0, 1, 2, 3]
    resid, term_vals, grads, R_vals, n_points, n_terms = _tiny_setup(master, term_dims)
    g_full = _full_batch_gradient(resid, grads, n_points, n_terms)
    scale = max(1.0, float(np.max(np.abs(g_full))))
    reports = []

    for nB, nI in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        acc = np.zeros_like(g_full)
        count = 0
        for B_slots in product(range(n_points), repeat=nB):
            for I_slots in product(range(n_terms), repeat=nI):
                acc += _surrogate_gradient(resid, grads, B_slots, I_slots, n_terms)
                count += 1
        dev = float(np.max(np.abs(acc / count - g_full))) / scale
        name = f"unbiased_single_B{nB}_I{nI}"
        reports.append(IdentityReport.within(name, 0.0, dev, count, 1e-12))

    # double-sampled variant: residual factor itself subsampled over J
    for nB, nI, nJ in [(1, 1, 1), (2, 1, 2), (1, 2, 1)]:
        acc = np.zeros_like(g_full)
        count = 0
        for B_slots in product(range(n_points), repeat=nB):
            for I_slots in product(range(n_terms), repeat=nI):
                for J_slots in product(range(n_terms), repeat=nJ):
                    gv = np.zeros_like(g_full)
                    for n in B_slots:
                        r_hat = (n_terms / nJ) * sum(
                            term_vals[n][j] for j in J_slots
                        ) - R_vals[n]
                        gv += r_hat * grads[n][list(I_slots)].sum(axis=0)
                    acc += gv / (nB * nI * n_terms)
                    count += 1
        dev = float(np.max(np.abs(acc / count - g_full))) / scale
        name = f"unbiased_double_B{nB}_I{nI}_J{nJ}"
        reports.append(IdentityReport.within(name, 0.0, dev, count, 1e-12))
    return reports


# --- seed-locking variance sweep ---------------------------------------------


def check_eps_list(eps_list) -> None:
    """Refuse eps values a variance sweep cannot fit a slope to.

    The sweep needs at least two values, all distinct, finite and > 0: one
    value leaves the log-log slope undetermined, a repeat writes a row
    twice, and log(eps) is not finite for an eps <= 0 or a non-finite eps.
    """
    values = list(eps_list)
    if (
        len(values) < 2
        or len(set(values)) < len(values)
        or not all(math.isfinite(e) and e > 0 for e in values)
    ):
        raise ValueError(
            f"eps_list must hold at least two values, all distinct, finite and > 0; got {values}"
        )


def check_replicates(replicates: int) -> None:
    """Refuse a replicate count a sample variance cannot be formed from."""
    if replicates < 2:
        raise ValueError(f"need at least 2 replicates, got {replicates}")


def crns_variance_sweep(
    problem: PdeProblem,
    params: MlpParams,
    rank: int,
    eps_list: list[float],
    replicates: int,
    B: int,
    b: int,
    master: int = 0,
    dtype: str = "f64",
) -> tuple[list[dict], float, float]:
    """Sample variance of the directional estimate over the spatial measure.

    Parameters, the perturbation direction (cores), and the collocation batch
    are frozen; replicates vary only the dimension index sets — the spatial
    random measure the variance statements quantify over (they condition on
    the direction and the batch).  Returns rows plus the two log-log slope
    estimates of variance against eps: locked should be flat, unlocked should
    follow eps^-2.

    Replicate k (1..replicates) is ``SpatialSample(master, k, B, b, d,
    collocation_step=0)``: step k keys the index sets, the batch is pinned at
    step 0, and the unlocked minus pass reads its ``.unlocked()`` sample.
    The pinned batch and its rhs are drawn once per call; each replicate
    draws its sets and its unlocked sets once, reads that batch and serves
    every eps.  ``stochastic_loss`` over these samples
    gives the unperturbed loss variance Var_S L of this measure.  Unlocked,
    the two passes see independent sets, so

        Var_naive = Var_S L / (2 eps^2) + Var_crns / 2 + O(1),
        naive / locked ~ 1/2 + Var_S L / (2 eps^2 Var_S d_v L).

    The 1/eps^2 coefficient is what locking cancels; the ratio's size depends
    on the problem, the initialization and the scale of the direction, not on
    locking.  Each estimate runs in ``dtype``, the step dtype of a run.

    The direction is one perturbation per eps: one
    :class:`~sdze.net.SignPair` per eps serves every replicate and both
    modes, so each sign's weights are formed once per eps, and so are the
    pinned batch's products X W_0 and X (eps DW_0).  A naive +eps pass
    reuses the index-set rows its locked estimate formed.  ``eps_list`` is
    checked by :func:`check_eps_list` and ``replicates`` by
    :func:`check_replicates` before any draw.
    """
    check_eps_list(eps_list)
    check_replicates(replicates)
    subs = _subspaces_for_shapes([W.shape for W in params.weights], rank, master)
    cores = step_cores(master, subs, 0)
    pairs = {eps: SignPair(params, subs, cores, eps, DTYPES[dtype]) for eps in eps_list}

    def replicate(k: int) -> SpatialSample:
        return SpatialSample(master, k, B, b, problem.dim, collocation_step=0)

    pinned = draw_sample(problem, replicate(1))
    modes = ("crns", "naive")
    # one list per (mode, eps), filled in replicate order
    acc: dict[tuple[str, float], list[float]] = {
        (mode, eps): [] for eps in eps_list for mode in modes
    }
    for k in range(1, replicates + 1):
        plus = draw_sample(problem, replicate(k), batch=pinned)
        naive = draw_sample(problem, replicate(k).unlocked(), batch=pinned)
        for (mode, eps), deltas in acc.items():
            minus = plus if mode == "crns" else naive
            delta, _, _ = directional_delta(pairs[eps], problem, plus, minus)
            deltas.append(delta)
    variances = {key: float(np.var(np.asarray(d), ddof=1)) for key, d in acc.items()}
    rows = [
        {"mode": mode, "eps": eps, "variance": variances[(mode, eps)]}
        for eps in eps_list
        for mode in modes
    ]
    log_eps = np.log(np.asarray(eps_list))
    slope_crns, slope_naive = (
        float(np.polyfit(log_eps, np.log([variances[(mode, e)] for e in eps_list]), 1)[0])
        for mode in modes
    )
    return rows, slope_crns, slope_naive


# --- verify suites: each builds its inputs and returns (reports, detail) -----


def quadratic_suite(
    master: int, samples: int = SAMPLES
) -> tuple[list[IdentityReport], dict]:
    """Criterion 3: the quadratic identities on each of ``QUADRATIC_CASES``.

    One generator seeded ``master`` draws each case's positive definite H
    and theta in turn; a case's directions are keyed at ``master + q``.  Each
    case adds its :func:`quadratic_identity_check` reports in order.
    """
    rng = np.random.default_rng(master)
    reports = []
    for q, r, shapes in QUADRATIC_CASES:
        P = sum(m * n for m, n in shapes)
        H = rng.standard_normal((P, P))
        H = H @ H.T / P + np.eye(P)
        theta = rng.standard_normal(P)
        reports += quadratic_identity_check(H, theta, r, shapes, samples, master=master + q)
    return reports, {}


def mean_bias_suite(
    master: int, samples: int = SAMPLES
) -> tuple[list[IdentityReport], dict]:
    """The O(eps^2) mean bias on a quartic in 8 parameters, at three eps."""
    theta = np.random.default_rng(master).standard_normal(8) * 0.5
    report, rows = mean_bias_check(
        theta, 2, [(2, 4)], [1e-2, 5e-3, 1e-3], samples, master=master
    )
    return [report], {"rows": rows}


def variance_law_suite(master: int) -> tuple[list[IdentityReport], dict]:
    """The variance law on the standard operator, an aliased one and one term.

    Criterion 4 checks the standard operator.  ``detail`` holds each
    operator's fitted constants and enumerated variances under its tag.
    """
    reports, detail = [], {}
    for tag, dims in (
        ("standard", [0, 1, 2, 3]),
        ("aliased", [0, 0, 0, 0]),
        ("single_term", [0]),
    ):
        rep, info = variance_law_check(master, term_dims=dims)
        rep.name = f"{rep.name}_{tag}"
        reports.append(rep)
        detail[tag] = {
            "C1": info["C1"],
            "C2": info["C2"],
            "C3": info["C3"],
            "variances": {str(k): v for k, v in info["variances"].items()},
        }
    return reports, detail


def crns_suite(
    master: int,
    dim: int = CRNS_DIM,
    b: int = CRNS_B,
    reps: int = CRNS_REPS,
    eps_list=CRNS_EPS,
) -> tuple[list[IdentityReport], dict]:
    """Criterion 5: seed locking cancels the O(1/eps^2) variance of the estimate.

    :func:`crns_variance_sweep` runs on the two_body Poisson problem in
    ``dim`` dimensions, a dim-64-1 sin net at rank 8 and B = 20 points with
    ``b`` dimensions per index set.  The reports pass when

    * the unlocked log-log slope of variance against eps is -2 +- 0.2;
    * the locked slope is 0 +- 0.3;
    * the locked variances spread by at most 2x over ``eps_list``, which
      over three decades forces |locked slope| <= 0.12;
    * at each eps <= 1e-3, 2 eps^2 (Var_naive - Var_crns / 2) / Var_S L lies
      in [0.75, 1.33].  That is the 1/eps^2 coefficient locking cancels (see
      :func:`crns_variance_sweep`), 1 on any problem, while the naive/locked
      ratio depends on the problem.  Over 20 master seeds it has mean 0.97
      and sd 0.054: the lower edge is about 4 sd below the mean, the upper
      edge its reciprocal.  Larger eps are not judged: there the O(1) term
      moves the value by up to 10 % (0.95 and 1.10 at eps = 0.1).

    Var_S L is the variance of the unperturbed loss over the sweep's own
    replicate samples; ``detail`` holds it as ``var_loss`` with the sweep's
    rows and slopes.
    """
    B = 20
    problem = make_problem("none", dim, "two_body", master)
    params = init_mlp([dim, 64, 1], "sin", master)
    rows, slope_crns, slope_naive = crns_variance_sweep(
        problem, params, rank=8, eps_list=eps_list, replicates=reps, B=B, b=b, master=master
    )
    samples = [
        SpatialSample(master, k, B, b, dim, collocation_step=0) for k in range(1, reps + 1)
    ]
    pinned = draw_sample(problem, samples[0])
    view = plain_view(params)
    var_loss = float(
        np.var(
            [stochastic_loss(view, problem, draw_sample(problem, s, batch=pinned)) for s in samples],
            ddof=1,
        )
    )
    v = {(r["mode"], r["eps"]): r["variance"] for r in rows}
    crns_vars = [v[("crns", e)] for e in eps_list]
    spread = max(crns_vars) / min(crns_vars)
    reports = [
        IdentityReport.within("naive_variance_slope", -2.0, slope_naive, reps, 0.2),
        IdentityReport.within("crns_variance_slope", 0.0, slope_crns, reps, 0.3),
        IdentityReport("crns_variance_spread", 1.0, spread, reps, spread - 1.0, spread <= 2.0),
    ]
    for e in eps_list:
        if e <= 1e-3:
            x = 2.0 * e**2 * (v[("naive", e)] - v[("crns", e)] / 2.0) / var_loss
            name = f"cancellation_identity_at_{e:g}"
            reports.append(IdentityReport(name, 1.0, x, reps, abs(x - 1.0), 0.75 <= x <= 1.33))
    detail = {
        "rows": rows,
        "slope_crns": slope_crns,
        "slope_naive": slope_naive,
        "var_loss": var_loss,
    }
    return reports, detail


# --- forward-correctness suites (also driven by the CLI) ----------------------


def jets_suite(master: int = 0) -> list[IdentityReport]:
    """Summed second derivatives vs central differences; manufactured residual.

    The jet sweep runs on the loss's set structure: one set longer than
    ``JET_CHUNK`` with repeated indices, so on the net with two hidden
    layers it spans two tangent blocks, and one singleton.  Each set's sum
    must match the summed central second differences, repeats counted with
    multiplicity.
    """
    reports = []
    rng_key = StreamKey(master, Role.TEST_POINTS, 0, 0)
    h = 1e-4
    for widths, act in [([5, 8, 1], "sin"), ([7, 6, 6, 1], "tanh_scaled"), ([3, 10, 1], "sin")]:
        view = plain_view(init_mlp(widths, act, master))
        d = widths[0]
        X = sample_unit_ball(derive_stream(rng_key), 6, d) * 0.9
        long_set = np.arange(JET_CHUNK + 4) % d
        dims = np.concatenate([long_set, [d // 2]])
        _, sums = jet_sums(view, X, dims, [long_set.size, 1])
        u0 = ansatz(view, X)[:, 0]
        fd2 = np.empty((d, X.shape[0]))
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            fd2[i] = (ansatz(view, X + e)[:, 0] - 2 * u0 + ansatz(view, X - e)[:, 0]) / h**2
        worst = max(
            float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
            for got, want in ((sums[0], fd2[long_set].sum(axis=0)), (sums[1], fd2[d // 2]))
        )
        name = f"jet_vs_fd_{'x'.join(map(str, widths))}_{act}"
        reports.append(IdentityReport.within(name, 0.0, worst, X.shape[0] * dims.size, 1e-6))

    for kind, sol, d in [("none", "two_body", 8), ("allen_cahn", "two_body", 6), ("sine_gordon", "three_body", 7)]:
        problem = make_problem(kind, d, sol, master)
        ev = ExactSolutionView(problem)
        X = sample_unit_ball(derive_stream(StreamKey(master, Role.TEST_POINTS, 1, 0)), 200, d)
        resid = sampled_operator(ev, problem, X, np.arange(d), [d])[0] - rhs_eval(problem, X)
        dev = float(np.max(np.abs(resid)))
        name = f"manufactured_residual_{kind}_{sol}"
        reports.append(IdentityReport.within(name, 0.0, dev, 200, 1e-10))
    return reports


def implicit_suite(master: int = 0, n_cases: int = 20) -> list[IdentityReport]:
    """Implicit perturbed forward and jet sums vs the dense explicit oracle.

    Random layer shapes (k > 1 splits on both sides included), random ranks,
    random cores.  One jet sweep reads a singleton set per direction, a set
    with a repeated index and a set overlapping it.  The relative difference
    on the forward values, the jet values, the per-direction second
    derivatives and the two set sums must stay within 1e-10.
    """
    fixed = [(6, 5), (40, 8), (8, 40), (128, 1), (7, 3), (12, 12)]
    stream = derive_stream(StreamKey(master, Role.CORE_Z, 0, 99))
    cases = list(fixed)
    while len(cases) < n_cases:
        m = 1 + int(stream.uniforms(1)[0] * 48)
        n = 1 + int(stream.uniforms(1)[0] * 48)
        cases.append((m, n))

    reports = []
    for idx, (m, n) in enumerate(cases):
        widths = [m, n] if n == 1 else [m, n, 1]
        params = init_mlp(widths, "sin", master + idx)
        subs = _subspaces_for_shapes([W.shape for W in params.weights], 4, master + idx)
        cores = [
            sample_core(derive_stream(StreamKey(master + idx, Role.CORE_Z, 1, l)), s.rank)
            for l, s in enumerate(subs)
        ]
        deltas = [explicit_delta_w(s, Z) for s, Z in zip(subs, cores)]
        X = sample_unit_ball(
            derive_stream(StreamKey(master + idx, Role.TEST_POINTS, 0, 0)), 5, m
        )
        dims = np.unique(
            np.minimum((derive_stream(StreamKey(master + idx, Role.DIM_SET_1, 0, 0)).uniforms(3) * m).astype(int), m - 1)
        )
        worst = 0.0
        for view in sign_views(params, subs, cores, 0.31, np.float64):
            got = view.values(X)
            phi = 1.0 - (X * X).sum(axis=1)
            want = phi * explicit_forward(params, X, deltas, view.sign, 0.31)[:, 0]
            worst = max(worst, float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)))
            u_o, d2_o = explicit_jets(params, X, dims, deltas, view.sign, 0.31)
            # singletons, then (dims, dims[0]) and dims: a repeat, and overlap
            n = dims.size
            set_dims = np.concatenate([dims, dims, dims[:1], dims])
            u, sums = jet_sums(view, X, set_dims, [1] * n + [n + 1, n])
            sums_o = np.stack([d2_o.sum(axis=0) + d2_o[0], d2_o.sum(axis=0)])
            pairs = ((u, u_o), (sums[:n], d2_o), (sums[n:], sums_o))
            for got_p, want_p in pairs:
                denom = max(float(np.max(np.abs(want_p))), 1e-300)
                worst = max(worst, float(np.max(np.abs(got_p - want_p))) / denom)
        k = subs[0].plan.split_factor
        name = f"implicit_vs_explicit_{m}x{n}_k{k}"
        reports.append(IdentityReport.within(name, 0.0, worst, 2, 1e-10))
    return reports
