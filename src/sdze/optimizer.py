"""Training steps and loop for the seed-locked subspace zeroth-order method.

One step: (1) lazily refresh the per-layer bases, (2) draw one spatial
sample keyed by the step, (3) draw per-layer cores, (4) evaluate the
stochastic loss at +eps and -eps on the *same* drawn spatial sample (the
batch, its rhs and the index sets are drawn once; both passes only read
them), (5) form the scalar directional estimate from the symmetric
difference, and (6) apply the rank-r update scaled by -lr * estimate to
every layer.  Seed locking makes the spatial sampling noise cancel
algebraically inside the difference; the unlocked variant (independent
index sets per sign) exists only for the ablation study and is expected to
blow up as eps shrinks.  :func:`sdze_step` runs both; ``SdzeConfig.crns``
picks the mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .net import ACTIVATIONS, MlpParams, PerturbView, SignPair, init_mlp
from .rng import Role, StreamKey, derive_stream
from .spatial import (
    NORMALIZATIONS,
    SOLUTIONS,
    DrawnSample,
    PdeProblem,
    SpatialSample,
    coefficient_count,
    draw_sample,
    make_problem,
    relative_l2,
    stochastic_loss,
)
from .subspace import (
    LayerSubspace,
    apply_rank_r_update,
    maybe_refresh,
    sample_core,
    subspace_for_layer,
)

LR_MODES = ("constant", "annealed", "sqrt_tq")
DTYPES = {"f64": np.float64, "f32": np.float32}
# JSON pde.kind -> the nonlinearity tag of spatial.make_problem
PDE_KINDS = {"poisson": "none", "allen_cahn": "allen_cahn", "sine_gordon": "sine_gordon"}
# each tag field of SdzeConfig -> the tags it accepts
_TAGS = {
    "pde_kind": PDE_KINDS, "pde_solution": SOLUTIONS, "normalization": NORMALIZATIONS,
    "activation": ACTIVATIONS, "dtype": DTYPES, "lr_mode": LR_MODES,
}


class ConfigError(ValueError):
    """An invalid run config; the message names every offending field or key.

    ``problems`` holds the (field, reason) pairs a :class:`SdzeConfig` found,
    the field None for ``widths[0]``, the dimension, so the JSON loader can
    name each by its JSON key instead.
    """

    def __init__(self, message: str, problems=()):
        super().__init__(message)
        self.problems = list(problems)


@dataclass
class SdzeConfig:
    """Full recipe for a run; every value is checked on construction.

    ``widths[0]`` is the PDE dimension.  :mod:`sdze.harness` maps every field
    to its JSON key; a key the JSON omits takes the default here.  Every value
    rule lives in ``__post_init__``, which names each offending field in one
    :class:`ConfigError`.  Every field changes every run that reads it (the
    lr fields are read in their own mode).  The run rules, which
    :mod:`sdze.harness` checks before a run or sweep cell does any work, are
    ``batch_b <= widths[0]`` (``check_batch_dims``: the default b = 16 loads
    at any dimension) and a resumed checkpoint's fit.
    """

    seed: int = 0
    widths: list[int] = field(default_factory=lambda: [100, 128, 128, 1])
    activation: str = "sin"
    bias: bool = False
    dtype: str = "f64"
    eps: float = 1e-3
    lr_mode: str = "annealed"
    alpha: float = 1e-3  # constant mode
    gamma: float = 3.0  # annealed: gamma / (t + m)^p
    m: float = 200.0
    p: float = 0.6
    c: float = 1.0  # sqrt_tq: c / sqrt(t q)
    steps: int = 20000
    rank: int = 16
    freq_F: int = 1000
    batch_B: int = 100
    batch_b: int = 16
    crns: bool = True
    pde_kind: str = "poisson"
    pde_solution: str = "two_body"
    normalization: str = "dim_normalized"
    eval_every: int = 500
    test_points: int = 2000
    out_dir: str = "runs/default"
    timing: bool = True  # False writes wall_ms as 0, for reproducible CSVs

    def __post_init__(self):
        problems = []  # (field, reason); field None is widths[0]
        for name, allowed in _TAGS.items():
            if getattr(self, name) not in allowed:
                problems.append((name, f"must be one of {list(allowed)}"))
        if self.eps <= 0:
            problems.append(("eps", "must be > 0"))
        if self.lr_mode == "annealed" and not (0.5 < self.p <= 1.0):
            problems.append(("p", "must be in (1/2, 1] in annealed mode"))
        for name in ("rank", "freq_F", "batch_B", "batch_b", "eval_every", "test_points"):
            if getattr(self, name) < 1:
                problems.append((name, "must be >= 1"))
        if self.steps < 0:
            problems.append(("steps", "must be >= 0"))
        if len(self.widths) < 2 or self.widths[-1] != 1:
            problems.append(("widths", f"must have >= 2 entries and end in 1, got {self.widths}"))
        if self.widths and self.pde_solution in SOLUTIONS:
            try:
                coefficient_count(self.pde_solution, self.widths[0])
            except ValueError as err:
                problems.append((None, f"too small: {err}"))
        if problems:
            message = "; ".join(f"{name or 'widths[0]'} {why}" for name, why in problems)
            raise ConfigError(message, problems)

    def make_problem(self) -> PdeProblem:
        """The configured PDE in ``widths[0]`` dimensions, keyed by the seed."""
        return make_problem(
            PDE_KINDS[self.pde_kind],
            self.widths[0],
            self.pde_solution,
            self.seed,
            self.normalization,
        )

    def init_params(self) -> MlpParams:
        """The initial network; every run, sweep and ablation starts from it."""
        return init_mlp(self.widths, self.activation, self.seed, self.bias)


def lr_schedule(cfg: SdzeConfig, t: int, q: int | None = None) -> float:
    """Step size at step t (t >= 1 for the decaying modes)."""
    if cfg.lr_mode == "constant":
        return cfg.alpha
    if t < 1:
        raise ValueError("decaying schedules need t >= 1")
    if cfg.lr_mode == "annealed":
        return cfg.gamma / (t + cfg.m) ** cfg.p
    if q is None:
        raise ValueError("sqrt_tq schedule needs the subspace dimension q")
    return cfg.c / np.sqrt(t * q)


@dataclass
class StepRecord:
    """What one step computed; ``harness.metric_row`` writes it as a CSV row.

    Memory is not counted per step: criterion 8 measures the step's
    allocations with ``tracemalloc``.
    """

    step: int
    delta_hat: float
    loss_plus: float
    loss_minus: float
    alpha: float
    wall_ms: float = 0.0


class SdzeDivergenceError(RuntimeError):
    """Non-finite loss under seed locking; carries replay keys."""

    def __init__(self, step, loss_plus, loss_minus, sample: SpatialSample):
        self.step = step
        self.loss_plus = loss_plus
        self.loss_minus = loss_minus
        self.sample = sample
        super().__init__(
            f"non-finite loss at step {step}: l+={loss_plus}, l-={loss_minus}; "
            f"replay keys: master={sample.master} step={sample.step} "
            f"B={sample.B} b={sample.b}"
        )


def step_cores(master: int, subspaces: list[LayerSubspace], t: int) -> list[np.ndarray]:
    """The per-layer cores of step ``t``, each keyed ``(master, CORE_Z, t, layer)``."""
    return [
        sample_core(derive_stream(StreamKey(master, Role.CORE_Z, t, l)), s.rank)
        for l, s in enumerate(subspaces)
    ]


def directional_delta(
    pair: SignPair,
    problem: PdeProblem,
    plus: DrawnSample,
    minus: DrawnSample,
    *,
    loss_fn=None,
) -> tuple[float, float, float]:
    """Symmetric-difference estimate (delta, loss+, loss-) of one perturbation.

    ``pair`` is the perturbation: its direction, eps and step dtype.  The
    +eps pass reads ``plus`` and the -eps pass ``minus``; seed locking is
    ``minus is plus``.  The unlocked ablation passes the draw of
    :meth:`SpatialSample.unlocked` on the same batch.  The pair forms the
    terms that do not depend on the sign once: those of the batch whenever
    ``minus.X is plus.X``, and those of the index sets too when ``minus is
    plus``.  A caller that makes several estimates of one perturbation
    passes one pair to each, which then also shares its weights and, on a
    pinned batch, its batch products (:mod:`sdze.net`).
    """
    eval_loss = loss_fn if loss_fn is not None else stochastic_loss
    lp = eval_loss(PerturbView(pair, 1), problem, plus)
    lm = eval_loss(PerturbView(pair, -1), problem, minus)
    # the difference cancels leading digits; keep it in f64
    return (float(lp) - float(lm)) / (2.0 * pair.eps), float(lp), float(lm)


def draw_signs(problem: PdeProblem, cfg: SdzeConfig, t: int) -> tuple[DrawnSample, DrawnSample]:
    """The spatial draws (plus, minus) of step ``t``, keyed by ``cfg``'s seed, B and b.

    Seed locked (``cfg.crns``), both passes read one draw; unlocked, the
    minus pass reads :meth:`SpatialSample.unlocked` on the same batch.
    """
    sample = SpatialSample(cfg.seed, t, cfg.batch_B, cfg.batch_b, problem.dim)
    drawn = draw_sample(problem, sample)
    return drawn, drawn if cfg.crns else draw_sample(problem, sample.unlocked(), batch=drawn)


def sdze_step(
    params: MlpParams,
    subspaces: list[LayerSubspace],
    problem: PdeProblem,
    cfg: SdzeConfig,
    t: int,
    *,
    loss_fn=None,
) -> StepRecord:
    """One step; mutates ``params`` and refreshes ``subspaces``.

    ``cfg.crns`` locks the two passes to one spatial sample, and a non-finite
    estimate raises :class:`SdzeDivergenceError`.  Unlocked (the ablation),
    the minus pass draws independent index sets and a non-finite estimate is
    returned in the record without an update.
    """
    t0 = time.perf_counter()
    for l in range(len(subspaces)):
        subspaces[l] = maybe_refresh(t, cfg.freq_F, subspaces[l])
    drawn, minus = draw_signs(problem, cfg, t)
    cores = step_cores(cfg.seed, subspaces, t)
    # one pair per step, freed before the update below changes params
    delta, lp, lm = directional_delta(
        SignPair(params, subspaces, cores, cfg.eps, DTYPES[cfg.dtype]),
        problem,
        drawn,
        minus,
        loss_fn=loss_fn,
    )
    q = sum(s.rank**2 for s in subspaces)
    alpha = lr_schedule(cfg, t, q)
    if np.isfinite(delta):
        for W, s, Z in zip(params.weights, subspaces, cores):
            apply_rank_r_update(W, s, Z, -alpha * delta)
    elif cfg.crns:
        raise SdzeDivergenceError(t, lp, lm, drawn.sample)
    # else unlocked divergence: the ablation's data point, recorded without an update
    wall_ms = (time.perf_counter() - t0) * 1e3
    return StepRecord(t, delta, lp, lm, alpha, wall_ms)


def sdze_step_naive(
    params: MlpParams,
    subspaces: list[LayerSubspace],
    problem: PdeProblem,
    cfg: SdzeConfig,
    t: int,
    *,
    loss_fn=None,
) -> StepRecord:
    """:func:`sdze_step` unlocked, whatever ``cfg.crns`` says.

    Not a second step: the name stays because ``perfbench``'s tracer wraps
    it, and goes when the benchmark drops that target.
    """
    unlocked = replace(cfg, crns=False)
    return sdze_step(params, subspaces, problem, unlocked, t, loss_fn=loss_fn)


@dataclass
class TrainResult:
    params: MlpParams
    subspaces: list[LayerSubspace]
    records: list[StepRecord]
    evals: list[tuple[int, float]]  # (step, relative L2)


def make_subspaces(
    params: MlpParams, cfg: SdzeConfig, start_step: int = 0
) -> list[LayerSubspace]:
    """Each layer's subspace at ``start_step``: bases from the last refresh boundary."""
    at = (start_step // cfg.freq_F) * cfg.freq_F
    return [
        subspace_for_layer(cfg.seed, l, *W.shape, cfg.rank, at)
        for l, W in enumerate(params.weights)
    ]


def train(
    cfg: SdzeConfig,
    problem: PdeProblem,
    *,
    init_params: MlpParams | None = None,
    start_step: int = 0,
    on_record=None,
) -> TrainResult:
    """Run steps start_step+1 .. cfg.steps; deterministic given cfg.seed.

    ``on_record(record, rel_l2_or_None)`` fires per step; the relative-L2
    metric is evaluated at the configured cadence and at the final step.
    Resuming from a checkpoint (``init_params`` + ``start_step``) follows the
    identical trajectory because every draw is keyed by (seed, role, step).
    """
    params = init_params if init_params is not None else cfg.init_params()
    if params.dim != problem.dim:
        raise ValueError("network input width must equal the problem dimension")
    subspaces = make_subspaces(params, cfg, start_step)
    test_key = StreamKey(cfg.seed, Role.TEST_POINTS, 0, 0)

    records: list[StepRecord] = []
    evals: list[tuple[int, float]] = []
    if start_step == 0:
        evals.append((0, relative_l2(params, problem, test_key, cfg.test_points)))
    for t in range(start_step + 1, cfg.steps + 1):
        try:
            rec = sdze_step(params, subspaces, problem, cfg, t)
        except SdzeDivergenceError as err:
            err.args = (f"step {t}/{cfg.steps}: {err.args[0]}",)
            raise
        rel = None
        if t % cfg.eval_every == 0 or t == cfg.steps:
            rel = relative_l2(params, problem, test_key, cfg.test_points)
            evals.append((t, rel))
        records.append(rec)
        if on_record is not None:
            on_record(rec, rel)
    return TrainResult(params, subspaces, records, evals)
