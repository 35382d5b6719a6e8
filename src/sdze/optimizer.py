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

from .net import MlpParams, init_mlp, sign_views
from .rng import Role, StreamKey, derive_stream
from .spatial import (
    DrawnSample,
    PdeProblem,
    SpatialSample,
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


@dataclass
class SdzeConfig:
    """Full recipe for a run; validated on construction.

    ``widths[0]`` is the PDE dimension.  :mod:`sdze.harness` maps every field
    to its JSON key; a key the JSON omits takes the default here.
    """

    seed: int = 0
    widths: list[int] = field(default_factory=lambda: [100, 128, 128, 1])
    activation: str = "sin"
    act_scale: float = 1.0
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
    rank_per_layer: list[int] | None = None
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
        problems = []
        if self.eps <= 0:
            problems.append("eps must be > 0")
        if self.lr_mode not in LR_MODES:
            problems.append(f"lr_mode must be one of {LR_MODES}")
        if self.lr_mode == "annealed" and not (0.5 < self.p <= 1.0):
            problems.append("annealed mode needs p in (1/2, 1]")
        if self.dtype not in DTYPES:
            problems.append("dtype must be f64 or f32")
        if self.pde_kind not in PDE_KINDS:
            problems.append(f"pde_kind must be one of {sorted(PDE_KINDS)}")
        if min(self.rank, self.freq_F, self.batch_B, self.batch_b) < 1:
            problems.append("rank, freq_F, batch_B, batch_b must be >= 1")
        if self.rank_per_layer is not None and len(self.rank_per_layer) != len(self.widths) - 1:
            problems.append("rank_per_layer must list one rank per layer")
        if self.steps < 0:
            problems.append("steps must be >= 0")
        if self.eval_every < 1:
            problems.append("eval_every must be >= 1")
        if self.test_points < 1:
            problems.append("test_points must be >= 1")
        if problems:
            raise ValueError("; ".join(problems))

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
        return init_mlp(self.widths, self.activation, self.seed, self.act_scale, self.bias)


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
    params: MlpParams,
    subspaces: list[LayerSubspace],
    cores: list[np.ndarray],
    problem: PdeProblem,
    plus: DrawnSample,
    minus: DrawnSample,
    eps: float,
    *,
    dtype: str = "f64",
    loss_fn=None,
) -> tuple[float, float, float]:
    """Symmetric-difference estimate (delta, loss+, loss-).

    The +eps pass reads ``plus`` and the -eps pass ``minus``; seed locking is
    ``minus is plus``.  The unlocked ablation passes the draw of
    :meth:`SpatialSample.unlocked` on the same batch.  Both passes read one
    :class:`~sdze.net.SignPair`, so the terms that do not depend on the sign
    are formed once: those of the batch whenever ``minus.X is plus.X``, and
    those of the index sets too when ``minus is plus``.
    """
    eval_loss = loss_fn if loss_fn is not None else stochastic_loss
    plus_view, minus_view = sign_views(params, subspaces, cores, eps, DTYPES[dtype])
    lp = eval_loss(plus_view, problem, plus)
    lm = eval_loss(minus_view, problem, minus)
    # the difference cancels leading digits; keep it in f64
    return (float(lp) - float(lm)) / (2.0 * eps), float(lp), float(lm)


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
    sample = SpatialSample(cfg.seed, t, cfg.batch_B, cfg.batch_b, problem.dim)
    drawn = draw_sample(problem, sample)
    minus = drawn if cfg.crns else draw_sample(problem, sample.unlocked(), batch=drawn)
    cores = step_cores(cfg.seed, subspaces, t)
    delta, lp, lm = directional_delta(
        params,
        subspaces,
        cores,
        problem,
        drawn,
        minus,
        cfg.eps,
        dtype=cfg.dtype,
        loss_fn=loss_fn,
    )
    q = sum(s.rank**2 for s in subspaces)
    alpha = lr_schedule(cfg, t, q)
    if np.isfinite(delta):
        for W, s, Z in zip(params.weights, subspaces, cores):
            apply_rank_r_update(W, s, Z, -alpha * delta)
    elif cfg.crns:
        raise SdzeDivergenceError(t, lp, lm, sample)
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
    ranks = cfg.rank_per_layer or [cfg.rank] * len(params.weights)
    at = (start_step // cfg.freq_F) * cfg.freq_F
    return [
        subspace_for_layer(cfg.seed, l, *W.shape, r, at)
        for l, (W, r) in enumerate(zip(params.weights, ranks))
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
