"""Training steps and loop for the seed-locked subspace zeroth-order method.

One step: (1) lazily refresh the per-layer bases, (2) draw one spatial
sample keyed by the step, (3) draw per-layer cores, (4) evaluate the
stochastic loss at +eps and -eps with the *same* regenerated spatial sample,
(5) form the scalar directional estimate from the symmetric difference, and
(6) apply the rank-r update scaled by -lr * estimate to every layer.  Seed
locking makes the spatial sampling noise cancel algebraically inside the
difference; the unlocked variant (independent index sets per sign) exists
only for the ablation study and is expected to blow up as eps shrinks.

A full-space baseline perturbs every weight with a regenerated Gaussian
(never stored), bracketing the subspace method from the classic
simultaneous-perturbation side.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .alloc import AllocationLedger, ledger_active, phase
from .net import MlpParams, PerturbView, init_mlp, plain_view
from .rng import Role, StreamKey, derive_stream
from .spatial import PdeProblem, SpatialSample, relative_l2, stochastic_loss
from .subspace import (
    LayerSubspace,
    apply_rank_r_update,
    maybe_refresh,
    sample_core,
    subspace_at_step,
)

LR_MODES = ("constant", "annealed", "sqrt_tq")
DTYPES = {"f64": np.float64, "f32": np.float32}


@dataclass
class SdzeConfig:
    """Full recipe for a run; validated on construction."""

    seed: int = 0
    widths: list[int] = field(default_factory=lambda: [100, 128, 128, 1])
    activation: str = "sin"
    act_scale: float = 1.0
    bias: bool = False
    dtype: str = "f64"
    eps: float = 1e-3
    lr_mode: str = "annealed"
    alpha: float = 1e-3  # constant mode
    gamma: float = 1.0  # annealed: gamma / (t + m)^p
    m: float = 0.0
    p: float = 1.0
    c: float = 1.0  # sqrt_tq: c / sqrt(t q)
    steps: int = 1000
    rank: int = 16
    rank_per_layer: list[int] | None = None
    freq_F: int = 1000
    batch_B: int = 100
    batch_b: int = 16
    crns: bool = True
    normalization: str = "dim_normalized"
    eval_every: int = 500
    test_points: int = 2000

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
        if min(self.rank, self.freq_F, self.batch_B, self.batch_b) < 1:
            problems.append("rank, freq_F, batch_B, batch_b must be >= 1")
        if self.rank_per_layer is not None and len(self.rank_per_layer) != len(self.widths) - 1:
            problems.append("rank_per_layer must list one rank per layer")
        if self.steps < 0:
            problems.append("steps must be >= 0")
        if problems:
            raise ValueError("; ".join(problems))


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
    step: int
    delta_hat: float
    loss_plus: float
    loss_minus: float
    alpha: float
    wall_ms: float = 0.0
    peak_tmp_elems: int = 0


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


def directional_delta(
    params: MlpParams,
    subspaces: list[LayerSubspace],
    cores: list[np.ndarray],
    problem: PdeProblem,
    sample: SpatialSample,
    eps: float,
    *,
    locked: bool = True,
    dtype: str = "f64",
    loss_fn=None,
) -> tuple[float, float, float]:
    """Symmetric-difference estimate (delta, loss+, loss-).

    ``locked=True`` reuses the identical sample for both signs; otherwise the
    minus pass regenerates its index sets from replicate 1 (collocation stays
    shared so full spatial sampling makes the two modes coincide exactly).
    """
    eval_loss = loss_fn if loss_fn is not None else stochastic_loss
    np_dtype = np.dtype(DTYPES[dtype])
    sample_minus = sample if locked else replace(sample, set_replicate=1)
    lp = eval_loss(
        PerturbView(params, subspaces, cores, +1, eps, np_dtype), problem, sample
    )
    lm = eval_loss(
        PerturbView(params, subspaces, cores, -1, eps, np_dtype), problem, sample_minus
    )
    # the difference cancels leading digits; keep it in f64
    return (float(lp) - float(lm)) / (2.0 * eps), float(lp), float(lm)


def _step(
    params: MlpParams,
    subspaces: list[LayerSubspace],
    problem: PdeProblem,
    cfg: SdzeConfig,
    t: int,
    *,
    locked: bool,
    loss_fn=None,
    ledger: AllocationLedger | None = None,
) -> StepRecord:
    led = ledger if ledger is not None else AllocationLedger()
    led.reset()
    t0 = time.perf_counter()
    with ledger_active(led):
        for l in range(len(subspaces)):
            subspaces[l] = maybe_refresh(t, cfg.freq_F, subspaces[l])
        sample = SpatialSample(cfg.seed, t, cfg.batch_B, cfg.batch_b, problem.dim)
        cores = [
            sample_core(
                derive_stream(StreamKey(cfg.seed, Role.CORE_Z, t, l)), s.rank
            )
            for l, s in enumerate(subspaces)
        ]
        delta, lp, lm = directional_delta(
            params,
            subspaces,
            cores,
            problem,
            sample,
            cfg.eps,
            locked=locked,
            dtype=cfg.dtype,
            loss_fn=loss_fn,
        )
        q = sum(s.rank**2 for s in subspaces)
        alpha = lr_schedule(cfg, t, q)
        if not np.isfinite(delta):
            if locked:
                raise SdzeDivergenceError(t, lp, lm, sample)
            # unlocked divergence is the ablation's data point, not a crash
            return StepRecord(t, delta, lp, lm, alpha, 0.0, led.step_total)
        with phase("update"):
            for W, s, Z in zip(params.weights, subspaces, cores):
                apply_rank_r_update(W, s, Z, -alpha * delta)
    wall_ms = (time.perf_counter() - t0) * 1e3
    return StepRecord(t, delta, lp, lm, alpha, wall_ms, led.step_total)


def sdze_step(
    params: MlpParams,
    subspaces: list[LayerSubspace],
    problem: PdeProblem,
    cfg: SdzeConfig,
    t: int,
    *,
    loss_fn=None,
    ledger: AllocationLedger | None = None,
) -> StepRecord:
    """One seed-locked step; mutates ``params`` and refreshes ``subspaces``."""
    if not cfg.crns:
        raise ValueError("sdze_step requires cfg.crns; use sdze_step_naive")
    return _step(params, subspaces, problem, cfg, t, locked=True, loss_fn=loss_fn, ledger=ledger)


def sdze_step_naive(
    params: MlpParams,
    subspaces: list[LayerSubspace],
    problem: PdeProblem,
    cfg: SdzeConfig,
    t: int,
    *,
    loss_fn=None,
    ledger: AllocationLedger | None = None,
) -> StepRecord:
    """Unlocked ablation step: the two passes draw independent index sets."""
    if cfg.crns:
        raise ValueError("sdze_step_naive requires cfg.crns = False")
    return _step(params, subspaces, problem, cfg, t, locked=False, loss_fn=loss_fn, ledger=ledger)


def fullspace_zo_step(
    params: MlpParams,
    problem: PdeProblem | None,
    cfg: SdzeConfig,
    t: int,
    *,
    loss_fn=None,
) -> StepRecord:
    """Classic full-space simultaneous-perturbation step.

    The per-layer Gaussian direction is regenerated from its key for each
    use (+eps pass, -eps pass, update), so it is never stored.  Each pass
    evaluates a perturbed copy of the weights, one parameter-sized buffer
    freed after the pass; ``params`` changes only by the update, so with a
    zero update it stays bitwise unchanged.  The spatial sample stays locked
    across the two passes.
    """

    def direction(l: int, W: np.ndarray) -> np.ndarray:
        z = derive_stream(StreamKey(cfg.seed, Role.FULLSPACE_Z, t, l)).normals(W.size)
        return z.reshape(W.shape)

    sample = SpatialSample(cfg.seed, t, cfg.batch_B, cfg.batch_b, params.dim)

    def evaluate(scale: float) -> float:
        shifted = replace(
            params, weights=[W + scale * direction(l, W) for l, W in enumerate(params.weights)]
        )
        if loss_fn is not None:
            return float(loss_fn(shifted))
        return stochastic_loss(plain_view(shifted), problem, sample)

    t0 = time.perf_counter()
    lp = evaluate(+cfg.eps)
    lm = evaluate(-cfg.eps)
    delta = (lp - lm) / (2.0 * cfg.eps)
    if not np.isfinite(delta):
        raise SdzeDivergenceError(t, lp, lm, sample)
    alpha = lr_schedule(cfg, t, q=params.n_params)
    if alpha * delta != 0.0:
        for l, W in enumerate(params.weights):
            W -= (alpha * delta) * direction(l, W)
    wall_ms = (time.perf_counter() - t0) * 1e3
    return StepRecord(t, delta, lp, lm, alpha, wall_ms, 0)


@dataclass
class TrainResult:
    params: MlpParams
    subspaces: list[LayerSubspace]
    records: list[StepRecord]
    evals: list[tuple[int, float]]  # (step, relative L2)


def make_subspaces(
    params: MlpParams, cfg: SdzeConfig, start_step: int = 0
) -> list[LayerSubspace]:
    def rank_of(l: int) -> int:
        if cfg.rank_per_layer is not None:
            return cfg.rank_per_layer[l]
        return cfg.rank

    return [
        subspace_at_step(
            cfg.seed, l, W.shape[0], W.shape[1], rank_of(l), start_step, cfg.freq_F
        )
        for l, W in enumerate(params.weights)
    ]


def train(
    cfg: SdzeConfig,
    problem: PdeProblem,
    *,
    init_params: MlpParams | None = None,
    start_step: int = 0,
    on_record=None,
    ledger: AllocationLedger | None = None,
) -> TrainResult:
    """Run steps start_step+1 .. cfg.steps; deterministic given cfg.seed.

    ``on_record(record, rel_l2_or_None)`` fires per step; the relative-L2
    metric is evaluated at the configured cadence and at the final step.
    Resuming from a checkpoint (``init_params`` + ``start_step``) follows the
    identical trajectory because every draw is keyed by (seed, role, step).
    """
    params = init_params if init_params is not None else init_mlp(
        cfg.widths, cfg.activation, cfg.seed, cfg.act_scale, cfg.bias
    )
    if params.dim != problem.dim:
        raise ValueError("network input width must equal the problem dimension")
    subspaces = make_subspaces(params, cfg, start_step)
    test_key = StreamKey(cfg.seed, Role.TEST_POINTS, 0, 0)
    step_fn = sdze_step if cfg.crns else sdze_step_naive
    led = ledger if ledger is not None else AllocationLedger()

    records: list[StepRecord] = []
    evals: list[tuple[int, float]] = []
    if start_step == 0:
        evals.append((0, relative_l2(params, problem, test_key, cfg.test_points)))
    for t in range(start_step + 1, cfg.steps + 1):
        try:
            rec = step_fn(params, subspaces, problem, cfg, t, ledger=led)
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
