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

The two passes of an estimate on two cores.  Both passes only read the
drawn sample and share nothing they write, so :func:`directional_delta` may
run the +eps pass on a worker thread while the calling thread runs the -eps
pass.  Each pass does the same arithmetic on either path and every BLAS call
still runs on one thread, so the bits do not change.

* What the caller forms.  Before it hands the +eps pass over, the caller
  forms every term both passes read (:meth:`SignPair.share`: the batch
  products, the index-set rows and phi) and takes the worker's two tangent
  blocks.  The worker then only reads the pair, the sample and the problem;
  it writes only its own sign's planes on the batch and its own blocks.
* The gate (:func:`_concurrent`).  Only a seed-locked estimate (``minus is
  plus``) with the default loss may run concurrently: the unlocked
  ablation's two index sets would race on the pair's one-entry rows cache,
  and a custom loss is not known to be thread-safe.  Then
  ``CONCURRENT_SIGNS`` forces either path; left at None it takes the
  concurrent one when (a) the process's affinity holds at least 2 CPUs,
  (b) the environment gives the BLAS one thread, as OpenBLAS reads it
  (unpinned, OpenBLAS already spreads each GEMM over both cores: forcing the
  concurrent path there left poisson100's step at 2.24-2.27 ms, against
  2.16-2.28 serial), and (c) one sign's tangent work, B |dims| times the
  pair's :attr:`SignPair.transport_macs`, reaches ``CONCURRENT_MIN_MACS``.
  Below that the worker's round trip and the two threads' turns at the
  interpreter cost more than the overlap saves.  A sweep of estimates over
  hidden widths 32..256, B 10..200 and b 2..16 (f32, BLAS pinned, 2 cores,
  after a 2 000-point evaluation as in ``train``) found the concurrent one
  no faster up to 5.9 M multiply-adds and faster in every shape from 6.3 M
  on: 5-17 % at 6.3-12.6 M, 34 % at poisson100's 52.4 M (1.31 against
  1.97 ms).  f64 crosses lower, between 0.7 and 2.6 M; the one constant
  keeps f64 shapes below 6 M serial.  Criterion 8's step (5.2 M) and the
  depth-2 variance sweep (none) stay serial.
* Errors.  Either way the +eps pass's exception is raised if it has one,
  else the -eps pass's: the serial order.  The call returns or raises only
  after both passes have ended, and the worker keeps no finished task.
  The worker runs in a copy of the caller's context, so numpy's errstate
  reaches it.  :func:`sdze_step` runs both passes under
  ``np.errstate(over="raise")``: an overflow of the step dtype in either
  sweep raises ``FloatingPointError`` naming the layer (:mod:`sdze.net`),
  which the step turns into its cause.  Read-only estimates (the variance
  sweeps) keep their caller's errstate: set per estimate, it cost 1.6 us
  of the variance sweep's 36 us estimate.
"""

from __future__ import annotations

import contextvars
import os
import re
import threading
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
    """Non-finite loss under seed locking; carries replay keys.

    ``cause`` says why no loss could be formed, e.g. weights past the range
    of the step dtype.
    """

    def __init__(self, step, loss_plus, loss_minus, sample: SpatialSample, cause=None):
        self.step = step
        self.loss_plus = loss_plus
        self.loss_minus = loss_minus
        self.sample = sample
        why = f" ({cause})" if cause else ""
        super().__init__(
            f"non-finite loss at step {step}: l+={loss_plus}, l-={loss_minus}{why}; "
            f"replay keys: master={sample.master} step={sample.step} "
            f"B={sample.B} b={sample.b}"
        )


def step_cores(master: int, subspaces: list[LayerSubspace], t: int) -> list[np.ndarray]:
    """The per-layer cores of step ``t``, each keyed ``(master, CORE_Z, t, layer)``."""
    return [
        sample_core(derive_stream(StreamKey(master, Role.CORE_Z, t, l)), s.rank)
        for l, s in enumerate(subspaces)
    ]


# The dispatcher's one switch.  None: :func:`_concurrent` gates each
# estimate.  True or False forces the concurrent or the serial path wherever
# the sample is locked and the loss is the default one.
CONCURRENT_SIGNS: bool | None = None
# per-sign tangent multiply-adds from which the concurrent path is faster
# (module docstring)
CONCURRENT_MIN_MACS = 6_000_000


def _blas_threads(environ) -> int:
    """The BLAS thread count ``environ`` asks for, as OpenBLAS reads it; 0 if none.

    The first of ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and
    ``OMP_NUM_THREADS`` whose leading integer (C ``atoi``) is positive.
    """
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        lead = re.match(r"\s*[+-]?\d+", environ.get(name, ""))
        if lead and int(lead.group()) > 0:
            return int(lead.group())
    return 0


# OpenBLAS reads the environment once, when numpy loads it; so does this module
_BLAS_ONE_THREAD = _blas_threads(os.environ) == 1


def _cpu_count() -> int:
    """CPUs in this process's affinity."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _concurrent(pair: SignPair, plus: DrawnSample, minus: DrawnSample, loss_fn) -> bool:
    """Whether the two passes of an estimate run on two threads (module docstring)."""
    if minus is not plus or loss_fn is not None:
        return False
    if CONCURRENT_SIGNS is not None:
        return CONCURRENT_SIGNS
    work = plus.X.shape[0] * plus.dims.size * pair.transport_macs
    return work >= CONCURRENT_MIN_MACS and _BLAS_ONE_THREAD and _cpu_count() >= 2


class _SignWorker:
    """A daemon thread that runs the +eps pass of concurrent estimates, one at a time."""

    def __init__(self):
        import queue  # here, so the serial path imports nothing new

        self._tasks = queue.SimpleQueue()
        self._reply = queue.SimpleQueue  # one per task
        self._blocks: tuple[np.ndarray, np.ndarray] | None = None
        threading.Thread(target=self._serve, name="sdze-sign", daemon=True).start()

    def tangent_blocks(self, words: int, dtype: np.dtype):
        """Two buffers of at least ``words`` words of ``dtype``, or None for 0 words.

        The worker keeps them for its next tasks, and only its tasks, which
        run one at a time, write them.  Allocated per estimate instead, at
        poisson100's shapes they pushed the heap's free top past glibc's trim
        threshold, and every step faulted its pages back in.
        """
        if not words:
            return None
        kept = self._blocks
        if kept is None or kept[0].dtype != dtype or kept[0].size < words:
            kept = self._blocks = np.empty(words, dtype), np.empty(words, dtype)
        return kept

    def submit(self, fn, *args):
        """Queue ``fn(*args)`` in a copy of this context; ``get()`` on the reply
        waits for its (result, None) or (None, exception)."""
        reply = self._reply()
        self._tasks.put((contextvars.copy_context(), fn, args, reply))
        return reply

    def _serve(self):
        while True:
            _run(*self._tasks.get())


def _run(ctx, fn, args, reply) -> None:
    # a frame per task: nothing of a finished task outlives it
    try:
        reply.put((ctx.run(fn, *args), None))
    except BaseException as err:  # raised again by the caller
        reply.put((None, err))


_WORKER: _SignWorker | None = None
_WORKER_START = threading.Lock()


def _sign_worker() -> _SignWorker:
    """The sign worker, started at the first concurrent estimate."""
    global _WORKER
    with _WORKER_START:
        if _WORKER is None:
            _WORKER = _SignWorker()
        return _WORKER


def _forget_worker() -> None:
    global _WORKER
    _WORKER = None


if hasattr(os, "register_at_fork"):  # a forked child has no worker thread
    os.register_at_fork(after_in_child=_forget_worker)


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

    When :func:`_concurrent` allows it, the +eps pass runs on the sign
    worker, in a copy of this thread's context (numpy's errstate included),
    while this thread runs the -eps pass, with the same bits (module
    docstring).  Either way an error of the +eps pass is raised before one
    of the -eps pass, and the call ends after both passes.
    """
    eval_loss = loss_fn if loss_fn is not None else stochastic_loss
    if not _concurrent(pair, plus, minus, loss_fn):
        lp = eval_loss(PerturbView(pair, 1), problem, plus)
        lm = eval_loss(PerturbView(pair, -1), problem, minus)
    else:
        pair.share(plus.X, plus.dims)
        worker = _sign_worker()
        blocks = worker.tangent_blocks(pair.tangent_words(plus.X.shape[0]), pair.dtype)
        reply = worker.submit(eval_loss, PerturbView(pair, 1, blocks), problem, plus)
        try:
            lm = eval_loss(PerturbView(pair, -1), problem, minus)
        finally:
            lp, err = reply.get()  # the +eps pass has ended
            if err is not None:
                raise err
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
    returned in the record without an update.  Weights past the range of the
    step dtype, or a jet sweep whose arithmetic overflows it, leave no loss
    to form, so their estimate is non-finite: the error names the layer and
    the dtype.
    """
    t0 = time.perf_counter()
    for l in range(len(subspaces)):
        subspaces[l] = maybe_refresh(t, cfg.freq_F, subspaces[l])
    drawn, minus = draw_signs(problem, cfg, t)
    cores = step_cores(cfg.seed, subspaces, t)
    cause = None
    try:
        with np.errstate(over="raise"):  # in both passes, on either path
            pair = SignPair(params, subspaces, cores, cfg.eps, DTYPES[cfg.dtype])
            delta, lp, lm = directional_delta(pair, problem, drawn, minus, loss_fn=loss_fn)
    except FloatingPointError as err:
        cause, delta, lp, lm = str(err), np.nan, np.nan, np.nan
    pair = None  # one pair per step, freed before the update below changes params
    q = sum(s.rank**2 for s in subspaces)
    alpha = lr_schedule(cfg, t, q)
    if np.isfinite(delta):
        for W, s, Z in zip(params.weights, subspaces, cores):
            apply_rank_r_update(W, s, Z, -alpha * delta)
    elif cfg.crns:
        raise SdzeDivergenceError(t, lp, lm, drawn.sample, cause)
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
