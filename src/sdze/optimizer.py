"""Training steps and loop for the seed-locked subspace zeroth-order method.

One step: (1) lazily refresh the per-layer bases, (2) draw one spatial
sample keyed by the step, (3) draw per-layer cores, (4) evaluate the
stochastic loss at +eps and -eps on the *same* drawn spatial sample (the
batch, its rhs and the index sets are drawn once; both signs only read
them), (5) form the scalar directional estimate from the symmetric
difference, and (6) apply the rank-r update scaled by -lr * estimate to
every layer.  Seed locking makes the spatial sampling noise cancel
algebraically inside the difference; the unlocked variant (independent
index sets per sign) exists only for the ablation study and is expected to
blow up as eps shrinks.  :func:`sdze_step` runs both; ``SdzeConfig.crns``
picks the mode.

The two signs of an estimate: one stacked sweep, or two cores.  Both signs
only read the drawn sample, and a locked sample gives both the same index
sets, so :func:`directional_delta` evaluates them in one of two ways, with
the same bits (:mod:`sdze.net`).  On one thread, it makes one
``stochastic_loss`` call at the stack (+1, -1): one jet sweep whose every
plane carries both signs, which pays each step of the sweep's set-up once,
not once per sign.  On two cores, it runs the +eps pass on the process's
one worker thread (:mod:`sdze.worker`, which also evaluates row blocks of
:func:`relative_l2`) while the calling thread runs the -eps pass.  The
unlocked ablation, whose signs read different index sets, runs one call
per sign on one thread.  Each sign does the same arithmetic on every path
and every BLAS call still runs on one thread, so the bits do not change.

* What the caller forms.  Before it hands the +eps pass over, the caller
  forms every term of the pair both passes read (:meth:`SignPair.share`:
  the batch products and the seed rows); the draw holds the rest, phi
  among them.
  The worker then only reads the pair, the sample and the problem; it
  writes only its own sign's planes on the batch and its own tangent
  blocks, which with the pair's workspace are the worker thread's scratch
  (:mod:`sdze.workspace`).
* The gate (:func:`_concurrent`).  It reads only what it can observe of
  the estimate and the process, and takes the concurrent path when all three
  hold: (a) the sample is seed locked (``minus is plus``; the unlocked
  ablation's two index sets would race on the pair's one-entry rows cache)
  and read-only, as :func:`draw_sample` makes it (each pass forms the terms
  of a writable batch again, in the same buffers of the pair's workspace),
  (b) one sign's tangent work, B |dims| times the pair's
  :attr:`SignPair.transport_macs` in words of 4 bytes (an f64
  multiply-add counts twice), reaches ``CONCURRENT_MIN_MACS``, and
  (c) :func:`sdze.worker.may_share` holds: the BLAS is pinned to one thread
  (unpinned, OpenBLAS already spreads each GEMM over both cores: the
  concurrent path there left poisson100's step at 2.24-2.27 ms, against
  2.16-2.28 serial), the process's affinity holds at least 2 CPUs and the
  caller is not the worker.  Below (b) the worker's round trip and the two
  threads' turns at the interpreter cost more than the overlap saves.  A
  sweep of estimates over hidden widths 32..256, B 10..200 and b 2..16
  (depth 3 with bias, BLAS pinned, 2 cores, after a 2 000-point evaluation
  as in ``train``, each shape's min of 60 estimates of each path in turn)
  against the stacked serial sweep gave the concurrent path's gain:

  ====================  ========================  ========================
  multiply-adds          f32                       f64
  ====================  ========================  ========================
  2.6-3.3 M              -78 to -5 %               -32 to +23 %
  5.2-6.6 M              -46 to +3 %               -18 to +26 %
  10.5 M                 -31 to +13 %              +3 to +17 %
  13.1 M                 -24 to +17 % (4 of 6 >0)  +31 to +37 %
  21.0-26.2 M            +15 to +29 %              +28 to +39 %
  ====================  ========================  ========================

  The serial path got cheaper, so f32 now crosses between 10.5 and 13.1 M
  (against two one-sign passes it crossed at 6 M; poisson100's 52.4 M
  gains 28 % in the first sweep of this table's shapes).  f64 crosses at
  about half that, between 5.2 and 6.6 M in a second sweep of the shapes
  near it (-18 to 0 % at 5.2 M, +12 to +26 % at 6.6 M), so counting an f64
  multiply-add twice puts both dtypes' crossover at the one constant:
  12 M f32, 6 M f64, where f64 stood before the sweep was stacked.
  Criterion 8's step (5.2 M, 10.5 M counted in f64) and the depth-2
  variance sweep (none) stay serial.  Every path calls this module's ``stochastic_loss``,
  looked up at each call, so a wrapper set on the module sees every call on
  either path.
* Errors.  The stacked sweep raises the first error of its arithmetic, at
  the first layer where either sign fails; on two threads the +eps pass's
  exception is raised if it has one, else the -eps pass's: the serial
  order.  The call returns or raises only after both passes have ended
  (:mod:`sdze.worker`: the worker keeps no finished task and runs in a copy
  of the caller's context, so numpy's errstate reaches it).
  :func:`sdze_step` runs the estimate under ``np.errstate(over="raise")``:
  an overflow of the step dtype at either sign raises ``FloatingPointError``
  naming the layer (:mod:`sdze.net`), which the step turns into its cause.
  Read-only estimates (the variance sweeps) keep their caller's errstate:
  set per estimate, it cost 1.6 us of the variance sweep's 36 us estimate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace

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
from . import worker
from .workspace import Workspace

LR_MODES = ("constant", "annealed", "sqrt_tq")
DTYPES = {"f64": np.float64, "f32": np.float32}
# JSON pde.kind -> the nonlinearity tag of spatial.make_problem
PDE_KINDS = {"poisson": "none", "allen_cahn": "allen_cahn", "sine_gordon": "sine_gordon"}
# each tag field of SdzeConfig -> the tags it accepts
_TAGS = {
    "pde_kind": PDE_KINDS, "pde_solution": SOLUTIONS, "normalization": NORMALIZATIONS,
    "activation": ACTIVATIONS, "dtype": DTYPES, "lr_mode": LR_MODES,
}


def _integer(value) -> bool:
    """Whether ``value`` is an integer: a Python or numpy int, never a bool or a float."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# each field annotation of SdzeConfig -> (its type rule, what the field must be)
_TYPE_RULES = {
    "int": (_integer, "an integer"),
    "float": (lambda value: isinstance(value, (float, np.floating)) or _integer(value), "a number"),
    "bool": (lambda value: isinstance(value, bool), "true or false"),
    "str": (lambda value: isinstance(value, str), "a string"),
    "list[int]": (
        lambda value: isinstance(value, (list, tuple)) and all(map(_integer, value)),
        "a list of integers >= 1",
    ),
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
    """Full recipe for a run; every field is checked on construction.

    ``widths[0]`` is the PDE dimension.  :mod:`sdze.harness` maps every field
    to its JSON key; a key the JSON omits takes the default here.  Every type
    and value rule lives in ``__post_init__``, which names each offending
    field in one :class:`ConfigError`.  Each field has its annotation's type
    (``_TYPE_RULES``; a number is never a bool, ``widths`` may be a tuple), a
    tag is found in its table, and a value rule reads only well-typed fields.
    Every field changes every run that reads it (the lr fields are read in
    their own mode).  The run rules, checked before a run does any work, are
    :func:`check_batch_dims` and a resumed checkpoint's fit.
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
        for f in fields(self):
            value = getattr(self, f.name)
            holds, kind = _TYPE_RULES[f.type]
            if not holds(value):
                problems.append((f.name, f"must be {kind}, got {value!r}"))
            elif f.name in _TAGS and value not in _TAGS[f.name]:
                problems.append((f.name, f"must be one of {list(_TAGS[f.name])}"))
        bad = {name for name, _ in problems}  # no value rule reads these
        # checkpoints and stream keys hold the seed in 64 bits
        if "seed" not in bad and not 0 <= self.seed < 2**64:
            problems.append(("seed", "must be in [0, 2**64)"))
        reals = ("eps", "alpha", "gamma", "m", "c")
        infinite = [n for n in reals if n not in bad and not np.isfinite(getattr(self, n))]
        problems += [(name, "must be finite") for name in infinite]
        if "eps" not in bad and self.eps <= 0:
            problems.append(("eps", "must be > 0"))
        bad.update(infinite)
        # a mode reads only its own fields, and its step (lr_schedule) must be
        # real and >= 0 at every t >= 1: so t + m > 0, which m > -1 makes hold
        for name, mode, ok, rule in (
            ("alpha", "constant", lambda v: v >= 0, ">= 0"),
            ("gamma", "annealed", lambda v: v >= 0, ">= 0"),
            ("m", "annealed", lambda v: v > -1, "> -1"),
            ("p", "annealed", lambda v: 0.5 < v <= 1.0, "in (1/2, 1]"),
            ("c", "sqrt_tq", lambda v: v >= 0, ">= 0"),
        ):
            if self.lr_mode == mode and name not in bad and not ok(getattr(self, name)):
                problems.append((name, f"must be {rule} in {mode} mode"))
        counts = ("rank", "freq_F", "batch_B", "batch_b", "eval_every", "test_points")
        problems += [(n, "must be >= 1") for n in counts if n not in bad and getattr(self, n) < 1]
        if "steps" not in bad and self.steps < 0:
            problems.append(("steps", "must be >= 0"))
        if "widths" not in bad:
            if len(self.widths) < 2 or self.widths[-1] != 1:
                problems.append(("widths", f"must have >= 2 entries and end in 1, got {self.widths}"))
            if any(w < 1 for w in self.widths[1:]):  # widths[0]: the solution's
                problems.append(("widths", f"must be a list of integers >= 1, got {self.widths}"))
            if self.widths and "pde_solution" not in bad:
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


def check_batch_dims(cfg: SdzeConfig) -> None:
    """Refuse index sets larger than the dimension, before a run does any work.

    A run rule, not a config rule, since the default b = 16 loads at any
    dimension: :func:`train` checks it first, :mod:`sdze.harness` before a
    run or sweep cell writes anything.
    """
    if cfg.batch_b > cfg.widths[0]:
        raise ConfigError(
            f"sdze.batch_dims_b = {cfg.batch_b} exceeds pde.dim = {cfg.widths[0]}; "
            "index sets are drawn without replacement"
        )


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

    The message names the keys of the step's :class:`SpatialSample` beside
    the problem's dimension: master, step, B, b and the batch dtype, from
    which :func:`draw_sample` draws the step's batch and index sets again.
    The step is named once, with the run's step count ``steps`` when given.

    ``cause`` says why no loss could be formed, e.g. weights past the range
    of the step dtype.
    """

    def __init__(
        self, step, loss_plus, loss_minus, sample: SpatialSample, cause=None, steps=None
    ):
        self.step = step
        self.loss_plus = loss_plus
        self.loss_minus = loss_minus
        self.sample = sample
        why = f" ({cause})" if cause else ""
        of = f" (of {steps})" if steps is not None else ""
        super().__init__(
            f"non-finite loss: l+={loss_plus}, l-={loss_minus}{why}; "
            f"replay keys: master={sample.master} step={sample.step}{of} "
            f"B={sample.B} b={sample.b} dtype={sample.dtype}"
        )


def step_cores(master: int, subspaces: list[LayerSubspace], t: int) -> list[np.ndarray]:
    """The per-layer cores of step ``t``, each keyed ``(master, CORE_Z, t, layer)``."""
    return [
        sample_core(derive_stream(StreamKey(master, Role.CORE_Z, t, l)), s.rank)
        for l, s in enumerate(subspaces)
    ]


# per-sign tangent multiply-adds, an f64 one counted twice, from which the
# concurrent path is faster than the stacked serial sweep (module docstring)
CONCURRENT_MIN_MACS = 12_000_000


def _concurrent(pair: SignPair, plus: DrawnSample, minus: DrawnSample) -> bool:
    """Whether an estimate's passes run on two threads: from its sample, work and the process."""
    if minus is not plus:
        return False
    work = plus.X.shape[0] * plus.dims.size * pair.transport_macs * (pair.dtype.itemsize // 4)
    if work < CONCURRENT_MIN_MACS or not worker.may_share():
        return False
    return not (plus.X.flags.writeable or plus.dims.flags.writeable)


def directional_delta(
    pair: SignPair,
    problem: PdeProblem,
    plus: DrawnSample,
    minus: DrawnSample,
) -> tuple[float, float, float]:
    """Symmetric-difference estimate (delta, loss+, loss-) of one perturbation.

    ``pair`` is the perturbation: its direction, eps and step dtype.  The
    +eps pass reads ``plus`` and the -eps pass ``minus``; seed locking is
    ``minus is plus``.  The unlocked ablation passes the draw of
    :meth:`SpatialSample.unlocked` on the same batch.  Each draw holds the
    terms of its index sets that no pair changes (:class:`DrawnSample`); the
    pair forms those of the perturbation that do not depend on the sign
    once: those of the batch whenever ``minus.X is plus.X``, and the seed
    rows of the index sets too when ``minus is plus``.  A caller that makes
    several estimates of one perturbation passes one pair to each, which
    then also shares its weights and, on a pinned batch, its batch products
    (:mod:`sdze.net`).

    The losses come from this module's ``stochastic_loss``.  When
    :func:`_concurrent` allows it, the +eps pass runs on the process's worker
    (:mod:`sdze.worker`), in a copy of this thread's context (numpy's
    errstate included), while this thread runs the -eps pass; an error of
    the +eps pass is raised before one of the -eps pass, and the call ends
    after both passes.  Otherwise a locked estimate is one call at the stack
    of both signs, one jet sweep, and an unlocked one a call per sign.  The
    bits are the same on every path (module docstring).
    """
    if _concurrent(pair, plus, minus):
        pair.share(plus.sets)
        reply = worker.submit(stochastic_loss, PerturbView(pair, 1), problem, plus)
        try:
            lm = stochastic_loss(PerturbView(pair, -1), problem, minus)
        finally:
            lp, err = reply.get()  # the +eps pass has ended
            if err is not None:
                raise err
    elif minus is plus:
        lp, lm = stochastic_loss(PerturbView(pair, pair.signs), problem, plus)
    else:
        lp = stochastic_loss(PerturbView(pair, 1), problem, plus)
        lm = stochastic_loss(PerturbView(pair, -1), problem, minus)
    # the difference cancels leading digits; keep it in f64
    return (float(lp) - float(lm)) / (2.0 * pair.eps), float(lp), float(lm)


def draw_signs(
    problem: PdeProblem, cfg: SdzeConfig, t: int, work: Workspace | None = None
) -> tuple[DrawnSample, DrawnSample]:
    """The spatial draws (plus, minus) of step ``t``, keyed by ``cfg``'s seed, B and b.

    The batch is drawn and held in ``cfg``'s step dtype, in ``work``'s
    buffers when one is given.  Seed locked (``cfg.crns``), both passes read
    one draw; unlocked, the minus pass reads :meth:`SpatialSample.unlocked`
    on the same batch.
    """
    dtype = DTYPES[cfg.dtype]
    sample = SpatialSample(cfg.seed, t, cfg.batch_B, cfg.batch_b, problem.dim, dtype=dtype)
    drawn = draw_sample(problem, sample, work=work)
    return drawn, drawn if cfg.crns else draw_sample(problem, sample.unlocked(), batch=drawn)


def sdze_step(
    params: MlpParams,
    subspaces: list[LayerSubspace],
    problem: PdeProblem,
    cfg: SdzeConfig,
    t: int,
    work: Workspace | None = None,
) -> StepRecord:
    """One step; mutates ``params`` and refreshes ``subspaces``.

    ``cfg.crns`` locks the two passes to one spatial sample, and a non-finite
    estimate raises :class:`SdzeDivergenceError`.  Unlocked (the ablation),
    the minus pass draws independent index sets and a non-finite estimate is
    returned in the record without an update.  Weights past the range of the
    step dtype, or a jet sweep whose arithmetic overflows it, leave no loss
    to form, so their estimate is non-finite: the error names the layer and
    the dtype.  The two passes run in :func:`directional_delta`, on one
    thread or two as its gate picks, with the same bits either way.

    ``work``, when given, holds the step's large temporaries (the draw, the
    rhs, the pair's weights, products and planes, the tangent blocks and the
    update's blocks) for the next step to rewrite: a loop of steps passes one
    :class:`Workspace`, as :func:`train` does, and allocates none of them
    after its first step.  The bits are the same either way.
    """
    t0 = time.perf_counter()
    for l in range(len(subspaces)):
        subspaces[l] = maybe_refresh(t, cfg.freq_F, subspaces[l])
    drawn, minus = draw_signs(problem, cfg, t, work)
    cores = step_cores(cfg.seed, subspaces, t)
    cause = None
    try:
        with np.errstate(over="raise"):  # in both passes, on either path
            pair = SignPair(params, subspaces, cores, cfg.eps, DTYPES[cfg.dtype], work)
            delta, lp, lm = directional_delta(pair, problem, drawn, minus)
    except FloatingPointError as err:
        cause, delta, lp, lm = str(err), np.nan, np.nan, np.nan
    pair = None  # one pair per step, freed before the update below changes params
    q = sum(s.rank**2 for s in subspaces)
    alpha = lr_schedule(cfg, t, q)
    if np.isfinite(delta):
        for W, s, Z in zip(params.weights, subspaces, cores):
            apply_rank_r_update(W, s, Z, -alpha * delta, work=work)
    elif cfg.crns:
        raise SdzeDivergenceError(t, lp, lm, drawn.sample, cause, cfg.steps)
    # else unlocked divergence: the ablation's data point, recorded without an update
    wall_ms = (time.perf_counter() - t0) * 1e3
    return StepRecord(t, delta, lp, lm, alpha, wall_ms)


def sdze_step_naive(
    params: MlpParams,
    subspaces: list[LayerSubspace],
    problem: PdeProblem,
    cfg: SdzeConfig,
    t: int,
) -> StepRecord:
    """:func:`sdze_step` unlocked, whatever ``cfg.crns`` says.

    Not a second step: the name stays because ``perfbench``'s tracer wraps
    it, and goes when the benchmark drops that target.
    """
    unlocked = replace(cfg, crns=False)
    return sdze_step(params, subspaces, problem, unlocked, t)


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
    The steps share one :class:`Workspace`, so after the first they allocate
    none of their large temporaries (:func:`sdze_step`).  Nothing runs
    before :func:`check_batch_dims`.
    """
    check_batch_dims(cfg)
    params = init_params if init_params is not None else cfg.init_params()
    if params.dim != problem.dim:
        raise ValueError("network input width must equal the problem dimension")
    subspaces = make_subspaces(params, cfg, start_step)
    test_key = StreamKey(cfg.seed, Role.TEST_POINTS, 0, 0)
    work = Workspace()  # every step's temporaries, for the run

    records: list[StepRecord] = []
    evals: list[tuple[int, float]] = []
    if start_step == 0:
        evals.append((0, relative_l2(params, problem, test_key, cfg.test_points)))
    for t in range(start_step + 1, cfg.steps + 1):
        rec = sdze_step(params, subspaces, problem, cfg, t, work)
        rel = None
        if t % cfg.eval_every == 0 or t == cfg.steps:
            rel = relative_l2(params, problem, test_key, cfg.test_points)
            evals.append((t, rel))
        records.append(rec)
        if on_record is not None:
            on_record(rec, rel)
    return TrainResult(params, subspaces, records, evals)
