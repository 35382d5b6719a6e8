"""Run configuration, metrics/checkpoint I/O, and experiment orchestration.

Configs are JSON documents validated strictly on load: unknown keys are
rejected and every offending key is reported at once.  Each run writes a
config echo, a metrics CSV (header line ``# sdze-version, seed,
config-hash``), and periodic + final checkpoints into its output directory.
Runs are byte-reproducible given the seed; wall-clock timing can be switched
off so the CSV itself is reproducible too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .alloc import AllocationLedger
from .net import MlpParams, init_mlp
from .optimizer import (
    SdzeConfig,
    StepRecord,
    TrainResult,
    directional_delta,
    make_subspaces,
    train,
)
from .rng import Role, StreamKey, derive_stream
from .spatial import PdeProblem, SpatialSample, make_problem
from .subspace import sample_core

PDE_KINDS = {"poisson": "none", "allen_cahn": "allen_cahn", "sine_gordon": "sine_gordon"}

_SCHEMA = {
    "pde": {"kind", "dim", "solution", "normalization"},
    "net": {"widths", "activation", "act_scale", "bias", "dtype"},
    "sdze": {
        "rank",
        "rank_per_layer",
        "freq_F",
        "eps",
        "lr",
        "batch_points_B",
        "batch_dims_b",
        "crns",
    },
    "lr": {"mode", "alpha", "gamma", "m", "p", "c"},
}
_TOP_KEYS = {"pde", "net", "sdze", "steps", "eval_every", "test_points", "seed", "out_dir", "timing"}


class ConfigError(ValueError):
    """Validation failure; the message lists every offending key."""


@dataclass
class RunConfig:
    """JSON-facing run recipe; flattens into problem + optimizer config."""

    pde_kind: str = "poisson"
    pde_dim: int = 0
    pde_solution: str = "two_body"
    pde_normalization: str = "dim_normalized"
    widths: list[int] | None = None
    activation: str = "sin"
    act_scale: float = 1.0
    bias: bool = False
    dtype: str = "f64"
    rank: int = 16
    rank_per_layer: list[int] | None = None
    freq_F: int = 1000
    eps: float = 1e-3
    lr: dict = field(default_factory=lambda: {"mode": "annealed", "gamma": 3.0, "m": 200.0, "p": 0.6})
    batch_points_B: int = 100
    batch_dims_b: int = 16
    crns: bool = True
    steps: int = 20000
    eval_every: int = 500
    test_points: int = 2000
    seed: int = 0
    out_dir: str = "runs/default"
    timing: bool = True

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        errors = []
        for key in raw:
            if key not in _TOP_KEYS:
                errors.append(f"unknown key: {key}")
        for block in ("pde", "net", "sdze"):
            for key in raw.get(block, {}):
                if key not in _SCHEMA[block]:
                    errors.append(f"unknown key: {block}.{key}")
        for key in raw.get("sdze", {}).get("lr", {}):
            if key not in _SCHEMA["lr"]:
                errors.append(f"unknown key: sdze.lr.{key}")
        pde = raw.get("pde", {})
        if "dim" not in pde:
            errors.append("missing key: pde.dim")
        if pde.get("kind", "poisson") not in PDE_KINDS:
            errors.append(f"pde.kind must be one of {sorted(PDE_KINDS)}")
        if errors:
            raise ConfigError("; ".join(errors))

        net = raw.get("net", {})
        sdze = raw.get("sdze", {})
        cfg = RunConfig(
            pde_kind=pde.get("kind", "poisson"),
            pde_dim=int(pde["dim"]),
            pde_solution=pde.get("solution", "two_body"),
            pde_normalization=pde.get("normalization", "dim_normalized"),
            widths=net.get("widths"),
            activation=net.get("activation", "sin"),
            act_scale=float(net.get("act_scale", 1.0)),
            bias=bool(net.get("bias", False)),
            dtype=net.get("dtype", "f64"),
            rank=int(sdze.get("rank", 16)),
            rank_per_layer=sdze.get("rank_per_layer"),
            freq_F=int(sdze.get("freq_F", 1000)),
            eps=float(sdze.get("eps", 1e-3)),
            lr=dict(sdze.get("lr", {"mode": "annealed", "gamma": 3.0, "m": 200.0, "p": 0.6})),
            batch_points_B=int(sdze.get("batch_points_B", 100)),
            batch_dims_b=int(sdze.get("batch_dims_b", 16)),
            crns=bool(sdze.get("crns", True)),
            steps=int(raw.get("steps", 20000)),
            eval_every=int(raw.get("eval_every", 500)),
            test_points=int(raw.get("test_points", 2000)),
            seed=int(raw.get("seed", 0)),
            out_dir=str(raw.get("out_dir", "runs/default")),
            timing=bool(raw.get("timing", True)),
        )
        cfg.to_sdze()  # surfaces optimizer-level validation errors now
        return cfg

    @staticmethod
    def from_json(path: str | Path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            return RunConfig.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "pde": {
                "kind": self.pde_kind,
                "dim": self.pde_dim,
                "solution": self.pde_solution,
                "normalization": self.pde_normalization,
            },
            "net": {
                "widths": self.net_widths(),
                "activation": self.activation,
                "act_scale": self.act_scale,
                "bias": self.bias,
                "dtype": self.dtype,
            },
            "sdze": {
                "rank": self.rank,
                "rank_per_layer": self.rank_per_layer,
                "freq_F": self.freq_F,
                "eps": self.eps,
                "lr": self.lr,
                "batch_points_B": self.batch_points_B,
                "batch_dims_b": self.batch_dims_b,
                "crns": self.crns,
            },
            "steps": self.steps,
            "eval_every": self.eval_every,
            "test_points": self.test_points,
            "seed": self.seed,
            "out_dir": self.out_dir,
            "timing": self.timing,
        }

    def net_widths(self) -> list[int]:
        return self.widths if self.widths else [self.pde_dim, 128, 128, 1]

    def config_hash(self) -> str:
        # identifies the experiment: output location and timing switch excluded
        material = self.to_dict()
        material.pop("out_dir")
        material.pop("timing")
        canon = json.dumps(material, sort_keys=True).encode()
        return hashlib.sha256(canon).hexdigest()[:12]

    def make_problem(self) -> PdeProblem:
        return make_problem(
            PDE_KINDS[self.pde_kind],
            self.pde_dim,
            self.pde_solution,
            self.seed,
            self.pde_normalization,
        )

    def to_sdze(self) -> SdzeConfig:
        lr = self.lr
        return SdzeConfig(
            seed=self.seed,
            widths=self.net_widths(),
            activation=self.activation,
            act_scale=self.act_scale,
            bias=self.bias,
            dtype=self.dtype,
            eps=self.eps,
            lr_mode=lr.get("mode", "annealed"),
            alpha=float(lr.get("alpha", 1e-3)),
            gamma=float(lr.get("gamma", 1.0)),
            m=float(lr.get("m", 0.0)),
            p=float(lr.get("p", 1.0)),
            c=float(lr.get("c", 1.0)),
            steps=self.steps,
            rank=self.rank,
            rank_per_layer=self.rank_per_layer,
            freq_F=self.freq_F,
            batch_B=self.batch_points_B,
            batch_b=self.batch_dims_b,
            crns=self.crns,
            normalization=self.pde_normalization,
            eval_every=self.eval_every,
            test_points=self.test_points,
        )


# --- metrics CSV --------------------------------------------------------------

METRIC_COLUMNS = (
    "step,alpha,delta_hat,loss_plus,loss_minus,rel_l2,wall_ms,peak_tmp_elems"
)


def csv_header(seed: int, config_hash: str) -> str:
    return f"# sdze-version={__version__}, seed={seed}, config-hash={config_hash}"


def _fmt(x: float) -> str:
    return repr(float(x))


def metric_row(rec: StepRecord, rel: float | None, timing: bool) -> str:
    wall = rec.wall_ms if timing else 0.0
    rel_s = "" if rel is None else _fmt(rel)
    return (
        f"{rec.step},{_fmt(rec.alpha)},{_fmt(rec.delta_hat)},{_fmt(rec.loss_plus)},"
        f"{_fmt(rec.loss_minus)},{rel_s},{_fmt(wall)},{rec.peak_tmp_elems}"
    )


# --- checkpoints ---------------------------------------------------------------

_MAGIC = b"SDZE"
_VERSION = 1


def save_checkpoint(path: str | Path, params: MlpParams, step: int, seed: int) -> None:
    """Little-endian: magic, version u32, seed u64, step u64, layer count u32,
    then per layer rows u32, cols u32 and row-major f64 values."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQQI", _VERSION, seed, step, len(params.weights)))
        for W in params.weights:
            fh.write(struct.pack("<II", W.shape[0], W.shape[1]))
            fh.write(np.ascontiguousarray(W, dtype="<f8").tobytes())


def load_checkpoint(
    path: str | Path,
    activation: str = "sin",
    act_scale: float = 1.0,
    bias: bool = False,
) -> tuple[MlpParams, int, int]:
    """Returns (params, step, seed); raises on bad magic/version/truncation."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r}")
        version, seed, step, n_layers = struct.unpack("<IQQI", fh.read(24))
        if version != _VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        weights = []
        for _ in range(n_layers):
            rows, cols = struct.unpack("<II", fh.read(8))
            buf = fh.read(rows * cols * 8)
            if len(buf) != rows * cols * 8:
                raise ValueError("truncated checkpoint")
            weights.append(np.frombuffer(buf, dtype="<f8").reshape(rows, cols).copy())
    return MlpParams(weights, activation, act_scale, bias), step, seed


# --- run orchestration ----------------------------------------------------------


def _truncate_metrics(path: Path, step: int) -> None:
    """Keep the header and the rows up to ``step``, atomically.

    A run resumed from the checkpoint of ``step`` then appends exactly the
    rows an uninterrupted run writes after it, even when the interrupted run
    got further than its last checkpoint or tore its last line.
    """
    keep = []
    with open(path, encoding="utf-8", newline="\n") as fh:
        for line in fh:
            lead = line.split(",", 1)[0]
            if not line.endswith("\n") or (lead.isdigit() and int(lead) > step):
                break
            keep.append(line)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(keep)
    os.replace(tmp, path)


def run_train(cfg: RunConfig, resume_from: str | Path | None = None) -> TrainResult:
    """Full training run with metrics CSV, checkpoints, and config echo."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(cfg.to_dict(), indent=2) + "\n")
    problem = cfg.make_problem()
    sdze_cfg = cfg.to_sdze()

    start_step = 0
    if resume_from is not None:
        params, start_step, ckpt_seed = load_checkpoint(
            resume_from, cfg.activation, cfg.act_scale, cfg.bias
        )
        if ckpt_seed != cfg.seed:
            raise ValueError(f"checkpoint seed {ckpt_seed} != config seed {cfg.seed}")
    else:
        params = init_mlp(cfg.net_widths(), cfg.activation, cfg.seed, cfg.act_scale, cfg.bias)
        save_checkpoint(out / "ckpt_initial.sdze", params, 0, cfg.seed)

    metrics = out / "metrics.csv"
    fresh = start_step == 0 or not metrics.exists()
    if not fresh:
        _truncate_metrics(metrics, start_step)
    with open(metrics, "w" if fresh else "a", encoding="utf-8", newline="\n") as fh:
        if fresh:
            fh.write(csv_header(cfg.seed, cfg.config_hash()) + "\n")
            fh.write(METRIC_COLUMNS + "\n")

        def on_record(rec: StepRecord, rel: float | None) -> None:
            fh.write(metric_row(rec, rel, cfg.timing) + "\n")
            if rel is not None and rec.step < cfg.steps:
                save_checkpoint(
                    out / f"ckpt_{rec.step:08d}.sdze", params, rec.step, cfg.seed
                )

        result = train(
            sdze_cfg,
            problem,
            init_params=params,
            start_step=start_step,
            on_record=on_record,
        )
    save_checkpoint(out / "ckpt_final.sdze", result.params, cfg.steps, cfg.seed)
    return result


def _worker_count() -> int:
    env = os.environ.get("SDZE_THREADS", "")
    if env.strip():
        return max(1, int(env))
    return 1


def _final_rel_l2(result: TrainResult) -> float:
    return result.evals[-1][1]


def run_sweep_rank_freq(
    cfg: RunConfig, ranks: list[int], freqs: list[int]
) -> list[dict]:
    """One short run per (rank, refresh frequency) cell; final relative L2 per row."""
    if not ranks or not freqs:
        raise ValueError("rank and frequency grids must be non-empty")
    problem = cfg.make_problem()

    def cell(r: int, F: int) -> dict:
        scfg = dataclasses.replace(cfg.to_sdze(), rank=r, freq_F=F)
        result = train(scfg, problem)
        return {"rank": r, "freq_F": F, "final_rel_l2": _final_rel_l2(result)}

    jobs = [(r, F) for r in ranks for F in freqs]
    workers = _worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda rf: cell(*rf), jobs))
    else:
        rows = [cell(r, F) for r, F in jobs]
    return sorted(rows, key=lambda row: (row["rank"], row["freq_F"]))


def delta_variance(
    cfg: RunConfig, problem: PdeProblem, B: int, b: int, replicates: int = 200
) -> float:
    """Variance of the step estimate over replicated spatial samples at the
    frozen initial parameters (perturbation direction held fixed)."""
    params = init_mlp(cfg.net_widths(), cfg.activation, cfg.seed, cfg.act_scale, cfg.bias)
    scfg = dataclasses.replace(cfg.to_sdze(), batch_B=B, batch_b=b)
    subspaces = make_subspaces(params, scfg)
    cores = [
        sample_core(derive_stream(StreamKey(cfg.seed, Role.CORE_Z, 0, l)), s.rank)
        for l, s in enumerate(subspaces)
    ]
    deltas = []
    for k in range(1, replicates + 1):
        sample = SpatialSample(cfg.seed, k, B, b, problem.dim)
        delta, _, _ = directional_delta(
            params, subspaces, cores, problem, sample, scfg.eps
        )
        deltas.append(delta)
    return float(np.var(np.asarray(deltas), ddof=1))


def run_sweep_batch(
    cfg: RunConfig, pairs: list[tuple[int, int]], replicates: int = 200
) -> list[dict]:
    """Fixed-budget (B, b) tradeoff: estimator variance + short-run final L2."""
    products = {B * b for B, b in pairs}
    if len(products) != 1:
        raise ValueError(f"all (B, b) pairs must share the same product, got {products}")
    problem = cfg.make_problem()
    rows = []
    for B, b in pairs:
        var = delta_variance(cfg, problem, B, b, replicates)
        scfg = dataclasses.replace(cfg.to_sdze(), batch_B=B, batch_b=b)
        result = train(scfg, problem)
        rows.append(
            {"B": B, "b": b, "delta_variance": var, "final_rel_l2": _final_rel_l2(result)}
        )
    return rows


def write_csv(path: str | Path, rows: list[dict], seed: int, config_hash: str) -> None:
    """UTF-8 CSV with the standard provenance header line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_header(seed, config_hash) + "\n")
        if not rows:
            return
        cols = list(rows[0].keys())
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    _fmt(row[c]) if isinstance(row[c], float) else str(row[c])
                    for c in cols
                )
                + "\n"
            )
