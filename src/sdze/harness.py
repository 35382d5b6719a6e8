"""JSON run configs, metrics/checkpoint I/O, and experiment orchestration.

A run is described by one :class:`~sdze.optimizer.SdzeConfig`.  Its JSON
form is one table, ``_JSON_FIELDS``, from dotted JSON path to config field:
loading, dumping and the unknown-key report all derive from it, and a key
the JSON omits takes the field's default.  Loading is strict: every unknown
key is reported at once.  Each run writes a config echo, a metrics CSV
(header line ``# sdze-version, seed, config-hash``), and periodic + final
checkpoints into its output directory.  Runs are byte-reproducible given the
seed; wall-clock timing can be switched off so the CSV itself is
reproducible too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .net import MlpParams
from .optimizer import (
    PDE_KINDS,
    SdzeConfig,
    StepRecord,
    TrainResult,
    directional_delta,
    make_subspaces,
    train,
)
from .rng import Role, StreamKey, derive_stream
from .spatial import PdeProblem, SpatialSample
from .subspace import sample_core

# Dotted JSON path -> SdzeConfig field.  pde.dim has no field of its own: it
# is widths[0], and an absent net.widths loads as [pde.dim, 128, 128, 1].
_JSON_FIELDS = {
    "pde.kind": "pde_kind",
    "pde.dim": None,
    "pde.solution": "pde_solution",
    "pde.normalization": "normalization",
    "net.widths": "widths",
    "net.activation": "activation",
    "net.act_scale": "act_scale",
    "net.bias": "bias",
    "net.dtype": "dtype",
    "sdze.rank": "rank",
    "sdze.rank_per_layer": "rank_per_layer",
    "sdze.freq_F": "freq_F",
    "sdze.eps": "eps",
    "sdze.lr.mode": "lr_mode",
    "sdze.lr.alpha": "alpha",
    "sdze.lr.gamma": "gamma",
    "sdze.lr.m": "m",
    "sdze.lr.p": "p",
    "sdze.lr.c": "c",
    "sdze.batch_points_B": "batch_B",
    "sdze.batch_dims_b": "batch_b",
    "sdze.crns": "crns",
    "steps": "steps",
    "eval_every": "eval_every",
    "test_points": "test_points",
    "seed": "seed",
    "out_dir": "out_dir",
    "timing": "timing",
}
_BLOCKS = {path.rsplit(".", 1)[0] for path in _JSON_FIELDS if "." in path}
# scalar fields are coerced to their declared type, so 200 and 200.0 agree
_CASTS = {"int": int, "float": float, "bool": bool, "str": str}
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(SdzeConfig)}
assert set(_JSON_FIELDS.values()) - {None} == set(_FIELD_TYPES)


class ConfigError(ValueError):
    """Validation failure; the message lists every offending key."""


def _flatten(raw: dict, prefix: str, leaves: dict, errors: list[str]) -> None:
    for key, value in raw.items():
        path = prefix + key
        if path in _BLOCKS and isinstance(value, dict):
            _flatten(value, path + ".", leaves, errors)
        elif path in _JSON_FIELDS:
            leaves[path] = value
        elif path in _BLOCKS:
            errors.append(f"{path} must be an object")
        else:
            errors.append(f"unknown key: {path}")


def config_from_dict(raw: dict) -> SdzeConfig:
    """Validate a JSON config and resolve it; raises :class:`ConfigError`."""
    leaves: dict = {}
    errors: list[str] = []
    _flatten(raw, "", leaves, errors)
    if "pde.dim" not in leaves:
        errors.append("missing key: pde.dim")
    else:
        dim = int(leaves["pde.dim"])
        if leaves.get("net.widths") is None:  # null loads like an absent key
            leaves["net.widths"] = [dim, 128, 128, 1]
        if leaves["net.widths"][:1] != [dim]:
            errors.append(f"net.widths must start with pde.dim = {dim}")
    if leaves.get("pde.kind", SdzeConfig.pde_kind) not in PDE_KINDS:
        errors.append(f"pde.kind must be one of {sorted(PDE_KINDS)}")
    if errors:
        raise ConfigError("; ".join(errors))
    values = {}
    for path, value in leaves.items():
        name = _JSON_FIELDS[path]
        if name is not None:
            cast = _CASTS.get(_FIELD_TYPES[name])
            values[name] = cast(value) if cast else value
    return SdzeConfig(**values)


def config_from_json(path: str | Path) -> SdzeConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def config_to_dict(cfg: SdzeConfig) -> dict:
    """The nested JSON form of ``cfg``, every key written."""
    out: dict = {}
    for path, name in _JSON_FIELDS.items():
        *blocks, key = path.split(".")
        node = out
        for block in blocks:
            node = node.setdefault(block, {})
        node[key] = cfg.widths[0] if name is None else getattr(cfg, name)
    return out


def config_hash(cfg: SdzeConfig) -> str:
    # identifies the experiment: output location and timing switch excluded
    material = config_to_dict(cfg)
    del material["out_dir"], material["timing"]
    canon = json.dumps(material, sort_keys=True).encode()
    return hashlib.sha256(canon).hexdigest()[:12]


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


def load_checkpoint(path: str | Path) -> tuple[list[np.ndarray], int, int]:
    """Returns (weights, step, seed); raises on bad magic/version/truncation."""
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
    return weights, step, seed


def _layer_shapes(widths: list[int], bias: bool) -> list[tuple[int, int]]:
    return [(m + int(bias), n) for m, n in zip(widths, widths[1:])]


def _resume_params(cfg: SdzeConfig, path: str | Path) -> tuple[MlpParams, int]:
    """The checkpoint's network and step, refused unless it fits ``cfg``."""
    weights, step, seed = load_checkpoint(path)
    if seed != cfg.seed:
        raise ValueError(f"checkpoint seed {seed} != config seed {cfg.seed}")
    shapes = [W.shape for W in weights]
    want = _layer_shapes(cfg.widths, cfg.bias)
    if shapes != want:
        key = "net.bias" if shapes == _layer_shapes(cfg.widths, not cfg.bias) else "net.widths"
        raise ConfigError(f"{key}: checkpoint layer shapes {shapes}, config implies {want}")
    return MlpParams(weights, cfg.activation, cfg.act_scale, cfg.bias), step


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


def run_train(cfg: SdzeConfig, resume_from: str | Path | None = None) -> TrainResult:
    """Full training run with metrics CSV, checkpoints, and config echo.

    A checkpoint to resume from must match the config's seed and layer
    shapes; it is checked before anything is written.
    """
    problem = cfg.make_problem()
    start_step = 0
    if resume_from is not None:
        params, start_step = _resume_params(cfg, resume_from)
    else:
        params = cfg.init_params()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n")
    if resume_from is None:
        save_checkpoint(out / "ckpt_initial.sdze", params, 0, cfg.seed)

    metrics = out / "metrics.csv"
    fresh = start_step == 0 or not metrics.exists()
    if not fresh:
        _truncate_metrics(metrics, start_step)
    with open(metrics, "w" if fresh else "a", encoding="utf-8", newline="\n") as fh:
        if fresh:
            fh.write(csv_header(cfg.seed, config_hash(cfg)) + "\n")
            fh.write(METRIC_COLUMNS + "\n")

        def on_record(rec: StepRecord, rel: float | None) -> None:
            fh.write(metric_row(rec, rel, cfg.timing) + "\n")
            if rel is not None and rec.step < cfg.steps:
                save_checkpoint(
                    out / f"ckpt_{rec.step:08d}.sdze", params, rec.step, cfg.seed
                )

        result = train(
            cfg,
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
    cfg: SdzeConfig, ranks: list[int], freqs: list[int]
) -> list[dict]:
    """One short run per (rank, refresh frequency) cell; final relative L2 per row."""
    if not ranks or not freqs:
        raise ValueError("rank and frequency grids must be non-empty")
    problem = cfg.make_problem()

    def cell(r: int, F: int) -> dict:
        scfg = dataclasses.replace(cfg, rank=r, freq_F=F)
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
    cfg: SdzeConfig, problem: PdeProblem, B: int, b: int, replicates: int = 200
) -> float:
    """Variance of the step estimate over replicated spatial samples at the
    frozen initial parameters (perturbation direction held fixed)."""
    params = cfg.init_params()
    scfg = dataclasses.replace(cfg, batch_B=B, batch_b=b)
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
    cfg: SdzeConfig, pairs: list[tuple[int, int]], replicates: int = 200
) -> list[dict]:
    """Fixed-budget (B, b) tradeoff: estimator variance + short-run final L2."""
    products = {B * b for B, b in pairs}
    if len(products) != 1:
        raise ValueError(f"all (B, b) pairs must share the same product, got {products}")
    problem = cfg.make_problem()
    rows = []
    for B, b in pairs:
        var = delta_variance(cfg, problem, B, b, replicates)
        result = train(dataclasses.replace(cfg, batch_B=B, batch_b=b), problem)
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
