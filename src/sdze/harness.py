"""JSON run configs, metrics/checkpoint I/O, and experiment orchestration.

A run is described by one :class:`~sdze.optimizer.SdzeConfig`.  Its JSON
form is one table, ``_JSON_FIELDS``, from dotted JSON path to config field:
loading, dumping and naming each error's key derive from it, and an omitted
key takes the field's default.  Loading reports every offending key in one
:class:`ConfigError`.  Each rule has one owner: the loader checks the JSON
form (unknown keys, objects, JSON types, ``pde.dim`` and ``net.widths[0]``),
``SdzeConfig`` every value, and :func:`check_batch_dims` that a run's index
sets fit the dimension.  Each sweep cell is a config too, the sweep's config
with the cell's fields replaced, and the same owners check every cell before
any cell runs.
Each run writes a config echo, a metrics CSV (header line
``# sdze-version, seed, config-hash``, then the ``METRIC_COLUMNS`` line and
one row per step), and periodic + final checkpoints into its output
directory.  Runs are byte-reproducible given the seed; wall-clock timing can
be switched off so the CSV itself is reproducible too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .net import MlpParams, SignPair
from .optimizer import (
    DTYPES,
    ConfigError,
    SdzeConfig,
    StepRecord,
    TrainResult,
    directional_delta,
    draw_signs,
    make_subspaces,
    step_cores,
    train,
)
from .spatial import PdeProblem

# Dotted JSON path -> SdzeConfig field.  pde.dim has no field of its own: it
# is widths[0], and an absent net.widths loads as [pde.dim, 128, 128, 1].
_JSON_FIELDS = {
    "pde.kind": "pde_kind",
    "pde.dim": None,
    "pde.solution": "pde_solution",
    "pde.normalization": "normalization",
    "net.widths": "widths",
    "net.activation": "activation",
    "net.bias": "bias",
    "net.dtype": "dtype",
    "sdze.rank": "rank",
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
_JSON_KEYS = {name: path for path, name in _JSON_FIELDS.items()}  # None -> pde.dim
_BLOCKS = {path.rsplit(".", 1)[0] for path in _JSON_FIELDS if "." in path}
# JSON type each scalar field accepts; pde.dim, which has no field, is an int
_SCALARS = {"int": "an integer", "float": "a number", "bool": "true or false", "str": "a string"}
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(SdzeConfig)}
assert set(_JSON_FIELDS.values()) - {None} == set(_FIELD_TYPES)


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


def _typed(kind: str, value):
    """``value`` as a scalar of type ``kind``, or None if JSON gave another type.

    Ints take integral floats (200.0 is 200), floats take ints; a boolean is
    never a number and a string is never a boolean.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "bool" and isinstance(value, bool) or kind == "str" and isinstance(value, str):
        return value
    if kind == "float" and number:
        return float(value)
    if kind == "int" and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    return None


def _int_list(value) -> list[int] | None:
    """``value`` as a list of integers >= 1, or None if it is not one."""
    if not isinstance(value, list):
        return None
    items = [_typed("int", v) for v in value]
    return items if all(v is not None and v >= 1 for v in items) else None


def config_from_dict(raw: dict) -> SdzeConfig:
    """Resolve a JSON config; raises one :class:`ConfigError` naming every bad key.

    The config is built from the keys that passed the loader's own checks,
    so the problems it finds are reported with the loader's, by JSON key.
    """
    leaves: dict = {}
    errors: list[str] = []
    _flatten(raw, "", leaves, errors)
    for path, value in leaves.items():
        name = _JSON_FIELDS[path]
        kind = "int" if name is None else _FIELD_TYPES[name]
        if kind in _SCALARS:
            leaves[path] = _typed(kind, value)  # None marks a reported key
            if leaves[path] is None:
                errors.append(f"{path} must be {_SCALARS[kind]}, got {value!r}")
        elif value is not None:  # a list field; null takes the default
            leaves[path] = _int_list(value)
            if leaves[path] is None:
                errors.append(f"{path} must be a list of integers >= 1, got {value!r}")
    if "pde.dim" not in leaves:
        errors.append("missing key: pde.dim")
    dim = leaves.get("pde.dim")
    if leaves.get("net.widths") is None and dim is not None:
        leaves["net.widths"] = [dim, 128, 128, 1]  # null loads like an absent key
    widths = leaves.get("net.widths")  # None without pde.dim: the config takes the default
    if widths is not None and dim is not None and widths[0] != dim:
        errors.append(f"net.widths must start with pde.dim = {dim}")
    fields = {
        _JSON_FIELDS[path]: value
        for path, value in leaves.items()
        if _JSON_FIELDS[path] and value is not None  # pde.dim lives on as widths[0]
    }
    try:
        cfg = SdzeConfig(**fields)
    except ConfigError as err:
        errors += [f"{_JSON_KEYS[name]} {why}" for name, why in err.problems]
    if errors:
        raise ConfigError("; ".join(errors))
    return cfg


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

METRIC_COLUMNS = "step,alpha,delta_hat,loss_plus,loss_minus,rel_l2,wall_ms"


def csv_header(seed: int, config_hash: str) -> str:
    return f"# sdze-version={__version__}, seed={seed}, config-hash={config_hash}"


def _fmt(x: float) -> str:
    return repr(float(x))


def metric_row(rec: StepRecord, rel: float | None, timing: bool) -> str:
    wall = rec.wall_ms if timing else 0.0
    rel_s = "" if rel is None else _fmt(rel)
    return (
        f"{rec.step},{_fmt(rec.alpha)},{_fmt(rec.delta_hat)},{_fmt(rec.loss_plus)},"
        f"{_fmt(rec.loss_minus)},{rel_s},{_fmt(wall)}"
    )


# --- checkpoints ---------------------------------------------------------------


@contextmanager
def _replacing(path: Path, mode: str, **open_kw):
    """Write ``<path>.tmp`` and move it over ``path``; a failed write removes it.

    ``path`` therefore always holds either its old or its new whole content.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **open_kw) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_MAGIC = b"SDZE"
_VERSION = 1


def save_checkpoint(path: str | Path, params: MlpParams, step: int, seed: int) -> None:
    """Little-endian: magic, version u32, seed u64, step u64, layer count u32,
    then per layer rows u32, cols u32 and row-major f64 values.

    Written to a temp file and moved into place, so ``path`` always holds a
    whole checkpoint and a failed write leaves no temp file behind.
    """
    with _replacing(Path(path), "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQQI", _VERSION, seed, step, len(params.weights)))
        for W in params.weights:
            fh.write(struct.pack("<II", W.shape[0], W.shape[1]))
            fh.write(np.ascontiguousarray(W, dtype="<f8").tobytes())


def _read_exact(fh, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise ValueError("truncated checkpoint")
    return buf


def load_checkpoint(path: str | Path) -> tuple[list[np.ndarray], int, int]:
    """Returns (weights, step, seed); raises ``ValueError`` on bad magic or
    version, truncation, or bytes after the last layer."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r}")
        version, seed, step, n_layers = struct.unpack("<IQQI", _read_exact(fh, 24))
        if version != _VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        weights = []
        for _ in range(n_layers):
            rows, cols = struct.unpack("<II", _read_exact(fh, 8))
            buf = _read_exact(fh, rows * cols * 8)
            weights.append(np.frombuffer(buf, dtype="<f8").reshape(rows, cols).copy())
        if fh.read(1):
            raise ValueError("trailing bytes after the last checkpoint layer")
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
    return MlpParams(weights, cfg.activation, cfg.bias), step


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
    with _replacing(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(keep)


def _check_columns(path: Path) -> None:
    """Refuse to append rows to a metrics file with another column line."""
    with open(path, encoding="utf-8", newline="\n") as fh:
        columns = next((line.rstrip("\n") for line in fh if not line.startswith("#")), None)
    if columns != METRIC_COLUMNS:
        raise ValueError(
            f"{path}: columns {columns!r} differ from {METRIC_COLUMNS!r}; "
            "resume into a new out_dir"
        )


def check_batch_dims(cfg: SdzeConfig) -> None:
    """Refuse index sets larger than the dimension, before a run does any work.

    Not a config rule: the default b = 16 loads at any dimension, and
    ``sweep-batch`` checks each cell's own b.
    """
    if cfg.batch_b > cfg.widths[0]:
        raise ConfigError(
            f"sdze.batch_dims_b = {cfg.batch_b} exceeds pde.dim = {cfg.widths[0]}; "
            "index sets are drawn without replacement"
        )


def run_train(cfg: SdzeConfig, resume_from: str | Path | None = None) -> TrainResult:
    """Full training run with metrics CSV, checkpoints, and config echo.

    ``cfg`` checked its values when it was built; the run's own rules are
    checked here before anything is written: :func:`check_batch_dims`, a
    checkpoint to resume from must match the seed and layer shapes and lie
    at or before ``steps``, and a ``metrics.csv`` must have these columns.
    """
    check_batch_dims(cfg)
    problem = cfg.make_problem()
    start_step = 0
    if resume_from is not None:
        params, start_step = _resume_params(cfg, resume_from)
        if start_step > cfg.steps:
            raise ConfigError(
                f"steps = {cfg.steps} is before the checkpoint's step {start_step}; "
                "resume with steps >= the checkpoint's step"
            )
    else:
        params = cfg.init_params()
    out = Path(cfg.out_dir)
    metrics = out / "metrics.csv"
    fresh = start_step == 0 or not metrics.exists()
    if not fresh:
        _check_columns(metrics)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n")
    if resume_from is None:
        save_checkpoint(out / "ckpt_initial.sdze", params, 0, cfg.seed)

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


def _final_rel_l2(result: TrainResult) -> float:
    return result.evals[-1][1]


def _sweep_cells(cfg: SdzeConfig, grid: list[tuple[str, dict]]) -> list[SdzeConfig]:
    """One config per (label, replaced fields) cell of ``grid``, all checked
    before any cell runs; a refused cell's error is its label and the message
    of the rule's owner, ``SdzeConfig`` or :func:`check_batch_dims`."""
    if not grid:
        raise ConfigError("the sweep grid is empty")
    cells = []
    for label, fields in grid:
        try:
            cell = dataclasses.replace(cfg, **fields)
            check_batch_dims(cell)
        except ConfigError as err:
            raise ConfigError(f"{label}: {err}") from None
        cells.append(cell)
    return cells


def run_sweep_rank_freq(cfg: SdzeConfig, ranks: list[int], freqs: list[int]) -> list[dict]:
    """One short run per (rank, refresh frequency) cell; final relative L2 per row."""
    grid = [(f"rank {r}, freq {F}", {"rank": r, "freq_F": F}) for r in ranks for F in freqs]
    cells = _sweep_cells(cfg, grid)
    problem = cfg.make_problem()
    rows = [
        {"rank": c.rank, "freq_F": c.freq_F, "final_rel_l2": _final_rel_l2(train(c, problem))}
        for c in cells
    ]
    return sorted(rows, key=lambda row: (row["rank"], row["freq_F"]))


def delta_variance(cfg: SdzeConfig, problem: PdeProblem, replicates: int = 200) -> float:
    """Variance of the step estimate over replicated spatial samples at the
    frozen initial parameters (perturbation direction held fixed).

    Replicate k draws the samples of step k as a step does, at ``cfg``'s B, b
    and seed-locking mode (:func:`~sdze.optimizer.draw_signs`).
    """
    params = cfg.init_params()
    subspaces = make_subspaces(params, cfg)
    cores = step_cores(cfg.seed, subspaces, 0)
    # one perturbation: every replicate reads the same pair's weights
    pair = SignPair(params, subspaces, cores, cfg.eps, DTYPES[cfg.dtype])
    deltas = [
        directional_delta(pair, problem, *draw_signs(problem, cfg, k))[0]
        for k in range(1, replicates + 1)
    ]
    return float(np.var(np.asarray(deltas), ddof=1))


def run_sweep_batch(
    cfg: SdzeConfig, pairs: list[tuple[int, int]], replicates: int = 200
) -> list[dict]:
    """Fixed-budget (B, b) tradeoff: estimator variance + short-run final L2.

    Each pair is a cell config with ``batch_B`` and ``batch_b`` replaced, and
    all of them are checked before any work: the pairs share one product
    B * b, and each cell passes ``SdzeConfig`` and :func:`check_batch_dims`.
    """
    grid = [(f"pair {B}x{b}", {"batch_B": B, "batch_b": b}) for B, b in pairs]
    cells = _sweep_cells(cfg, grid)
    products = {c.batch_B * c.batch_b for c in cells}
    if len(products) != 1:
        raise ValueError(f"all (B, b) pairs must share the same product, got {products}")
    problem = cfg.make_problem()
    return [
        {"B": c.batch_B, "b": c.batch_b, "delta_variance": delta_variance(c, problem, replicates),
         "final_rel_l2": _final_rel_l2(train(c, problem))}
        for c in cells
    ]


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
