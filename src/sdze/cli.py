"""Command-line entry point.

Subcommands: ``train`` runs a config; ``verify`` runs a theory-check suite
and writes one CSV + one JSON report; ``sweep-rank-freq`` and ``sweep-batch``
drive the ablation grids; ``ablate-crns`` runs the variance sweep over eps.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import verify as V
from .harness import (
    config_from_json,
    config_hash,
    run_sweep_batch,
    run_sweep_rank_freq,
    run_train,
    write_csv,
)
from .net import init_mlp
from .optimizer import SdzeConfig
from .spatial import make_problem

VERIFY_SUITES = (
    "quadratic",
    "mean-bias",
    "variance-law",
    "unbiasedness",
    "crns",
    "jets",
    "implicit",
)


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for tok in text.split(","):
        if not tok:
            continue
        a, _, b = tok.partition("x")
        pairs.append((int(a), int(b)))
    return pairs


def _load_config(args) -> SdzeConfig:
    cfg = config_from_json(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if getattr(args, "out", None) is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    if getattr(args, "no_timing", False):
        cfg = dataclasses.replace(cfg, timing=False)
    return cfg


def _run_verify(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    master = args.seed
    suite = args.suite
    detail: dict = {"suite": suite, "seed": master}
    if suite == "quadratic":
        rng = np.random.default_rng(master)
        reports = []
        for q, r, shapes in ((4, 2, [(2, 4)]), (16, 4, [(8, 8)])):
            P = sum(m * n for m, n in shapes)
            H = rng.standard_normal((P, P))
            H = H @ H.T / P + np.eye(P)
            theta = rng.standard_normal(P)
            reports += V.quadratic_identity_check(
                H, theta, r, shapes, args.samples, master=master + q
            )
    elif suite == "mean-bias":
        rng = np.random.default_rng(master)
        theta = rng.standard_normal(8) * 0.5
        report, rows = V.mean_bias_check(
            theta, 2, [(2, 4)], [1e-2, 5e-3, 1e-3], args.samples, master=master
        )
        reports = [report]
        detail["rows"] = rows
    elif suite == "variance-law":
        reports = []
        for tag, dims in (
            ("standard", [0, 1, 2, 3]),
            ("aliased", [0, 0, 0, 0]),
            ("single_term", [0]),
        ):
            rep, info = V.variance_law_check(master, term_dims=dims)
            rep.name = f"{rep.name}_{tag}"
            reports.append(rep)
            detail[tag] = {
                "C1": info["C1"],
                "C2": info["C2"],
                "C3": info["C3"],
                "variances": {str(k): v for k, v in info["variances"].items()},
            }
    elif suite == "unbiasedness":
        reports = V.unbiasedness_check(master)
    elif suite == "crns":
        problem = make_problem("none", args.dim, "two_body", master)
        params = init_mlp([args.dim, 64, 1], "sin", master)
        rows, slope_crns, slope_naive = V.crns_variance_sweep(
            problem,
            params,
            rank=8,
            eps_list=args.eps,
            replicates=args.reps,
            B=20,
            b=args.b,
            master=master,
        )
        detail.update(
            {"rows": rows, "slope_crns": slope_crns, "slope_naive": slope_naive}
        )
        reports = [
            V.IdentityReport(
                "naive_variance_slope",
                -2.0,
                slope_naive,
                args.reps,
                abs(slope_naive + 2.0),
                -2.2 <= slope_naive <= -1.8,
            ),
            V.IdentityReport(
                "crns_variance_slope",
                0.0,
                slope_crns,
                args.reps,
                abs(slope_crns),
                abs(slope_crns) <= 0.3,
            ),
        ]
    elif suite == "jets":
        reports = V.jets_suite(master)
    elif suite == "implicit":
        reports = V.implicit_suite(master)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(suite)

    rows = [r.row() for r in reports]
    write_csv(out / f"{suite}.csv", rows, master, "verify")
    detail["reports"] = rows
    (out / f"{suite}.json").write_text(json.dumps(detail, indent=2, default=float) + "\n")
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.empirical:.6g}")
    return 0 if all(r.passed for r in reports) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="sdze")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--no-timing", action="store_true", help="write wall_ms as 0 for reproducible CSVs")

    p_verify = sub.add_parser("verify", help="run a theory-verification suite")
    p_verify.add_argument("--suite", required=True, choices=VERIFY_SUITES)
    p_verify.add_argument("--out", default="verify_out")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--samples", type=int, default=100_000)
    p_verify.add_argument("--dim", type=int, default=100)
    p_verify.add_argument("--b", type=int, default=5)
    p_verify.add_argument("--reps", type=int, default=500)
    p_verify.add_argument(
        "--eps", type=_parse_float_list, default=[1e-1, 1e-2, 1e-3, 1e-4]
    )

    p_rf = sub.add_parser("sweep-rank-freq", help="rank x refresh-frequency grid")
    p_rf.add_argument("--config", required=True)
    p_rf.add_argument("--ranks", type=_parse_int_list, required=True)
    p_rf.add_argument("--freqs", type=_parse_int_list, required=True)
    p_rf.add_argument("--seed", type=int, default=None)
    p_rf.add_argument("--out", default=None)

    p_sb = sub.add_parser("sweep-batch", help="fixed-budget (B, b) tradeoff")
    p_sb.add_argument("--config", required=True)
    p_sb.add_argument("--pairs", type=_parse_pairs, required=True)
    p_sb.add_argument("--seed", type=int, default=None)
    p_sb.add_argument("--out", default=None)

    p_ab = sub.add_parser("ablate-crns", help="seed-locking variance ablation")
    p_ab.add_argument("--config", required=True)
    p_ab.add_argument("--eps", type=_parse_float_list, required=True)
    p_ab.add_argument("--reps", type=int, default=500)
    p_ab.add_argument("--seed", type=int, default=None)
    p_ab.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    if args.command == "verify":
        return _run_verify(args)

    cfg = _load_config(args)
    out = Path(cfg.out_dir)
    if args.command == "train":
        result = run_train(cfg)
        print(f"final relative L2: {result.evals[-1][1]:.6g}")
        return 0
    if args.command == "sweep-rank-freq":
        rows = run_sweep_rank_freq(cfg, args.ranks, args.freqs)
        write_csv(out / "rank_freq.csv", rows, cfg.seed, config_hash(cfg))
        for row in rows:
            print(row)
        return 0
    if args.command == "sweep-batch":
        rows = run_sweep_batch(cfg, args.pairs)
        write_csv(out / "batch_tradeoff.csv", rows, cfg.seed, config_hash(cfg))
        for row in rows:
            print(row)
        return 0
    if args.command == "ablate-crns":
        rows, slope_crns, slope_naive = V.crns_variance_sweep(
            cfg.make_problem(),
            cfg.init_params(),
            rank=cfg.rank,
            eps_list=args.eps,
            replicates=args.reps,
            B=cfg.batch_B,
            b=cfg.batch_b,
            master=cfg.seed,
            dtype=cfg.dtype,
        )
        write_csv(out / "crns_ablation.csv", rows, cfg.seed, config_hash(cfg))
        print(f"slope crns={slope_crns:.3f} naive={slope_naive:.3f}")
        return 0
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
