"""Command-line entry point.

Subcommands: ``train`` runs a config; ``verify`` runs a theory-check suite
and writes one CSV + one JSON report; ``sweep-rank-freq`` and ``sweep-batch``
drive the ablation grids; ``ablate-crns`` runs the variance sweep over eps.

``verify`` takes a suite, an output directory and a seed, nothing else:
each suite is one call into :mod:`sdze.verify`, a function of the seed that
owns its inputs, sizes and pass rules.  With ``--seed 2026`` the suites
reproduce these acceptance criteria:

* ``implicit``: criterion 1, implicit vs explicit perturbed forward;
* ``quadratic``: criterion 3, the quadratic identities;
* ``unbiasedness``: criterion 4's enumerated unbiasedness;
* ``variance-law``: criterion 4's variance law (its ``standard`` row), plus
  an aliased and a single-term operator;
* ``crns``: criterion 5, the seed-locking ablation;
* ``jets``: criterion 6, jet correctness;
* ``mean-bias``: no criterion; the O(eps^2) shrinkage of the mean bias.

A suite's pass bounds hold at its own sizes only, so none is settable here.
The variance sweep at other sizes, with no verdict, is ``ablate-crns``: any
config's net, at its own ``--eps`` and ``--reps``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import verify as V
from .harness import (
    config_from_json,
    config_hash,
    run_sweep_batch,
    run_sweep_rank_freq,
    run_train,
    write_csv,
)
from .optimizer import SdzeConfig, check_batch_dims

# suite name -> its one call, from the seed to (reports, detail)
VERIFY_SUITES = {
    "quadratic": V.quadratic_suite,
    "mean-bias": V.mean_bias_suite,
    "variance-law": V.variance_law_suite,
    "unbiasedness": lambda seed: (V.unbiasedness_check(seed), {}),
    "crns": V.crns_suite,
    "jets": lambda seed: (V.jets_suite(seed), {}),
    "implicit": lambda seed: (V.implicit_suite(seed), {}),
}


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _checked(parse, check):
    """An argparse type: ``parse`` the text, then refuse what ``check`` refuses."""

    def parse_checked(text: str):
        try:
            value = parse(text)
            check(value)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
        return value

    return parse_checked


_parse_eps_list = _checked(_parse_float_list, V.check_eps_list)
_parse_reps = _checked(int, V.check_replicates)
# every --seed obeys a run config's seed rule: stream keys hold it in 64 bits
_parse_seed = _checked(int, lambda seed: SdzeConfig(seed=seed))


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
    reports, detail = VERIFY_SUITES[args.suite](args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = [r.row() for r in reports]
    write_csv(out / f"{args.suite}.csv", rows, args.seed, "verify")
    detail = {"suite": args.suite, "seed": args.seed, **detail, "reports": rows}
    (out / f"{args.suite}.json").write_text(json.dumps(detail, indent=2, default=float) + "\n")
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.empirical:.6g}")
    return 0 if all(r.passed for r in reports) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="sdze")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=_parse_seed, default=None)
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--no-timing", action="store_true", help="write wall_ms as 0 for reproducible CSVs")

    p_verify = sub.add_parser("verify", help="run a theory-verification suite")
    p_verify.add_argument("--suite", required=True, choices=VERIFY_SUITES)
    p_verify.add_argument("--out", default="verify_out")
    p_verify.add_argument("--seed", type=_parse_seed, default=0)

    p_rf = sub.add_parser("sweep-rank-freq", help="rank x refresh-frequency grid")
    p_rf.add_argument("--config", required=True)
    p_rf.add_argument("--ranks", type=_parse_int_list, required=True)
    p_rf.add_argument("--freqs", type=_parse_int_list, required=True)
    p_rf.add_argument("--seed", type=_parse_seed, default=None)
    p_rf.add_argument("--out", default=None)

    p_sb = sub.add_parser("sweep-batch", help="fixed-budget (B, b) tradeoff")
    p_sb.add_argument("--config", required=True)
    p_sb.add_argument("--pairs", type=_parse_pairs, required=True)
    p_sb.add_argument("--seed", type=_parse_seed, default=None)
    p_sb.add_argument("--out", default=None)

    p_ab = sub.add_parser("ablate-crns", help="seed-locking variance ablation")
    p_ab.add_argument("--config", required=True)
    p_ab.add_argument("--eps", type=_parse_eps_list, required=True)
    p_ab.add_argument("--reps", type=_parse_reps, default=V.CRNS_REPS)
    p_ab.add_argument("--seed", type=_parse_seed, default=None)
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
        check_batch_dims(cfg)
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
