"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live; the
full-scale training criterion dominates the runtime.  On a 2-core box it
took 41 s with ``OPENBLAS_NUM_THREADS=1``, where each step's two passes run
on the two cores, and 48 s with BLAS unpinned, where they run one after the
other on a two-thread BLAS.  It is marked ``slow``: ``pytest -m "not slow"``
runs the rest.
"""

import dataclasses
import time

import numpy as np
import pytest

from sdze import net, optimizer
from sdze.harness import config_from_dict, run_train
from sdze.net import init_mlp
from sdze.optimizer import SdzeConfig, make_subspaces, sdze_step, train
from sdze.rng import CHUNK_BYTES, Role, StreamKey, derive_stream
from sdze.spatial import make_problem
from sdze.subspace import BLOCK_ELEMS, BLOCK_ROWS, _qr_orthonormal, plan_reshape, refresh_bases
from sdze.verify import (
    QUADRATIC_CASES,
    crns_suite,
    implicit_suite,
    jets_suite,
    quadratic_suite,
    unbiasedness_check,
    variance_law_check,
)

MASTER = 2026


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return ok


def test_criterion_1_implicit_vs_explicit():
    t0 = time.time()
    reports = implicit_suite(MASTER)
    worst = max(r.empirical for r in reports)
    ok = len(reports) >= 20 and all(r.passed for r in reports)
    ks = {r.name.rsplit("_k", 1)[-1] for r in reports}
    ok &= not ks.issubset({"1"})
    assert report(
        "criterion-1 implicit-vs-explicit",
        ok,
        f"{len(reports)} cases incl. splits k={sorted(ks)}, worst rel diff "
        f"{worst:.2e} (<= 1e-10), {time.time() - t0:.1f}s",
    )


def test_criterion_2_subspace_orthogonality():
    t0 = time.time()
    worst_orth = 0.0
    worst_kron = 0.0
    for i, (m, n, r) in enumerate([(40, 12, 4), (128, 1, 8), (16, 50, 5), (9, 9, 3)]):
        for step in (0, 5):
            plan = plan_reshape(m, n)
            U, V = refresh_bases(
                derive_stream(StreamKey(MASTER, Role.BASE_U, step, i)),
                derive_stream(StreamKey(MASTER, Role.BASE_V, step, i)),
                plan,
                min(r, *plan.square),
            )
            rr = U.shape[1]
            worst_orth = max(
                worst_orth,
                np.abs(U.T @ U - np.eye(rr)).max(),
                np.abs(V.T @ V - np.eye(rr)).max(),
            )
            K = np.kron(V, U)
            worst_kron = max(worst_kron, np.abs(K.T @ K - np.eye(rr * rr)).max())
    ok = worst_orth <= 1e-10 and worst_kron <= 1e-10
    assert report(
        "criterion-2 subspace orthogonality",
        ok,
        f"max |U'U - I| = {worst_orth:.2e}, max |(VxU)'(VxU) - I| = {worst_kron:.2e} "
        f"(<= 1e-10), {time.time() - t0:.1f}s",
    )


def test_criterion_3_quadratic_identities():
    t0 = time.time()
    reports, _ = quadratic_suite(MASTER)
    details = []
    for k, (q, _, _) in enumerate(QUADRATIC_CASES):
        by_name = {rep.name: rep for rep in reports[3 * k : 3 * k + 3]}
        details.append(
            f"q={q}: mean dev {by_name['mean_vs_projected_gradient'].empirical:.3%}, "
            f"2nd moment ratio {by_name['second_moment_over_(q+2)'].empirical:.4f}, "
            f"cosine*q {by_name['cosine_alignment_times_q'].empirical:.4f}"
        )
    ok = len(reports) == 3 * len(QUADRATIC_CASES) and all(rep.passed for rep in reports)
    assert report(
        "criterion-3 quadratic identities",
        ok,
        "; ".join(details) + f" (tols 2%/5%/10%), {time.time() - t0:.1f}s",
    )


def test_criterion_4_spatial_unbiasedness_and_variance_law():
    t0 = time.time()
    unb = unbiasedness_check(MASTER)
    law, _ = variance_law_check(MASTER)
    worst_dev = max(r.rel_deviation for r in unb)
    ok = all(r.passed for r in unb) and worst_dev <= 1e-12
    ok &= law.passed and law.rel_deviation <= 1e-10
    assert report(
        "criterion-4 unbiasedness + variance law",
        ok,
        f"enumerated bias {worst_dev:.2e} (<= 1e-12), "
        f"fourth-point residual {law.rel_deviation:.2e} (<= 1e-10), "
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_5_crns_ablation():
    # the bounds are the crns suite's report rows (see verify.crns_suite)
    t0 = time.time()
    reports, detail = crns_suite(MASTER)
    by_name = {rep.name: rep for rep in reports}
    identity = {
        name.rsplit("_", 1)[1]: rep.empirical
        for name, rep in by_name.items()
        if name.startswith("cancellation_identity_at_")
    }
    v = {(r["mode"], r["eps"]): r["variance"] for r in detail["rows"]}
    ratio = v[("naive", 1e-3)] / v[("crns", 1e-3)]
    ok = len(identity) == 2 and all(rep.passed for rep in reports)
    assert report(
        "criterion-5 seed-locking ablation",
        ok,
        f"naive slope {detail['slope_naive']:.3f} (in [-2.2,-1.8]), locked spread "
        f"{by_name['crns_variance_spread'].empirical:.4f}x (<= 2x), "
        f"Var_S L {detail['var_loss']:.3e}, 2eps^2 (Var_naive - Var_crns/2) / Var_S L "
        + ", ".join(f"{x:.3f} at {e}" for e, x in identity.items())
        + f" (in [0.75,1.33]), variance ratio at 1e-3 {ratio:.3g} (info), "
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_6_jet_correctness():
    t0 = time.time()
    reports = jets_suite(MASTER)
    fd = [r for r in reports if r.name.startswith("jet_vs_fd")]
    man = [r for r in reports if r.name.startswith("manufactured")]
    ok = all(r.passed for r in reports)
    assert report(
        "criterion-6 jet correctness",
        ok,
        f"jet-vs-FD worst rel {max(r.empirical for r in fd):.2e} (<= 1e-6), "
        f"manufactured residual {max(r.empirical for r in man):.2e} (<= 1e-10), "
        f"{time.time() - t0:.1f}s",
    )


@pytest.mark.slow
def test_criterion_7_end_to_end_training():
    t0 = time.time()
    cfg = SdzeConfig(
        seed=0,
        widths=[100, 128, 128, 1],
        activation="sin",
        bias=True,
        dtype="f32",
        eps=1e-3,
        lr_mode="annealed",
        gamma=0.0424,
        m=400.0,
        p=0.51,
        steps=20_000,
        rank=16,
        freq_F=1000,
        batch_B=100,
        batch_b=16,
        eval_every=500,
        test_points=2000,
    )
    problem = make_problem("none", 100, "two_body", cfg.seed)
    result = train(cfg, problem)
    minutes = (time.time() - t0) / 60.0
    initial = result.evals[0][1]
    final = result.evals[-1][1]
    ratio = final / initial

    losses = np.array([r.loss_plus for r in result.records])
    blocks = losses.reshape(-1, 500)
    means = blocks.mean(axis=1)
    # the loss is a doubly-sampled estimate; "non-increasing" is asserted up
    # to twice the Monte Carlo standard error of a block mean
    ses = blocks.std(axis=1, ddof=1) / np.sqrt(blocks.shape[1])
    violations = [
        (k, means[k + 1] - means[k])
        for k in range(len(means) - 1)
        if means[k + 1] > means[k] + 2.0 * ses[k + 1]
    ]
    ok = ratio <= 0.2 and not violations and minutes <= 15.0
    assert report(
        "criterion-7 100-D end-to-end training",
        ok,
        f"rel L2 {initial:.4f} -> {final:.4f} (ratio {ratio:.4f} <= 0.2), "
        f"block-mean increases beyond 2 SE: {violations}, {minutes:.1f} min (<= 15)",
    )


def _draw_peak(spans, n: int) -> int:
    """Measured peak bytes of drawing ``n`` normals from a keyed stream."""
    spans.measure(lambda: derive_stream(StreamKey(3, Role.BASE_U, 0, 0)).normals(n), "draw")()
    return spans.calls["draw"][-1][1]


def _qr_peak(spans, rows: int, cols: int) -> int:
    """Measured peak bytes of the sign-fixed QR of a drawn ``rows x cols`` matrix."""
    A = derive_stream(StreamKey(3, Role.BASE_U, 0, 0)).normals(rows * cols).reshape(rows, cols)
    spans.measure(_qr_orthonormal, "qr")(A)
    return spans.calls["qr"][-1][1]


def test_criterion_8_memory_independence(peak_spans):
    # Measured bytes (tracemalloc sees numpy buffers) of one step that
    # includes a base refresh, at d = 100, 1 000 and 10 000, with both passes
    # of the estimate on this thread: the spans credit each call with the
    # one global peak, so a pass on another thread would be credited to the
    # call running here (test_concurrent_signs measures the concurrent path):
    # * the jet sweep (net._raw_jets) must stay flat in d, growth <= 1.2x;
    # * each rank-r update may hold one streamed block of R square-view rows
    #   and its R x r factor, 8 (R n' + R r) bytes;
    # * each refresh may hold the larger of its Gaussian draws and its QRs:
    #   GU, then GV with GU held, P(n) being the measured peak of drawing n
    #   normals; then the QR of GU with both draws held, and that of GV with
    #   U held too, Q(m, r) being the measured peak of the QR of an m x r draw;
    # * the whole loss call may exceed the sweep by what it holds beside it,
    #   none of it drawn: the pair's products of the batch and the index sets
    #   (X W0 and X (eps DW0), B x h words each, h the first hidden width;
    #   W0[I] and (eps DW0)[I], |I| x h each; X[:, I], |I| x B) and the
    #   boundary factor's X * X, B x d words.  It is capped at 5 B x d words,
    #   which binds at d = 100, where the products alone come to 4.8 B x d;
    # * the step draws that batch and its rhs before the loss calls, in
    #   draw_sample, in two phases with X held: the draw, which allocates one
    #   block of buffers (56 bytes a pair, at most rng.CHUNK_BYTES) and then
    #   one smaller block of rows for the row norms; and the rhs, two B x d word
    #   planes plus the two iterator buffers numpy may fill for a product of
    #   strided views (X[:, :-1] * X[:, 1:]), min(B d, np.getbufsize())
    #   words each.
    # Each bound has 4 KiB for Python objects and small arrays, the capped
    # loss allowance inside its cap.  The whole-step peak is info.
    t0 = time.time()
    slack = 4096
    # the gate keeps these shapes on this thread: one sign's tangent work,
    # B |dims| h1 h2 = 20 x 16 x 128 x 128 = 5.2 M multiply-adds, is below it
    assert 20 * 16 * 128 * 128 < optimizer.CONCURRENT_MIN_MACS
    peak_spans.wrap(net, "_raw_jets")
    peak_spans.wrap(optimizer, "stochastic_loss")
    peak_spans.wrap(optimizer, "draw_sample")
    peak_spans.wrap(optimizer, "apply_rank_r_update", key=lambda W, state, Z, scale: state)
    peak_spans.wrap(optimizer, "maybe_refresh", key=lambda t, F, state: state)
    step = peak_spans.measure(sdze_step, "step")
    jets, loss, loss_bound, draw, draw_bound = {}, {}, {}, {}, {}
    update, refresh, whole = {}, {}, {}
    ok = True
    for d in (100, 1000, 10_000):
        cfg = SdzeConfig(
            seed=3,
            widths=[d, 128, 128, 1],
            dtype="f64",
            eps=1e-3,
            lr_mode="constant",
            alpha=1e-4,
            steps=2,
            rank=16,
            freq_F=2,
            batch_B=20,
            batch_b=8,
            eval_every=100,
            test_points=16,
        )
        problem = make_problem("none", d, "two_body", 3)
        params = init_mlp(cfg.widths, "sin", 3)
        subspaces = make_subspaces(params, cfg)
        peak_spans.calls.clear()
        step(params, subspaces, problem, cfg, 1)
        # step 2 includes a base refresh (freq_F = 2)
        step(params, subspaces, problem, cfg, 2)
        jets[d] = max(peak_spans.peaks("_raw_jets"))
        loss[d] = max(peak_spans.peaks("stochastic_loss"))
        B, n_dims = cfg.batch_B, 2 * cfg.batch_b
        products = 2 * B * cfg.widths[1] + 2 * n_dims * cfg.widths[1] + n_dims * B
        loss_bound[d] = jets[d] + min(8 * 5 * B * d, 8 * (B * d + products) + slack)
        draw[d] = max(peak_spans.peaks("draw_sample"))
        blocks = min(CHUNK_BYTES, 56 * ((B * d + 1) // 2))
        bufs = 2 * 8 * min(B * d, np.getbufsize())
        draw_bound[d] = max(8 * B * d + blocks, 8 * 3 * B * d + bufs) + slack
        whole[d] = max(peak_spans.peaks("step"))
        update[d], refresh[d] = [], []
        for s, peak in peak_spans.calls["apply_rank_r_update"]:
            mp, npr = s.plan.square
            R = max(1, min(BLOCK_ROWS, mp, BLOCK_ELEMS // npr))
            update[d].append((peak, 8 * (R * npr + R * s.rank) + slack))
        for s, peak in peak_spans.calls["maybe_refresh"]:
            mp, npr = s.plan.square
            r = s.rank
            draws = max(
                _draw_peak(peak_spans, mp * r), 8 * mp * r + _draw_peak(peak_spans, npr * r)
            )
            qrs = max(
                8 * (mp + npr) * r + _qr_peak(peak_spans, mp, r),
                8 * (2 * mp + npr) * r + _qr_peak(peak_spans, npr, r),
            )
            refresh[d].append((peak, max(draws, qrs) + slack))
        # both steps update and may refresh every layer, and draw once
        ok &= len(update[d]) == len(refresh[d]) == 2 * len(subspaces)
        ok &= len(peak_spans.calls["draw_sample"]) == 2
    growth = max(jets.values()) / min(jets.values())
    ok &= growth <= 1.2
    ok &= all(loss[d] <= loss_bound[d] for d in loss)
    ok &= all(draw[d] <= draw_bound[d] for d in draw)
    ok &= all(peak <= bound for d in update for peak, bound in update[d] + refresh[d])
    assert report(
        "criterion-8 memory independence",
        ok,
        f"jet sweep peak {jets} B, growth {growth:.4f}x (<= 1.2x); "
        f"largest update {{d: (peak, bound)}} { {d: max(update[d]) for d in update} }; "
        f"largest refresh { {d: max(refresh[d]) for d in refresh} }; "
        f"loss call {loss} B (<= sweep + min(8 * 5 B d, 8 (B d + products) + 4 KiB): "
        f"{loss_bound}); "
        f"sample draw {draw} B (<= max(8 B d + draw blocks, 8 * 3 B d + buffers) + 4 KiB: "
        f"{draw_bound}); "
        f"whole step {whole} B (info), {time.time() - t0:.1f}s",
    )


def test_criterion_9_determinism_and_resume(tmp_path):
    t0 = time.time()
    raw = {
        "pde": {"kind": "allen_cahn", "dim": 8, "solution": "two_body"},
        "net": {"widths": [8, 10, 1]},
        "sdze": {
            "rank": 2,
            "freq_F": 4,
            "eps": 1e-3,
            "lr": {"mode": "annealed", "gamma": 0.01, "m": 10.0, "p": 0.7},
            "batch_points_B": 6,
            "batch_dims_b": 3,
        },
        "steps": 12,
        "eval_every": 4,
        "test_points": 128,
        "seed": 5,
        "timing": False,
    }
    cfgs = [
        config_from_dict({**raw, "out_dir": str(tmp_path / name)})
        for name in ("a", "b", "part", "resumed")
    ]
    run_train(cfgs[0])
    run_train(cfgs[1])
    identical = (tmp_path / "a/metrics.csv").read_bytes() == (
        tmp_path / "b/metrics.csv"
    ).read_bytes()

    part = dataclasses.replace(cfgs[2], steps=6)
    run_train(part)
    run_train(cfgs[3], resume_from=tmp_path / "part/ckpt_final.sdze")
    resumed_ok = (tmp_path / "a/ckpt_final.sdze").read_bytes() == (
        tmp_path / "resumed/ckpt_final.sdze"
    ).read_bytes()
    ok = identical and resumed_ok
    assert report(
        "criterion-9 determinism + resume",
        ok,
        f"byte-identical metrics: {identical}, resume bitwise equal: {resumed_ok}, "
        f"{time.time() - t0:.1f}s",
    )
