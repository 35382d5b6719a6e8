import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdze.optimizer import SdzeConfig, make_subspaces
from sdze.rng import Role, StreamKey, derive_stream
from sdze.subspace import (
    BLOCK_ELEMS,
    BLOCK_ROWS,
    GATHER_BYTES,
    LayerSubspace,
    apply_rank_r_update,
    delta_rows,
    maybe_refresh,
    perturb_product,
    plan_reshape,
    rank_r_delta,
    refresh_bases,
    sample_core,
    subspace_for_layer,
)
from sdze.verify import explicit_delta_w


def stream(role=Role.BASE_U, step=0, index=0, master=9):
    return derive_stream(StreamKey(master, role, step, index))


def test_plan_tall_skinny():
    plan = plan_reshape(10000, 16)
    assert plan.split_factor == 25
    assert plan.square == (400, 400)
    assert plan.splits == (25, 1)


def test_plan_square_identity():
    plan = plan_reshape(128, 128)
    assert plan.split_factor == 1 and plan.splits == (1, 1)
    assert plan.square == (128, 128)


def test_plan_no_useful_divisor():
    plan = plan_reshape(7, 3)
    assert plan.split_factor == 1 and plan.square == (7, 3)


def test_plan_wide_matrix_splits_cols():
    plan = plan_reshape(16, 10000)
    assert plan.splits == (1, 25) and plan.square == (400, 400)


def test_refresh_orthonormal():
    plan = plan_reshape(40, 12)
    U, V = refresh_bases(stream(), stream(Role.BASE_V), plan, 5)
    assert np.abs(U.T @ U - np.eye(5)).max() <= 1e-10
    assert np.abs(V.T @ V - np.eye(5)).max() <= 1e-10


def test_refresh_full_rank_square_orthogonal():
    plan = plan_reshape(8, 8)
    U, _ = refresh_bases(stream(step=1), stream(Role.BASE_V, step=1), plan, 8)
    assert np.abs(U @ U.T - np.eye(8)).max() <= 1e-10


def test_refresh_rank_too_large():
    with pytest.raises(ValueError):
        refresh_bases(stream(), stream(Role.BASE_V), plan_reshape(6, 4), 5)


def test_fresh_subspaces_overlap_is_small():
    # m' >= 8r: two refreshes should give nearly orthogonal subspaces
    plan = plan_reshape(64, 64)
    U1, _ = refresh_bases(stream(step=0), stream(Role.BASE_V, step=0), plan, 4)
    U2, _ = refresh_bases(stream(step=1), stream(Role.BASE_V, step=1), plan, 4)
    assert np.linalg.norm(U1.T @ U2) / np.sqrt(4) < 0.9


def test_maybe_refresh_schedule():
    st0 = subspace_for_layer(3, 0, 16, 16, 4)
    assert maybe_refresh(999, 1000, st0) is st0
    st1 = maybe_refresh(1000, 1000, st0)
    assert st1.last_refresh_step == 1000
    assert not np.array_equal(st1.U, st0.U)
    # F=1 refreshes at every step
    st2 = maybe_refresh(7, 1, st0)
    assert st2.last_refresh_step == 7


def test_lazy_update_state_machine():
    # over 2F steps the bases change exactly at multiples of F
    state = subspace_for_layer(5, 1, 12, 10, 3)
    F = 4
    seen = [state.U.copy()]
    for t in range(1, 2 * F + 1):
        state = maybe_refresh(t, F, state)
        seen.append(state.U.copy())
    for t in range(1, 2 * F + 1):
        changed = not np.array_equal(seen[t], seen[t - 1])
        assert changed == (t % F == 0)


def assert_same_subspace(a, b):
    assert (a.plan, a.rank, a.last_refresh_step, a.master, a.layer) == (
        b.plan, b.rank, b.last_refresh_step, b.master, b.layer
    )
    assert np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)


@pytest.mark.parametrize("m, n, rank", [(12, 10, 3), (40, 8, 4), (128, 1, 16)])
def test_refresh_rebuilds_the_layer_keyed_at_the_step(m, n, rank):
    F = 4
    state = subspace_for_layer(5, 1, m, n, rank)
    for t in (F, 3 * F):
        assert_same_subspace(maybe_refresh(t, F, state), subspace_for_layer(5, 1, m, n, rank, step=t))


def test_subspaces_at_a_start_step_equal_stepping_the_refreshes():
    F = 4
    cfg = SdzeConfig(seed=4, widths=[12, 10, 6, 1], bias=True, rank=3, freq_F=F)
    params = cfg.init_params()
    stepped = make_subspaces(params, cfg)
    assert [s.rank for s in stepped] == [3, 3, 1]  # clamped to each layer's square view
    for t in range(1, 2 * F + 2):
        stepped = [maybe_refresh(t, F, s) for s in stepped]
        if t in (F - 1, F, 2 * F + 1):
            for a, b in zip(make_subspaces(params, cfg, start_step=t), stepped, strict=True):
                assert_same_subspace(a, b)


def test_sample_core_deterministic_and_scalar():
    Z1 = sample_core(stream(Role.CORE_Z, step=2), 3)
    Z2 = sample_core(stream(Role.CORE_Z, step=2), 3)
    assert np.array_equal(Z1, Z2)
    assert sample_core(stream(Role.CORE_Z), 1).shape == (1, 1)
    with pytest.raises(ValueError):
        sample_core(stream(Role.CORE_Z), 0)


def test_core_moments_pooled():
    pooled = np.concatenate(
        [sample_core(stream(Role.CORE_Z, step=i), 100).ravel() for i in range(100)]
    )
    assert abs(pooled.mean()) < 0.005 and abs(pooled.var() - 1.0) < 0.01


def test_update_zero_scale_is_noop():
    state = subspace_for_layer(1, 0, 6, 4, 2)
    W = np.random.default_rng(0).standard_normal((6, 4))
    W0 = W.copy()
    apply_rank_r_update(W, state, np.ones((2, 2)), 0.0)
    assert np.array_equal(W, W0)


def test_update_matches_explicit_materialization():
    rng = np.random.default_rng(1)
    for m, n, r in [(6, 4, 2), (40, 8, 3), (8, 40, 3), (128, 1, 4), (9, 9, 2)]:
        state = subspace_for_layer(2, 0, m, n, r)
        Z = rng.standard_normal((state.rank, state.rank))
        W = rng.standard_normal((m, n))
        want = W + 0.37 * explicit_delta_w(state, Z)
        apply_rank_r_update(W, state, Z, 0.37)
        assert np.abs(W - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_update_is_additive_in_scale():
    rng = np.random.default_rng(2)
    state = subspace_for_layer(4, 0, 10, 6, 2)
    Z = rng.standard_normal((2, 2))
    Wa = rng.standard_normal((10, 6))
    Wb = Wa.copy()
    apply_rank_r_update(Wa, state, Z, 0.3)
    apply_rank_r_update(Wa, state, Z, 0.5)
    apply_rank_r_update(Wb, state, Z, 0.8)
    assert np.abs(Wa - Wb).max() <= 1e-12


def test_update_shape_mismatch():
    state = subspace_for_layer(1, 0, 6, 4, 2)
    with pytest.raises(ValueError):
        apply_rank_r_update(np.zeros((4, 6)), state, np.zeros((2, 2)), 1.0)


def test_perturb_product_and_delta_rows_match_explicit():
    rng = np.random.default_rng(3)
    for m, n, r in [(6, 4, 2), (40, 8, 3), (8, 40, 3), (128, 1, 4), (1, 8, 1)]:
        state = subspace_for_layer(7, 0, m, n, r)
        Z = rng.standard_normal((state.rank, state.rank))
        D = explicit_delta_w(state, Z)
        H = rng.standard_normal((5, m))
        assert np.abs(perturb_product(H, state, Z) - H @ D).max() <= 1e-12 * max(
            1.0, np.abs(H @ D).max()
        )
        ridx = rng.integers(0, m, size=3)
        assert np.abs(delta_rows(state, Z, ridx) - D[ridx]).max() <= 1e-12 * max(
            1.0, np.abs(D).max()
        )


def test_perturb_product_virtual_tail():
    # [H, 1] @ DW computed without materializing the constant column
    rng = np.random.default_rng(4)
    for m, n, r in [(7, 4, 2), (41, 8, 3), (8, 42, 3), (129, 1, 4)]:
        state = subspace_for_layer(8, 0, m, n, r)
        Z = rng.standard_normal((state.rank, state.rank))
        D = explicit_delta_w(state, Z)
        H = rng.standard_normal((5, m - 1))
        want = np.hstack([H, np.ones((5, 1))]) @ D
        got = perturb_product(H, state, Z)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        # any other width is refused, naming both that it takes
        with pytest.raises(ValueError, match=f"neither the layer's rows {m} nor {m - 1}"):
            perturb_product(np.ones((5, m - 2)), state, Z)


@given(
    m=st.integers(1, 40),
    n=st.integers(1, 40),
    rank=st.integers(1, 6),
    tail=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=6, n=4, rank=2, tail=False, seed=3)
@example(m=40, n=8, rank=3, tail=False, seed=3)
@example(m=8, n=40, rank=3, tail=False, seed=3)
@example(m=128, n=1, rank=4, tail=False, seed=3)
@example(m=1, n=8, rank=1, tail=False, seed=3)
@example(m=7, n=4, rank=2, tail=True, seed=4)
@example(m=41, n=8, rank=3, tail=True, seed=4)
@example(m=8, n=42, rank=3, tail=True, seed=4)
@example(m=129, n=1, rank=4, tail=True, seed=4)
@settings(max_examples=150, deadline=None)
def test_kernels_match_the_explicit_perturbation(m, n, rank, tail, seed):
    # every split side, checked against the dense column-major oracle
    rng = np.random.default_rng(seed)
    state = subspace_for_layer(7, 0, m, n, rank)
    Z = rng.standard_normal((state.rank, state.rank))
    D = explicit_delta_w(state, Z)
    H = rng.standard_normal((5, m - tail))
    want = (np.hstack([H, np.ones((5, 1))]) if tail else H) @ D
    got = perturb_product(H, state, Z)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    ridx = rng.integers(0, m, size=4)
    assert np.abs(delta_rows(state, Z, ridx) - D[ridx]).max() <= 1e-12 * max(1.0, np.abs(D).max())
    W = rng.standard_normal((m, n))
    updated = W.copy()
    apply_rank_r_update(updated, state, Z, 0.37)
    assert np.abs(updated - (W + 0.37 * D)).max() <= 1e-12 * max(1.0, np.abs(W).max())
    assert np.array_equal(W + rank_r_delta(state, Z, 0.37), updated)


def test_kronecker_identity_and_global_orthogonality():
    # vec(U Z V^T) = (V kron U) vec(Z) under column-major vec, and the
    # materialized projection block has orthonormal columns
    rng = np.random.default_rng(5)
    state = subspace_for_layer(11, 0, 12, 10, 3)
    Z = rng.standard_normal((3, 3))
    K = np.kron(state.V, state.U)
    lhs = (state.U @ Z @ state.V.T).reshape(-1, order="F")
    rhs = K @ Z.reshape(-1, order="F")
    assert np.abs(lhs - rhs).max() <= 1e-12
    assert np.abs(K.T @ K - np.eye(9)).max() <= 1e-10


def test_streaming_update_memory_bound(peak_spans):
    # Measured peak bytes: one block of R square-view rows and its R x r
    # factor are live at a time, R capped by BLOCK_ROWS and BLOCK_ELEMS / n',
    # plus 4 KiB of small objects; a block never exceeds max(n', BLOCK_ELEMS)
    # elements, however tall the layer.  Rows split, rows split at the
    # (500, 256) view of a d = 1000 input layer, cols split, no split.
    update = peak_spans.measure(apply_rank_r_update, "update")
    for m, n, rank in [(2000, 30, 4), (1000, 128, 16), (30, 2000, 4), (128, 128, 16)]:
        state = subspace_for_layer(12, 0, m, n, rank)
        W = np.zeros((m, n))
        Z = np.ones((state.rank, state.rank))
        update(W, state, Z, 1.0)
        mp, npp = state.plan.square
        R = max(1, min(BLOCK_ROWS, mp, BLOCK_ELEMS // npp))
        assert R * npp <= max(npp, BLOCK_ELEMS)
        assert peak_spans.peaks("update")[-1] <= 8 * (R * npp + R * state.rank) + 4096, (m, n)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("m, n", [(1000, 128), (10_000, 128), (1001, 128), (100, 128), (40, 120)])
def test_delta_rows_allocates_what_its_output_needs(peak_spans, m, n, dtype):
    # Measured peak bytes of the seed-row perturbation of 16 directions at
    # rank 16 (d = 10^3 and 10^4 split their rows, 40 x 120 its columns):
    # the result, the rows' kc x 16 x r factor products, one result-sized
    # block and, where the rows split, at most GATHER_BYTES of V3's (nv, r)
    # row slices, plus 4 KiB; the slices of all 16 rows at once, r / kc
    # times the result (262 KB at d = 10^3), are never formed.  The bits are
    # those of that one contraction over all the rows.
    rows = np.random.default_rng(m).integers(0, m, 16)
    state = subspace_for_layer(12, 0, m, n, 16)
    Z = sample_core(stream(Role.CORE_Z), state.rank).astype(dtype)
    U3, V3, _ = state.factors(Z.dtype)
    kc, mu, r = U3.shape
    measured = peak_spans.measure(delta_rows, "rows")
    got = measured(state, Z, rows)
    word = np.dtype(dtype).itemsize
    gathered = GATHER_BYTES if V3.shape[1] > 1 else 0
    bound = word * (2 * got.size + 2 * kc * rows.size * r) + gathered + 4096
    assert peak_spans.peaks("rows")[-1] <= bound
    assert got.dtype == np.dtype(dtype)
    if V3.shape[1] > 1:  # rows split
        t, a = np.divmod(rows, mu)
        want = np.einsum("sxr,qxr->sxq", U3[:, a] @ Z, V3[:, t])
        assert got.tobytes() == want.reshape(kc, -1).T.reshape(rows.size, n).tobytes()


@given(m=st.integers(1, 40), n=st.integers(1, 40), seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_reshape_bijectivity(m, n, seed):
    plan = plan_reshape(m, n)
    mp, npp = plan.square
    assert mp * npp == m * n
    assert 1 in plan.splits  # one side splits, never both
    W = np.random.default_rng(seed).standard_normal((m, n))
    square = np.reshape(W, (mp, npp), order="F")
    back = np.reshape(square, (m, n), order="F")
    assert np.array_equal(back, W)


def test_stiefel_invariant_holds_after_every_refresh():
    state = subspace_for_layer(13, 2, 30, 20, 5)
    for t in (0, 3, 6):
        state = maybe_refresh(t, 3, state)
        r = state.rank
        assert np.linalg.norm(state.U.T @ state.U - np.eye(r)) <= 1e-10
        assert np.linalg.norm(state.V.T @ state.V - np.eye(r)) <= 1e-10


def test_rank_clamped_to_square_view():
    state = subspace_for_layer(1, 0, 128, 1, 16)
    assert state.plan.square == (16, 8)
    assert state.rank == 8
