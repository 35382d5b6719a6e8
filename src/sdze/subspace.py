"""Layer-wise low-rank subspace machinery.

Each weight matrix W (m x n) is viewed through a bijective re-layout T into a
near-square matrix W' (m' x n') before low-rank decomposition; the vec
convention for T is column-major on both sides, so the per-layer perturbation
T^-1(U Z V^T) corresponds to the Kronecker-factor projection (V (x) U) vec(Z)
of the global block-diagonal picture.  U and V are orthonormal Q-factors of
Gaussian matrices, refreshed lazily every F steps from step-keyed streams;
the r x r core Z is drawn fresh every step.

The perturbation matrix is never materialized.  ``perturb_product`` computes
H @ T^-1(U Z V^T) directly from the factors via a segmented contraction (see
the per-case comments), ``delta_rows`` extracts single rows of the implied
perturbation (used to seed coordinate jets through the first layer without
building one-hot tangents), and ``apply_rank_r_update`` streams the rank-r
parameter update into W through the re-layout map in bounded blocks, and
``rank_r_delta`` assigns the same blocks into a fresh array (the network's
explicit perturbation of its d-independent layers, built once per ±eps
pair).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Role, RngStream, StreamKey, derive_stream, gaussian_matrix

# Scatter blocks are capped in rows and in elements so update temporaries
# stay bounded regardless of layer size.
BLOCK_ROWS = 4096
BLOCK_ELEMS = 65536


@dataclass(frozen=True)
class ReshapePlan:
    orig: tuple[int, int]
    square: tuple[int, int]
    split_factor: int
    split_side: str  # "rows" | "cols" | "none"

    def __post_init__(self):
        m, n = self.orig
        mp, np_ = self.square
        if mp * np_ != m * n:
            raise ValueError("reshape plan must preserve element count")
        if (self.split_factor == 1) != (self.split_side == "none"):
            raise ValueError("split_factor is 1 iff split_side is none")


def plan_reshape(m: int, n: int) -> ReshapePlan:
    """Pick the divisor split that makes the re-layout closest to square.

    Among divisors k of max(m, n), minimize |larger/k - smaller*k|; ties go
    to the smaller k.  The larger dimension's side is split.
    """
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    larger, smaller = max(m, n), min(m, n)
    best_k, best_gap = 1, abs(larger - smaller)
    for k in range(2, larger + 1):
        if larger % k:
            continue
        gap = abs(larger // k - smaller * k)
        if gap < best_gap:
            best_k, best_gap = k, gap
    if best_k == 1:
        return ReshapePlan((m, n), (m, n), 1, "none")
    if m >= n:
        return ReshapePlan((m, n), (m // best_k, n * best_k), best_k, "rows")
    return ReshapePlan((m, n), (m * best_k, n // best_k), best_k, "cols")


@dataclass(frozen=True)
class LayerSubspace:
    """Per-layer reshape plan plus orthonormal bases and their provenance.

    ``master`` and ``layer`` identify the streams the bases came from, so the
    state can be regenerated at any step without storing history.
    """

    plan: ReshapePlan
    U: np.ndarray
    V: np.ndarray
    rank: int
    last_refresh_step: int
    master: int
    layer: int


def _qr_orthonormal(A: np.ndarray) -> np.ndarray:
    """Thin Householder QR Q-factor, sign-fixed to non-negative R diagonal."""
    Q, R = np.linalg.qr(A, mode="reduced")
    sign = np.sign(np.diag(R))
    sign[sign == 0] = 1.0
    return Q * sign


def refresh_bases(
    stream_U: RngStream, stream_V: RngStream, plan: ReshapePlan, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fresh orthonormal (U, V) from Gaussian draws on the square view."""
    mp, np_ = plan.square
    if r > min(mp, np_):
        raise ValueError(f"rank {r} exceeds min square dim {min(mp, np_)}")
    GU = gaussian_matrix(stream_U, mp, r)
    GV = gaussian_matrix(stream_V, np_, r)
    U = _qr_orthonormal(GU)
    V = _qr_orthonormal(GV)
    return U, V


def subspace_for_layer(
    master: int, layer: int, m: int, n: int, rank: int, step: int = 0
) -> LayerSubspace:
    """Build a layer's subspace state with bases keyed at ``step``.

    The rank is clamped to min(m', n') of the square view (narrow layers
    cannot carry the full requested rank).
    """
    plan = plan_reshape(m, n)
    r = min(rank, *plan.square)
    U, V = refresh_bases(
        derive_stream(StreamKey(master, Role.BASE_U, step, layer)),
        derive_stream(StreamKey(master, Role.BASE_V, step, layer)),
        plan,
        r,
    )
    return LayerSubspace(plan, U, V, r, step, master, layer)


def maybe_refresh(t: int, F: int, state: LayerSubspace) -> LayerSubspace:
    """Refresh bases iff ``t`` is a multiple of the lazy frequency ``F``."""
    if F < 1:
        raise ValueError("refresh frequency must be >= 1")
    if t % F != 0:
        return state
    return subspace_for_layer(
        state.master, state.layer, *state.plan.orig, state.rank, t
    )


def sample_core(stream: RngStream, r: int) -> np.ndarray:
    """r x r core of i.i.d. standard normals, regenerable from its key."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    Z = gaussian_matrix(stream, r, r)
    return Z


# --- implicit contraction -------------------------------------------------
#
# Cell map of T^-1 (column-major vec on both sides), with k the split factor:
#   rows split (m = m'*k, n' = n*k):  DW[a + m'*t, j] = DW'[a, t + k*j]
#   cols split (m' = m*k, n  = n'*k): DW[i, q*k + s]  = DW'[i + m*s, q]
# Both follow from equating flat indices i + m*j = a + m'*c.


def perturb_product(
    H: np.ndarray, state: LayerSubspace, Z: np.ndarray, tail: str | None = None
) -> np.ndarray:
    """``H @ T^-1(U Z V^T)`` without forming the perturbation matrix.

    ``H`` has shape (..., m) and the result (..., n).  ``tail="one"`` appends
    one virtual constant-1 column, the bias feature of a value plane, without
    materializing it; the plan's row count is then m + 1.  The network uses
    it on the input layer's primal only: that layer is d-sized, so its
    perturbation stays implicit, while later layers multiply explicitly
    perturbed weights.
    """
    if tail not in (None, "one"):
        raise ValueError(f"unknown tail {tail!r}; expected None or 'one'")
    plan = state.plan
    m, n = plan.orig
    expected = m - (1 if tail else 0)
    if H.shape[-1] != expected:
        raise ValueError(f"H width {H.shape[-1]} does not match layer rows {expected}")
    U, V, Z = (np.asarray(A, dtype=H.dtype) for A in (state.U, state.V, Z))
    k = plan.split_factor
    lead = H.shape[:-1]
    r = state.rank
    if plan.split_side == "none":
        HU = H @ (U[:-1] if tail else U)
        if tail:
            HU = HU + U[-1]
        return (HU @ Z) @ V.T
    if plan.split_side == "rows":
        mp = plan.square[0]
        if tail is None:
            P = H.reshape(*lead, k, mp) @ U
        else:
            # the virtual column lives in the last segment
            P = np.empty((*lead, k, r), dtype=H.dtype)
            head = H[..., : (k - 1) * mp].reshape(*lead, k - 1, mp)
            P[..., : k - 1, :] = head @ U
            P[..., k - 1, :] = H[..., (k - 1) * mp :] @ U[:-1] + U[-1]
        P = P @ Z  # (..., k, r)
        Vr = V.reshape(n, k, r)
        out = np.einsum("...tr,jtr->...j", P, Vr)
        return out
    # cols split
    Us = U.reshape(k, m, r)
    if tail is None:
        G = np.einsum("...m,smr->...sr", H, Us)
    else:
        G = np.einsum("...m,smr->...sr", H, Us[:, :-1, :]) + Us[:, -1, :]
    G = G @ Z  # (..., k, r)
    out = np.einsum("...sr,qr->...qs", G, V).reshape(*lead, n)
    return out


def delta_rows(state: LayerSubspace, Z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Selected rows of the implied perturbation ``T^-1(U Z V^T)``.

    Returns an array of shape (len(rows), n); equivalent to one-hot inputs
    through ``perturb_product`` but without materializing them.
    """
    plan = state.plan
    m, n = plan.orig
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= m):
        raise ValueError("row index out of range")
    U, V = (np.asarray(A, dtype=Z.dtype) for A in (state.U, state.V))
    k = plan.split_factor
    r = state.rank
    if plan.split_side == "none":
        return (U[rows] @ Z) @ V.T
    if plan.split_side == "rows":
        mp = plan.square[0]
        G = U[rows % mp] @ Z  # (S, r)
        Vr = V.reshape(n, k, r)
        out = np.einsum("sr,jsr->sj", G, Vr[:, rows // mp, :])
        return out
    # cols split
    Usel = U[rows[:, None] + m * np.arange(k)[None, :]]  # (S, k, r)
    G = Usel @ Z
    out = np.einsum("xsr,qr->xqs", G, V).reshape(rows.size, n)
    return out


def apply_rank_r_update(
    W: np.ndarray, state: LayerSubspace, Z: np.ndarray, scale: float
) -> None:
    """In-place ``W += scale * T^-1(U Z V^T)``, streamed in bounded blocks.

    Blocks of R square-view rows are formed as (U_block Z) V^T, scaled in
    place, scatter-added into W through the re-layout map and freed, so the
    live temporaries are one R x n' block and its R x r factor; no full
    m x n temporary is created.  R is capped by ``BLOCK_ROWS`` and by
    ``BLOCK_ELEMS`` / n'.
    """
    if W.shape != state.plan.orig:
        raise ValueError(f"W shape {W.shape} does not match plan {state.plan.orig}")
    if scale == 0.0:
        return
    _stream_blocks(W, state, Z, scale, _add_into)


def rank_r_delta(state: LayerSubspace, Z: np.ndarray, scale: float) -> np.ndarray:
    """``scale * T^-1(U Z V^T)`` as an m x n array, from the blocks of
    :func:`apply_rank_r_update`.

    Each cell is assigned the value that the update would add, so
    ``W + rank_r_delta(s, Z, c)`` equals ``W`` updated in place by ``c``
    bitwise, and ``W - rank_r_delta(s, Z, c)`` equals it updated by ``-c``.
    """
    out = np.empty(state.plan.orig)
    _stream_blocks(out, state, Z, scale, np.copyto)
    return out


def _add_into(dst: np.ndarray, src: np.ndarray) -> None:
    np.add(dst, src, out=dst)


def _stream_blocks(W: np.ndarray, state: LayerSubspace, Z: np.ndarray, scale: float, put):
    """``put(W cells, block cells)`` for every bounded block of ``scale * U Z V^T``.

    Every cell of W receives exactly one block cell: T is a bijection.
    """
    plan = state.plan
    m, _ = plan.orig
    U, V, k = state.U, state.V, plan.split_factor
    mp, np_ = plan.square
    rows_per_block = max(1, min(BLOCK_ROWS, mp, BLOCK_ELEMS // max(1, np_)))
    for start in range(0, mp, rows_per_block):
        stop = min(start + rows_per_block, mp)
        block = (U[start:stop] @ Z) @ V.T  # (R, n')
        block *= scale
        if plan.split_side == "none":
            put(W[start:stop, :], block)
        elif plan.split_side == "rows":
            # cell (a, c=t+k*j) -> W[a + m'*t, j]; one strided slice per t
            for t in range(k):
                put(W[start + mp * t : stop + mp * t, :], block[:, t::k])
        else:
            # cell (a=i+m*s, c) -> W[i, c*k + s]
            for a in range(start, stop):
                put(W[a % m, (a // m) :: k], block[a - start])
        del block  # freed before the next block is formed: one block live
