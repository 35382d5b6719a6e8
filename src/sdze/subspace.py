"""Layer-wise low-rank subspace machinery.

Each weight matrix W (m x n) is viewed through a bijective re-layout T into a
near-square matrix W' (m' x n') before low-rank decomposition; the vec
convention for T is column-major on both sides, so the per-layer perturbation
T^-1(U Z V^T) corresponds to the Kronecker-factor projection (V (x) U) vec(Z)
of the global block-diagonal picture.  U and V are orthonormal Q-factors of
Gaussian matrices, refreshed lazily every F steps from step-keyed streams;
the r x r core Z is drawn fresh every step.

The perturbation matrix is never materialized.  T^-1 is written once, as a
factor identity: with k the split factor, (kr, kc) = ``ReshapePlan.splits``
is (k, 1) for a rows split, (1, k) for a cols split and (1, 1) for none;
mu = m/kr, nv = n/kc, U3 = U.reshape(kc, mu, r), V3 = V.reshape(nv, kr, r):

    DW[t*mu + a, q*kc + s] = U3[s, a] Z V3[q, t]^T

(equate the flat indices i + m*j of W and i' + m'*j' of W'), and every
kernel reads it.  ``perturb_product`` computes H @ T^-1(U Z V^T)
directly from the factors, ``delta_rows`` extracts single rows of the
implied perturbation (used to seed coordinate jets through the first layer
without building one-hot tangents), ``apply_rank_r_update`` streams the
rank-r parameter update into W in bounded blocks, and ``rank_r_delta``
assigns the same blocks into a fresh array (the network's explicit
perturbation of its d-independent layers, built once per ±eps pair).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import Role, RngStream, StreamKey, derive_stream, gaussian_matrix

# Scatter blocks are capped in rows and in elements so update temporaries
# stay bounded regardless of layer size.
BLOCK_ROWS = 4096
BLOCK_ELEMS = 65536
# bytes of V3's row slices that delta_rows gathers at once: under glibc's
# 128 KiB mmap threshold, so the heap serves them with no page faults
GATHER_BYTES = 64 * 1024


@dataclass(frozen=True)
class ReshapePlan:
    """An m x n layer and its near-square view: one side divided by k, the other times k."""

    orig: tuple[int, int]
    square: tuple[int, int]

    def __post_init__(self):
        (m, n), (kr, kc) = self.orig, self.splits
        if m % kr or n % kc or self.square != (m // kr * kc, n // kc * kr):
            raise ValueError(
                f"{self.square} is not {self.orig} with one side divided by k and the other times k"
            )

    @property
    def splits(self) -> tuple[int, int]:
        """(kr, kc): how many segments the rows and the columns split into."""
        return max(1, self.orig[0] // self.square[0]), max(1, self.orig[1] // self.square[1])

    @property
    def split_factor(self) -> int:
        kr, kc = self.splits
        return kr * kc


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
    square = (m // best_k, n * best_k) if m >= n else (m * best_k, n // best_k)
    return ReshapePlan((m, n), square)


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

    def factors(self, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """U3 and V3 of the module docstring's factor identity, and V3 flattened
        to (nv, kr*r) and transposed; built and cast to ``dtype`` once per subspace.
        """
        views = self._factor_views.get(dtype)
        if views is None:
            (m, n), (kr, kc) = self.plan.orig, self.plan.splits
            U3 = self.U.reshape(kc, m // kr, self.rank).astype(dtype, copy=False)
            V3 = self.V.reshape(n // kc, kr, self.rank).astype(dtype, copy=False)
            views = self._factor_views[dtype] = U3, V3, V3.reshape(n // kc, -1).T
        return views

    @cached_property
    def _factor_views(self) -> dict:
        return {}


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


def perturb_product(
    H: np.ndarray,
    state: LayerSubspace,
    Z: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``H @ T^-1(U Z V^T)`` without forming the perturbation matrix.

    ``H`` has shape (..., m) or (..., m - 1) for a layer of m rows, and the
    result (..., n).  One column short, ``H`` is a value plane without its
    bias feature: one virtual constant-1 column is appended without
    materializing it.  The network uses that on the input layer's primal
    only: that layer is d-sized, so its perturbation stays implicit, while
    later layers multiply explicitly perturbed weights.  One GEMM over (t, r)
    forms every column segment s: the rows of (H's row segments @ U3[s]) @ Z
    against V3 as (nv, kr*r).  The result is written to ``out`` when one is
    given.
    """
    m, n = state.plan.orig
    width = H.shape[-1]
    if width not in (m, m - 1):
        raise ValueError(f"H width {width} is neither the layer's rows {m} nor {m - 1}")
    U3, V3, Vt = state.factors(H.dtype)
    Z = np.asarray(Z, dtype=H.dtype)
    kc, mu, r = U3.shape
    nv, kr, _ = V3.shape
    lead = H.shape[:-1]
    B = math.prod(lead)
    if width == m:
        P = H.reshape(B * kr, mu) @ U3
    else:  # the virtual constant 1 closes the last row segment: it adds U3[s, -1]
        H = H.reshape(B, width)
        P = H[:, (kr - 1) * mu :] @ U3[:, :-1] + U3[:, -1:]
        if kr > 1:
            head = H[:, : (kr - 1) * mu].reshape(B, kr - 1, mu) @ U3[:, None]
            P = np.concatenate([head, P[:, :, None]], axis=2).reshape(kc, B * kr, r)
    PZ = (P.reshape(-1, r) @ Z).reshape(kc * B, kr * r)
    if kc == 1:  # one column segment: the product is the result, written to out
        flat = None if out is None else out.reshape(B, nv)
        return np.matmul(PZ, Vt, out=flat).reshape(*lead, n)
    # row s*B + b, column q of PZ Vt is row b, column q*kc + s of the result
    result = (PZ @ Vt).reshape(kc, B * nv).T.reshape(*lead, n)
    if out is None:
        return result
    np.copyto(out, result)
    return out


def delta_rows(state: LayerSubspace, Z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Selected rows of the implied perturbation ``T^-1(U Z V^T)``.

    Returns an array of shape (len(rows), n); equivalent to one-hot inputs
    through ``perturb_product`` but without materializing them.  Beside the
    result it allocates the rows' (kc, len(rows), r) factor products and,
    when the rows split, V3's (nv, r) slice of each row's segment, gathered
    for as many rows at a time as fit in ``GATHER_BYTES``: gathered for all
    rows at once, the slices are r/kc times the result (262 KB for 16 rows
    at d = 10^3 and 10^4 in f64), and one row a time costs a call per row.
    """
    m, n = state.plan.orig
    rows = np.asarray(rows, dtype=np.int64)
    # as unsigned, a negative index is past every row: one reduction checks both ends
    if rows.size and rows.view(np.uint64).max() >= m:
        raise ValueError("row index out of range")
    U3, V3, Vt = state.factors(Z.dtype)
    kc, mu, r = U3.shape
    nv, kr, _ = V3.shape
    if kr == 1:  # every row lies in the one row segment: a plain GEMM
        out = (U3[:, rows].reshape(-1, r) @ Z) @ Vt
    else:  # row t*mu + a meets the rows t of V3
        t, a = np.divmod(rows, mu)
        UZ = U3[:, a] @ Z
        out = np.empty((kc, rows.size, nv), Z.dtype)
        k = max(1, GATHER_BYTES // V3[:, 0].nbytes)
        for c in range(0, rows.size, k):
            x = slice(c, c + k)
            np.einsum("sxr,qxr->sxq", UZ[:, x], V3[:, t[x]], out=out[:, x])
    return out.reshape(kc, rows.size * nv).T.reshape(rows.size, n)


def apply_rank_r_update(
    W: np.ndarray, state: LayerSubspace, Z: np.ndarray, scale: float, work=None
) -> None:
    """In-place ``W += scale * T^-1(U Z V^T)``, streamed in bounded blocks.

    Blocks of R square-view rows are formed as (U_block Z) V^T, scaled in
    place, added into W through the re-layout map and freed, so the live
    temporaries are one R x n' block and its R x r factor; no full m x n
    temporary is created.  R is capped by ``BLOCK_ROWS``, by
    ``BLOCK_ELEMS`` / n' and by the row segment length mu.  With ``work``
    the block and its factor are that workspace's buffers.
    """
    if W.shape != state.plan.orig:
        raise ValueError(f"W shape {W.shape} does not match plan {state.plan.orig}")
    if scale == 0.0:
        return
    _stream_blocks(W, state, Z, scale, _add_into, work)


def rank_r_delta(
    state: LayerSubspace, Z: np.ndarray, scale: float, out: np.ndarray | None = None, work=None
) -> np.ndarray:
    """``scale * T^-1(U Z V^T)`` as an m x n array, from the blocks of
    :func:`apply_rank_r_update`.

    Each cell is assigned the value that the update would add, so
    ``W + rank_r_delta(s, Z, c)`` equals ``W`` updated in place by ``c``
    bitwise, and ``W - rank_r_delta(s, Z, c)`` equals it updated by ``-c``.
    The array is ``out`` when one is given, and the blocks are formed in
    ``work``'s buffers (:mod:`sdze.workspace`).
    """
    if out is None:
        out = np.empty(state.plan.orig)
    _stream_blocks(out, state, Z, scale, np.copyto, work)
    return out


def _add_into(dst: np.ndarray, src: np.ndarray) -> None:
    np.add(dst, src, out=dst)


def _stream_blocks(
    W: np.ndarray, state: LayerSubspace, Z: np.ndarray, scale: float, put, work=None
):
    """``put(W cells, block cells)`` for every bounded block of ``scale * U Z V^T``.

    A block holds rows [a0, a1) of one column segment U3[s]; its columns are
    the square view's, (q, t) in C order.  Every cell of W receives exactly
    one block cell: T is a bijection.  The block and its R x r factor are
    ``work``'s buffers.
    """
    U3, V3, _ = state.factors(state.V.dtype)
    kc, mu, r = U3.shape
    nv, kr, _ = V3.shape
    rows_per_block = max(1, min(BLOCK_ROWS, mu, BLOCK_ELEMS // (nv * kr)))
    for s in range(kc):
        Ws = W[:, s::kc].reshape(kr, mu, nv)  # Ws[t, a, q] = W[t*mu + a, q*kc + s]
        for a0 in range(0, mu, rows_per_block):
            a1 = min(a0 + rows_per_block, mu)
            R = a1 - a0
            UZ = np.matmul(U3[s, a0:a1], Z, out=work and work.take(3, (R, r), np.float64))
            block = np.matmul(UZ, state.V.T, out=work and work.take(1, (R, nv * kr), np.float64))
            block *= scale
            put(Ws[:, a0:a1], block.reshape(R, nv, kr).transpose(2, 0, 1))
            del block  # freed, or given back, before the next block: one block live
