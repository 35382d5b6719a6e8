"""Deterministic, splittable, counter-based random streams.

Every random quantity in a run (collocation batches, dimension index sets,
subspace bases and cores, weight init, test points) is drawn from a stream
addressed by a :class:`StreamKey` ``(master, role, step, index)``.  Streams
are pure functions of their key: draw ``i`` of a stream is
``mix64(state + (i+1) * GAMMA)`` where ``state`` is a hash of the key fields
and ``mix64`` is the 64-bit finalizer below.  There is no global state, so
evaluation order and parallel scheduling cannot change any draw — which is
what makes seed locking across the +eps/-eps passes exact, and lets samples
be regenerated instead of cached.

Gaussian variates use the trigonometric Box-Muller transform, fixed
bit-exactly: each consecutive pair of uniforms ``(u1, u2)`` with
``u1 = (bits >> 11 + 1) * 2^-53`` in (0, 1] and ``u2 = (bits >> 11) * 2^-53``
in [0, 1) yields the pair ``sqrt(-2 ln u1) * (cos(2 pi u2), sin(2 pi u2))``.
Two uniforms are consumed per pair of normals.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

_M64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# the same constants as uint64 scalars, for array arithmetic
_GAMMA_U64, _MIX1_U64, _MIX2_U64 = (np.uint64(c) for c in (_GAMMA, _MIX1, _MIX2))
_TO_UNIT = float(2.0**-53)


class Role(IntEnum):
    """Stream roles; the role value participates in the key hash."""

    COLLOCATION = 0
    DIM_SET_1 = 1
    DIM_SET_2 = 2
    BASE_U = 3
    BASE_V = 4
    CORE_Z = 5
    SOLUTION_COEFFS = 6
    TEST_POINTS = 8
    WEIGHT_INIT = 9


@dataclass(frozen=True)
class StreamKey:
    master: int
    role: Role
    step: int = 0
    index: int = 0

    def __post_init__(self):
        if self.step < 0 or self.index < 0:
            raise ValueError("step and index must be non-negative")


def _mix64(z: np.ndarray) -> np.ndarray:
    # uint64 array arithmetic wraps mod 2^64, without a warning
    z = (z ^ (z >> np.uint64(30))) * _MIX1_U64
    z = (z ^ (z >> np.uint64(27))) * _MIX2_U64
    return z ^ (z >> np.uint64(31))


def _mix64_int(z: int) -> int:
    """:func:`_mix64` of one Python int, kept to 64 bits by masking."""
    z = ((z ^ (z >> 30)) * _MIX1) & _M64
    z = ((z ^ (z >> 27)) * _MIX2) & _M64
    return z ^ (z >> 31)


def _key_state(key: StreamKey) -> int:
    # Python ints: a key costs a few microseconds, not numpy scalar arithmetic
    h = _mix64_int((key.master & _M64) ^ _GAMMA)
    for field_value in (int(key.role), key.step, key.index):
        h = _mix64_int((h + _GAMMA * ((field_value & _M64) + 1)) & _M64)
    return h


class RngStream:
    """Counter-based stream; state is (key hash, draws consumed)."""

    __slots__ = ("state", "offset")

    def __init__(self, state: int, offset: int = 0):
        self.state = np.uint64(state)
        self.offset = offset

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw uint64 words."""
        idx = np.arange(self.offset + 1, self.offset + n + 1, dtype=np.uint64)
        self.offset += n
        return _mix64(self.state + idx * _GAMMA_U64)

    def uniforms(self, n: int) -> np.ndarray:
        """i.i.d. uniform float64 in [0, 1)."""
        return (self.raw(n) >> np.uint64(11)).astype(np.float64) * _TO_UNIT

    def normals(self, n: int) -> np.ndarray:
        """i.i.d. standard normal float64 via Box-Muller (see module docstring)."""
        npairs = (n + 1) // 2
        bits = self.raw(2 * npairs)
        u1 = ((bits[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _TO_UNIT
        u2 = (bits[1::2] >> np.uint64(11)).astype(np.float64) * _TO_UNIT
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = (2.0 * np.pi) * u2
        out = np.empty(2 * npairs)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:n]


def derive_stream(key: StreamKey) -> RngStream:
    """Stream whose output depends only on the key; no global state."""
    return RngStream(_key_state(key))


def gaussian_matrix(stream: RngStream, rows: int, cols: int) -> np.ndarray:
    """``rows x cols`` matrix of i.i.d. standard normals."""
    if rows < 1 or cols < 1:
        raise ValueError(f"gaussian_matrix needs rows, cols >= 1, got ({rows}, {cols})")
    return stream.normals(rows * cols).reshape(rows, cols)


def sample_index_set(stream: RngStream, n_total: int, k: int) -> np.ndarray:
    """Ordered list of ``k`` distinct indices from ``{0..n_total-1}``.

    Partial Fisher-Yates shuffle driven by ``k`` uniform draws, every
    k-subset equiprobable.  The pool is virtual: only the cells a swap moved
    are recorded, so memory is O(k) however large ``n_total`` is.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n_total:
        raise ValueError(f"cannot draw {k} of {n_total} without replacement")
    moved: dict[int, int] = {}  # pool cell -> its value, where it is not the cell
    out = []
    for j, u in enumerate(stream.uniforms(k).tolist()):
        r = j + int(u * (n_total - j))
        out.append(moved.get(r, r))
        moved[r] = moved.get(j, j)
    return np.array(out, dtype=np.int64)
