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
bit-exactly, in one of two layouts:

* float64: each consecutive pair of words gives the uniforms
  ``u1 = ((bits >> 11) + 1) * 2^-53`` in (0, 1] and
  ``u2 = (bits >> 11) * 2^-53`` in [0, 1), which give the pair
  ``sqrt(-2 ln u1) * (cos(2 pi u2), sin(2 pi u2))`` in float64.  A pair of
  normals takes two words.
* float32: one word gives both uniforms, cut into two 24-bit fields, bits
  63..40 for ``u1 = ((w >> 40) + 1) * 2^-24`` in (0, 1] and bits 39..16 for
  ``u2 = ((w >> 16) & (2^24 - 1)) * 2^-24`` in [0, 1); bits 15..0 go unused.
  ``log``, ``sqrt``, ``cos`` and ``sin`` run in float32, and the angle is
  ``u2``'s field times ``float32(2 pi 2^-24)``.  A pair of normals takes one
  word.  Since ``u1 >= 2^-24``, the tails are cut at
  ``sqrt(-2 ln 2^-24) = sqrt(48 ln 2)``, about 5.8 sigma: a normal is that
  far out with probability about 8e-9.

A draw runs the transform in blocks of :data:`CHUNK_PAIRS` pairs, in place,
so beside its output it allocates only one block's buffers; since word
``i`` is a function of its counter alone, the block size changes no bit.

Key layout of the collocation batch.  A B x d batch, then its B radii, are
one stream of one key ``(master, COLLOCATION, step, 0)``, read with word
offsets; it does not take one key per row.  Offsets keep every bit drawn so
far, and any row block is still addressable.  With ``w`` the words a pair
of normals takes (2 in float64, 1 in float32), ``normals(n)`` consumes
``w ceil(n / 2)`` words, so row block ``[a, a + k)`` of the B x d normals
starts at word ``w floor(a d / 2)`` and drops its first value when ``a d``
is odd, and the radii of those rows, float64 uniforms in either layout,
start at word ``w ceil(B d / 2) + a``.  Per-row keys would admit a generator
with a variable word count per normal, but they change every trajectory
once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .workspace import buffer

_M64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# the same constants as uint64 scalars, for array arithmetic
_GAMMA_U64, _MIX1_U64, _MIX2_U64 = (np.uint64(c) for c in (_GAMMA, _MIX1, _MIX2))
_TO_UNIT = float(2.0**-53)
# (x * 2^-53) * 2pi in one product: scaling by a power of two is exact
_TO_ANGLE = _TO_UNIT * (2.0 * np.pi)
# the float32 layout's 24-bit fields and their scales, as float32
_FIELD = np.uint64(2**24 - 1)
_TO_UNIT24 = np.float32(2.0**-24)
_TO_ANGLE24 = np.float32(2.0**-24 * (2.0 * np.pi))


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
        # the key hash reads each field's 64 bits: a wider one would alias
        for name in ("master", "step", "index"):
            if not 0 <= getattr(self, name) <= _M64:
                raise ValueError(f"stream key {name} must be in [0, 2**64)")


def _mix64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """mix64 of ``z`` in place, with ``tmp`` (uint64, z's shape) as scratch; returns ``z``."""
    # uint64 array arithmetic wraps mod 2^64, without a warning
    for shift, factor in ((30, _MIX1_U64), (27, _MIX2_U64), (31, None)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        if factor is not None:
            z *= factor
    return z


def _mix64_int(z: int) -> int:
    """:func:`_mix64` of one Python int, kept to 64 bits by masking."""
    z = ((z ^ (z >> 30)) * _MIX1) & _M64
    z = ((z ^ (z >> 27)) * _MIX2) & _M64
    return z ^ (z >> 31)


def _key_state(key: StreamKey) -> int:
    # Python ints: a key costs a few microseconds, not numpy scalar arithmetic
    h = _mix64_int(key.master ^ _GAMMA)
    for field_value in (int(key.role), key.step, key.index):
        h = _mix64_int((h + _GAMMA * (field_value + 1)) & _M64)
    return h


# pairs of normals per block of a draw; bounds its buffers, changes no bit
CHUNK_PAIRS = 8192
# the most a draw allocates beside its output: per pair, in float64, two
# words each of counters, mixed words and mixing scratch, whose words then
# hold the angle and trig planes, and one radius; float32 takes 28 bytes
CHUNK_BYTES = 8 * 7 * CHUNK_PAIRS


def _ramp(n: int) -> np.ndarray:
    """``(1, 2, .., n) * GAMMA`` mod 2^64, the counter terms of ``n`` consecutive words."""
    ramp = np.arange(1, n + 1, dtype=np.uint64)
    ramp *= _GAMMA_U64
    return ramp


def _words(
    state: int, first: int, ramp: np.ndarray, out: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """Words ``first + 1 ..`` of the stream at ``state`` into ``out``; returns ``out``.

    Word ``i`` is ``mix64(state + i * GAMMA)`` mod 2^64.  ``ramp`` is a
    :func:`_ramp` and ``tmp`` uint64 scratch, both at least ``out``'s size;
    ``out`` may be ``ramp`` itself.
    """
    np.add(ramp[: out.size], np.uint64((state + first * _GAMMA) & _M64), out=out)
    return _mix64(out, tmp[: out.size])


class RngStream:
    """Counter-based stream; state is (key hash, draws consumed)."""

    __slots__ = ("state", "offset")

    def __init__(self, state: int, offset: int = 0):
        self.state = state
        self.offset = offset

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw uint64 words."""
        ramp = _ramp(n)
        words = _words(self.state, self.offset, ramp, ramp, np.empty_like(ramp))
        self.offset += n
        return words

    def uniforms(self, n: int) -> np.ndarray:
        """i.i.d. uniform float64 in [0, 1)."""
        words = self.raw(n)
        words >>= np.uint64(11)
        return words * _TO_UNIT

    def normals(
        self, n: int, out: np.ndarray | None = None, dtype=np.float64, work=None
    ) -> np.ndarray:
        """i.i.d. standard normals via Box-Muller, in the ``dtype`` layout (module docstring).

        ``dtype`` is float64 or float32.  ``out``, an array of that dtype and
        shape ``(n,)``, receives the draw, which is then returned; without it
        the draw is a new array.  Beside it the draw allocates at most
        :data:`CHUNK_BYTES`; with ``work`` (:mod:`sdze.workspace`), whose
        scratch holds the block's mixed words, mixing scratch and radii, only
        its counter terms.
        """
        dtype = np.dtype(dtype)
        if dtype not in (np.float64, np.float32):
            raise ValueError(f"normals are float64 or float32, not {dtype}")
        if out is None:
            out = np.empty(n, dtype)
        elif out.dtype != dtype or out.shape != (n,):
            raise ValueError(f"out must be a {dtype} array of shape ({n},)")
        npairs = (n + 1) // 2
        per_pair = 2 if dtype == np.float64 else 1
        k = min(CHUNK_PAIRS, npairs)
        size = (per_pair * k,)
        ramp, words = _ramp(size[0]), buffer(work, 0, size, np.uint64)
        # mixing scratch, then the angle and trig planes
        tmp = buffer(work, 1, size, np.uint64)
        planes = tmp.view(dtype)
        radius = buffer(work, 2, (k,), dtype)
        for p in range(0, npairs, CHUNK_PAIRS):
            m = min(k, npairs - p)
            w = _words(self.state, self.offset + per_pair * p, ramp, words[: per_pair * m], tmp)
            # a cast without buffering: assign, then operate in place
            r, a, trig = radius[:m], planes[:m], planes[k : k + m]
            if per_pair == 2:
                w >>= np.uint64(11)
                r[...] = w[0::2]
                r += 1.0
                r *= _TO_UNIT
                a[...] = w[1::2]
                a *= _TO_ANGLE
            else:
                u1 = np.right_shift(w, np.uint64(40), out=tmp[:m])
                r[...] = u1.view(np.int64)  # < 2^24: exact, and faster than from uint64
                r += 1.0
                r *= _TO_UNIT24
                w >>= np.uint64(16)
                w &= _FIELD
                a[...] = w.view(np.int64)
                a *= _TO_ANGLE24
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            even, odd = out[2 * p : 2 * (p + m) : 2], out[2 * p + 1 : 2 * (p + m) : 2]
            np.multiply(r, np.cos(a, out=trig), out=even)
            np.multiply(r[: odd.size], np.sin(a, out=trig)[: odd.size], out=odd)
        self.offset += per_pair * npairs
        return out


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
