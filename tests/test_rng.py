import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sdze import rng
from sdze.rng import (
    CHUNK_BYTES,
    CHUNK_PAIRS,
    Role,
    RngStream,
    StreamKey,
    derive_stream,
    gaussian_matrix,
    sample_index_set,
)
from sdze.spatial import ball_rows, sample_unit_ball


def key(master=42, role=Role.COLLOCATION, step=0, index=0):
    return StreamKey(master, role, step, index)


def test_same_key_same_draws():
    a = derive_stream(key()).uniforms(100)
    b = derive_stream(key()).uniforms(100)
    assert np.array_equal(a, b)


# Role values take part in the key hash, so renumbering a role moves its
# stream.  The words below are the first two raw() words of
# StreamKey(7, role, 3, 1); exact integers, the same on every platform.
STREAM_KNOWN_ANSWERS = {
    Role.COLLOCATION: (0, 16389634606863074608, 12166049583748414733),
    Role.DIM_SET_1: (1, 14843060639791306571, 16910295446321810756),
    Role.DIM_SET_2: (2, 8246031458366995592, 13602123053462948580),
    Role.BASE_U: (3, 6172435850575104473, 2562944218998572288),
    Role.BASE_V: (4, 8725063116979910533, 13530714395709628564),
    Role.CORE_Z: (5, 7722269650874239571, 13010722130658137473),
    Role.SOLUTION_COEFFS: (6, 8683198332912570659, 14813471480544590334),
    Role.TEST_POINTS: (8, 7372760996455910761, 4970669016660795536),
    Role.WEIGHT_INIT: (9, 12501405681483352660, 11606095288760312779),
}


# normals(7) after raw(3), then uniforms(3), of StreamKey(7, CORE_Z, 3, 1):
# the Box-Muller pairs start at an odd word and leave one normal unused
NORMALS_KNOWN_ANSWER = [
    "0x1.4dfd6e3bc0c7ap+0",
    "0x1.d7efbf5f77f45p-1",
    "0x1.c390b4b27dd1dp-1",
    "-0x1.6e02fd8a0c375p+0",
    "-0x1.8523e7167d364p-1",
    "-0x1.df87cdd44e91dp-2",
    "-0x1.ba0a217fbc4b9p-1",
]
UNIFORMS_KNOWN_ANSWER = ["0x1.1f4eb1b5ccbb8p-4", "0x1.ee90fcb79f513p-1", "0x1.81e81443578c4p-1"]
# the same reads with the float32 draw, which takes one word a pair
NORMALS_F32_KNOWN_ANSWER = [
    "-0x1.4ad4b00000000p+0",
    "0x1.e0c1320000000p-1",
    "-0x1.d233c80000000p+0",
    "0x1.2761ac0000000p+0",
    "-0x1.03a9260000000p-2",
    "0x1.a91f200000000p+0",
    "-0x1.1ac3420000000p-1",
]
UNIFORMS_F32_KNOWN_ANSWER = ["0x1.57b9f819344c5p-1", "0x1.2cff6169275d3p-1", "0x1.0c6a5d2b4770ap-1"]


def test_stream_keys_match_known_answers():
    assert set(STREAM_KNOWN_ANSWERS) == set(Role)
    for role, (value, w0, w1) in STREAM_KNOWN_ANSWERS.items():
        assert int(role) == value
        words = derive_stream(StreamKey(7, role, 3, 1)).raw(2)
        assert [int(w) for w in words] == [w0, w1], role.name
    stream = derive_stream(StreamKey(7, Role.CORE_Z, 3, 1))
    stream.raw(3)
    assert [float(x).hex() for x in stream.normals(7)] == NORMALS_KNOWN_ANSWER
    assert [float(x).hex() for x in stream.uniforms(3)] == UNIFORMS_KNOWN_ANSWER


def test_float32_normals_match_known_answers():
    stream = derive_stream(StreamKey(7, Role.CORE_Z, 3, 1))
    stream.raw(3)
    got = stream.normals(7, dtype=np.float32)
    assert got.dtype == np.float32 and stream.offset == 3 + 4
    assert [float(x).hex() for x in got] == NORMALS_F32_KNOWN_ANSWER
    assert [float(x).hex() for x in stream.uniforms(3)] == UNIFORMS_F32_KNOWN_ANSWER


def test_step_change_decorrelates():
    a = derive_stream(key(step=3)).raw(100)
    b = derive_stream(key(step=4)).raw(100)
    assert (a != b).sum() >= 95


def test_role_change_decorrelates():
    a = derive_stream(key(role=Role.DIM_SET_1)).raw(100)
    b = derive_stream(key(role=Role.DIM_SET_2)).raw(100)
    assert (a != b).sum() >= 95


def test_index_change_decorrelates():
    a = derive_stream(key(index=0)).raw(100)
    b = derive_stream(key(index=1)).raw(100)
    assert (a != b).sum() >= 95


def test_gaussian_moments():
    g = derive_stream(key(role=Role.CORE_Z)).normals(10**6)
    assert -0.005 <= g.mean() <= 0.005
    assert 0.99 <= g.var() <= 1.01


def test_float32_normals_have_tails_cut_at_the_smallest_u1():
    # u1 >= 2^-24, so |z| <= sqrt(-2 ln 2^-24) = sqrt(48 ln 2); no u1 is 0
    n = 2 * 10**6
    stream = derive_stream(key(role=Role.CORE_Z, step=1))
    u1 = ((RngStream(stream.state).raw(n // 2) >> np.uint64(40)) + np.uint64(1)) * 2.0**-24
    assert u1.min() > 0.0
    z = stream.normals(n, dtype=np.float32)
    assert np.isfinite(z).all()
    assert np.abs(z).max() <= np.sqrt(48.0 * np.log(2.0))
    g = z.astype(np.float64)
    assert -0.005 <= g.mean() <= 0.005
    assert 0.99 <= g.var() <= 1.01
    # the tail past 4 sigma is there, at about its normal share (6.3e-5)
    assert 0.5 < (np.abs(z) > 4.0).mean() / (2.0 * stats.norm.sf(4.0)) < 1.5


def test_gaussian_matrix_deterministic():
    a = gaussian_matrix(derive_stream(key(role=Role.BASE_U)), 7, 5)
    b = gaussian_matrix(derive_stream(key(role=Role.BASE_U)), 7, 5)
    assert np.array_equal(a, b)


def test_gaussian_matrix_rejects_empty():
    with pytest.raises(ValueError):
        gaussian_matrix(derive_stream(key()), 0, 3)
    with pytest.raises(ValueError):
        gaussian_matrix(derive_stream(key()), 3, 0)


def test_uniformity_chi_square():
    # distinct keys must each look uniform: chi-square on 100 bins, 1e6 draws
    for master in (1, 2):
        u = derive_stream(key(master=master, role=Role.TEST_POINTS)).uniforms(10**6)
        counts, _ = np.histogram(u, bins=100, range=(0.0, 1.0))
        chi2 = float(((counts - 10_000.0) ** 2 / 10_000.0).sum())
        p = stats.chi2.sf(chi2, df=99)
        assert p > 0.001


def test_cross_stream_independence_chi_square():
    # pair two streams into a 10x10 joint histogram; independence => uniform cells
    u1 = derive_stream(key(step=7)).uniforms(10**6)
    u2 = derive_stream(key(step=8)).uniforms(10**6)
    joint, _, _ = np.histogram2d(u1, u2, bins=10, range=[[0, 1], [0, 1]])
    chi2 = float(((joint - 10_000.0) ** 2 / 10_000.0).sum())
    assert stats.chi2.sf(chi2, df=99) > 0.001


def test_index_set_exhaustive_draw():
    got = sample_index_set(derive_stream(key(role=Role.DIM_SET_1)), 4, 4)
    assert sorted(got.tolist()) == [0, 1, 2, 3]


def test_index_set_subset_frequencies():
    counts = {}
    for trial in range(6000):
        s = sample_index_set(
            derive_stream(key(role=Role.DIM_SET_1, step=trial)), 4, 2
        )
        counts[frozenset(s.tolist())] = counts.get(frozenset(s.tolist()), 0) + 1
    assert len(counts) == 6
    for c in counts.values():
        assert 880 <= c <= 1120


def test_index_set_deterministic():
    a = sample_index_set(derive_stream(key(role=Role.DIM_SET_2, step=5)), 10, 4)
    b = sample_index_set(derive_stream(key(role=Role.DIM_SET_2, step=5)), 10, 4)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "n, k, index, want",
    [
        (7, 7, 0, [0, 5, 4, 1, 3, 6, 2]),
        (100, 16, 1, [4, 2, 20, 50, 67, 49, 48, 5, 54, 83, 70, 78, 21, 71, 66, 30]),
        (
            10**6,
            16,
            2,
            [869147, 587424, 931806, 722705, 819877, 709972, 686601, 542040,
             751230, 938426, 907191, 236521, 478899, 907999, 786828, 673980],
        ),
    ],
)
def test_index_set_known_answers(n, k, index, want):
    # recorded from the dense-pool shuffle; the virtual pool must draw the same
    got = sample_index_set(derive_stream(StreamKey(11, Role.DIM_SET_1, 3, index)), n, k)
    assert got.dtype == np.int64 and got.tolist() == want


def test_index_set_too_large_without_replacement():
    with pytest.raises(ValueError):
        sample_index_set(derive_stream(key()), 3, 4)


@pytest.mark.parametrize(
    "fields, name",
    [((-1, 0, 0), "master"), ((2**64, 0, 0), "master"), ((1, -1, 0), "step"),
     ((0, 2**64, 0), "step"), ((0, 0, 2**64), "index")],
    ids=["negative_master", "master_past_64_bits", "negative_step", "step_past_64_bits",
         "index_past_64_bits"],
)
def test_key_fields_past_64_bits_are_refused_not_aliased(fields, name):
    # the key hash reads 64 bits of each field: step 2**64 would draw step
    # 0's stream, and master -1 master 2**64 - 1's
    master, step, index = fields
    with pytest.raises(ValueError, match=rf"^stream key {name} must be in \[0, 2\*\*64\)$"):
        StreamKey(master, Role.CORE_Z, step, index)
    StreamKey(2**64 - 1, Role.CORE_Z, 2**64 - 1, 2**64 - 1)  # the largest key is a key


@given(
    master=st.integers(min_value=0, max_value=2**64 - 1),
    role=st.sampled_from(list(Role)),
    step=st.integers(min_value=0, max_value=10**9),
    index=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=60, deadline=None)
def test_streams_are_pure_functions_of_keys(master, role, step, index):
    k = StreamKey(master, role, step, index)
    a = derive_stream(k).uniforms(16)
    b = derive_stream(k).uniforms(16)
    assert np.array_equal(a, b)
    assert np.all((a >= 0.0) & (a < 1.0))


def _reference_normals(stream, n):
    """The module docstring's Box-Muller over whole arrays, from ``raw`` words."""
    npairs = (n + 1) // 2
    bits = stream.raw(2 * npairs) >> np.uint64(11)
    u1 = (bits[0::2].astype(np.float64) + 1.0) * 2.0**-53
    u2 = bits[1::2].astype(np.float64) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * np.pi) * u2
    out = np.empty(2 * npairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:n]


def test_raw_words_are_the_docstring_formula():
    k = key(role=Role.BASE_V, step=9)
    stream = derive_stream(k)
    stream.raw(5)
    state = rng._key_state(k)
    want = [rng._mix64_int((state + i * rng._GAMMA) & rng._M64) for i in range(6, 6 + 37)]
    assert [int(w) for w in stream.raw(37)] == want
    assert stream.offset == 42


@pytest.mark.parametrize(
    "n", [1, 2, 7, 2 * CHUNK_PAIRS - 1, 2 * CHUNK_PAIRS, 2 * CHUNK_PAIRS + 1, 6 * CHUNK_PAIRS + 5]
)
@pytest.mark.parametrize("skip", [0, 3])
def test_blocked_normals_equal_the_whole_array_transform(n, skip):
    # the draw runs in blocks of CHUNK_PAIRS pairs; every bit, and the words
    # it consumes, must be those of one whole-array transform
    got, ref, into = (derive_stream(key(role=Role.CORE_Z)) for _ in range(3))
    for stream in (got, ref, into):
        stream.raw(skip)
    drawn = got.normals(n)
    assert drawn.tobytes() == _reference_normals(ref, n).tobytes()
    assert got.offset == ref.offset == skip + 2 * ((n + 1) // 2)
    # the next draw starts where this one stopped
    assert got.normals(5).tobytes() == _reference_normals(ref, 5).tobytes()
    buf = np.full(n, np.nan)
    assert into.normals(n, out=buf) is buf
    assert buf.tobytes() == drawn.tobytes() and into.offset == skip + 2 * ((n + 1) // 2)


def _reference_normals_f32(stream, n):
    """The docstring's float32 Box-Muller over whole arrays: two 24-bit fields a word."""
    words = stream.raw((n + 1) // 2)
    u1 = ((words >> np.uint64(40)) + np.uint64(1)).astype(np.float32) * np.float32(2.0**-24)
    field = (words >> np.uint64(16)) & np.uint64(2**24 - 1)
    angle = field.astype(np.float32) * np.float32(2.0**-24 * (2.0 * np.pi))
    radius = np.sqrt(np.float32(-2.0) * np.log(u1))
    out = np.empty(2 * words.size, np.float32)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:n]


@pytest.mark.parametrize(
    "n", [1, 2, 7, 2 * CHUNK_PAIRS + 1, 4 * CHUNK_PAIRS - 1, 4 * CHUNK_PAIRS, 4 * CHUNK_PAIRS + 1]
)
@pytest.mark.parametrize("skip", [0, 3])
def test_blocked_float32_normals_equal_the_whole_array_transform(n, skip):
    # a float32 block is CHUNK_PAIRS words, 2 CHUNK_PAIRS normals
    got, ref, into = (derive_stream(key(role=Role.CORE_Z)) for _ in range(3))
    for stream in (got, ref, into):
        stream.raw(skip)
    drawn = got.normals(n, dtype=np.float32)
    assert drawn.dtype == np.float32
    assert drawn.tobytes() == _reference_normals_f32(ref, n).tobytes()
    assert got.offset == ref.offset == skip + (n + 1) // 2
    assert got.normals(5, dtype=np.float32).tobytes() == _reference_normals_f32(ref, 5).tobytes()
    buf = np.full(n, np.nan, np.float32)
    assert into.normals(n, out=buf, dtype=np.float32) is buf
    assert buf.tobytes() == drawn.tobytes() and into.offset == skip + (n + 1) // 2


def test_normals_out_must_fit_the_draw():
    for bad in (np.empty(5), np.empty(4, np.float32), np.empty((2, 2))):
        with pytest.raises(ValueError, match="out must be"):
            derive_stream(key()).normals(4, out=bad)
    with pytest.raises(ValueError, match="out must be"):
        derive_stream(key()).normals(4, out=np.empty(4), dtype=np.float32)
    with pytest.raises(ValueError, match="float64 or float32"):
        derive_stream(key()).normals(4, dtype=np.float16)


# bytes a draw's block takes per pair of normals: in float64 two words each
# of counters, mixed words and mixing scratch (which then holds the angle
# and trig planes) and a float64 radius; in float32 one word each and a
# float32 radius
BLOCK_BYTES_PER_PAIR = {np.float64: 56, np.float32: 28}


def _draw_peak(peak_spans, n: int, dtype) -> int:
    draw = peak_spans.measure(lambda: derive_stream(key()).normals(n, dtype=dtype), "draw")
    draw()
    return peak_spans.peaks("draw")[-1]


def test_a_draw_allocates_its_output_and_one_block(peak_spans):
    n = 10**6
    assert BLOCK_BYTES_PER_PAIR[np.float64] * CHUNK_PAIRS == CHUNK_BYTES
    assert _draw_peak(peak_spans, n, np.float64) <= 8 * n + CHUNK_BYTES + 4096


def test_a_float32_draw_allocates_its_output_and_one_block(peak_spans):
    n = 10**6
    block = BLOCK_BYTES_PER_PAIR[np.float32] * CHUNK_PAIRS
    assert _draw_peak(peak_spans, n, np.float32) <= 4 * n + block + 4096


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_ball_draw_allocates_its_output_and_one_block(peak_spans, dtype):
    # the row norms take one block of scratch rows, not a B x d plane
    B, d = 50, 10**4
    ball = peak_spans.measure(lambda: sample_unit_ball(derive_stream(key()), B, d, dtype), "ball")
    X = ball()
    assert X.dtype == dtype and X.shape == (B, d)
    assert peak_spans.peaks("ball")[0] <= X.nbytes + CHUNK_BYTES + 4096


@pytest.mark.parametrize("d", [7, 20, 100, 333])
def test_row_blocks_of_a_batch_start_at_their_word_offsets(d):
    # the key layout of the rng docstring: one stream per B x d batch, any
    # row block [a, a + k) addressable by word offset, in either layout (w
    # words a pair); a block's own row norms give the ball's bits (d = 333
    # takes several norm blocks of rows)
    B = 300
    stream = derive_stream(key(step=4))
    for dtype, w in ((np.float64, 2), (np.float32, 1)):
        whole = RngStream(stream.state)
        g, rho = whole.normals(B * d, dtype=dtype), whole.uniforms(B)
        X = sample_unit_ball(RngStream(stream.state), B, d, dtype)
        for a, k in [(0, 3), (3, 5), (8, 3), (11, 256)]:
            odd = a * d % 2
            block = RngStream(stream.state, w * (a * d // 2)).normals(k * d + odd, dtype=dtype)
            block = block[odd:]
            assert block.tobytes() == g[a * d : (a + k) * d].tobytes()
            u = RngStream(stream.state, w * ((B * d + 1) // 2) + a).uniforms(k)
            assert u.tobytes() == rho[a : a + k].tobytes()
            rows = block.reshape(k, d)
            scale = u ** (1.0 / d) / np.linalg.norm(rows, axis=1)
            rows *= scale[:, None].astype(dtype)
            assert rows.tobytes() == X[a : a + k].tobytes()
            # which is how relative_l2 draws its blocks
            assert ball_rows(stream, B, d, a, k, dtype).tobytes() == rows.tobytes()
