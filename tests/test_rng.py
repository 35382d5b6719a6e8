import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sdze.rng import Role, StreamKey, derive_stream, gaussian_matrix, sample_index_set


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


def test_index_set_too_large_without_replacement():
    with pytest.raises(ValueError):
        sample_index_set(derive_stream(key()), 3, 4)


def test_negative_key_fields_rejected():
    with pytest.raises(ValueError):
        StreamKey(1, Role.CORE_Z, -1, 0)


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
