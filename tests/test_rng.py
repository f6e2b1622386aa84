import pytest
from hypothesis import example, given, settings, strategies as st

from array import array

from multipar.rng import (
    _GAMMA, _MASK64, Stream, _fnv1a64, _mix64, _mix64_lanes, _ones, _pack, _unpack, draws,
    stream, stream_states, uniforms,
)

PUBLISHED_1234567 = [
    6457827717110365317, 3203168211198807973, 9817491932198370423,
    4593380528125082431, 16408922859458223821,
]


def test_splitmix64_published_vector():
    rng = Stream(1234567)
    assert [rng.next_u64() for _ in range(5)] == PUBLISHED_1234567


def test_mix64_lanes_reproduce_the_published_vector():
    states = array("Q", [(1234567 + (t + 1) * _GAMMA) & _MASK64 for t in range(5)])
    assert list(_unpack(_mix64_lanes(_pack(states), _ones(5) * _MASK64), 5)) == PUBLISHED_1234567


U64 = st.integers(min_value=0, max_value=_MASK64)
# 0, the largest state, and states whose first or second step wraps past 2**64
STATES = st.one_of(U64, st.sampled_from([0, 1, _MASK64, 2**64 - _GAMMA, 2**64 - _GAMMA + 1,
                                         2**65 - 2 * _GAMMA]))


@given(st.lists(U64, max_size=40))
def test_mix64_lanes_equal_mix64_per_lane(values):
    # the whole int: every high half stays zero
    mixed = _mix64_lanes(_pack(array("Q", values)), _ones(len(values)) * _MASK64)
    assert mixed == _pack(array("Q", map(_mix64, values)))


@given(st.lists(STATES, max_size=20), st.integers(min_value=0, max_value=12))
def test_draws_equal_successive_next_u64_calls(states, k):
    expected = []
    for s in states:
        rng = Stream(s)
        expected += [rng.next_u64() for _ in range(k)]
    assert list(draws(array("Q", states), k)) == expected


@pytest.mark.parametrize(
    "label, digest",
    [("", 0xCBF29CE484222325), ("a", 0xAF63DC4C8601EC8C), ("foobar", 0x85944171F73967E8)],
)
def test_fnv1a64_published_vectors(label, digest):
    assert _fnv1a64(label) == digest


@given(st.text(max_size=20), st.text(max_size=20))
def test_fnv1a64_continues_a_prefix_hash(prefix, suffix):
    assert _fnv1a64(suffix, _fnv1a64(prefix)) == _fnv1a64(prefix + suffix)


def test_same_seed_same_sequence():
    a = Stream(123)
    b = Stream(123)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_differ():
    a = [Stream(1).next_u64() for _ in range(10)]
    b = [Stream(2).next_u64() for _ in range(10)]
    assert a != b


def test_derive_is_position_independent():
    parent = Stream(7)
    child_before = parent.derive("rows")
    parent.next_u64()
    child_after = parent.derive("rows")
    assert child_before.next_u64() == child_after.next_u64()


def test_derived_labels_give_distinct_streams():
    seqs = {
        label: tuple(stream(0, label).next_u64() for _ in range(4))
        for label in ("rows", "directions", "buckets", "schedule")
    }
    assert len(set(seqs.values())) == len(seqs)


def test_random_in_unit_interval():
    values = [v for chunk in uniforms(Stream(42), 1000) for v in chunk]
    assert all(0.0 <= v < 1.0 for v in values)


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 3000])
def test_uniforms_are_the_streams_next_outputs(count):
    rng, serial = stream(5, "schedule"), stream(5, "schedule")
    values = [v for chunk in uniforms(rng, count) for v in chunk]
    assert values == [(serial.next_u64() >> 11) * 2.0 ** -53 for _ in range(count)]
    assert rng.next_u64() == serial.next_u64()  # both moved past the same draws


@given(st.integers(min_value=1, max_value=10_000), st.integers())
def test_randbelow_range(n, seed):
    rng = Stream(seed)
    assert 0 <= rng.randbelow(n) < n


def test_randbelow_rejects_nonpositive():
    with pytest.raises(ValueError):
        Stream(0).randbelow(0)


@pytest.mark.parametrize("n", [2**64 + 1, 10**20])
def test_draws_wider_than_64_bits_are_rejected(n):
    with pytest.raises(ValueError, match=r"2\*\*64"):
        Stream(0).randbelow(n)
    with pytest.raises(ValueError, match=r"2\*\*64"):
        Stream(0).randint(0, n - 1)


# label counts that cross the 10 / 100 / 1,000 digit-count groups and a lane chunk
COUNTS = st.one_of(st.integers(min_value=0, max_value=30),
                   st.sampled_from([99, 100, 101, 999, 1000, 1001, 1023, 1024, 1025, 1200]))


@settings(deadline=None)
@given(st.integers(min_value=-(2**70), max_value=2**70), st.text(max_size=12), COUNTS)
@example(-1, "numbers/ü-日本/", 1200)
@example(2**64, "numéros/🙂/", 1001)
@example(2**70 + 5, "", 101)
def test_stream_states_equal_one_stream_per_label(seed, prefix, count):
    got = stream_states(seed, prefix, count)
    assert list(got) == [stream(seed, f"{prefix}{i}")._state for i in range(count)]


def test_randint_closed_range():
    rng = Stream(5)
    values = {rng.randint(3, 5) for _ in range(200)}
    assert values == {3, 4, 5}


def test_randint_empty_range():
    with pytest.raises(ValueError):
        Stream(0).randint(5, 4)


@given(st.lists(st.integers(), max_size=50), st.integers())
def test_shuffle_is_a_permutation(items, seed):
    shuffled = list(items)
    Stream(seed).shuffle(shuffled)
    assert sorted(shuffled) == sorted(items)


def test_permutation_leaves_input_untouched():
    items = [1, 2, 3, 4, 5]
    out = Stream(9).permutation(items)
    assert items == [1, 2, 3, 4, 5]
    assert sorted(out) == items


def test_randbelow_roughly_uniform():
    rng = Stream(17)
    counts = [0] * 4
    for _ in range(8000):
        counts[rng.randbelow(4)] += 1
    # each bin expects 2000; allow a generous deterministic band
    assert all(1800 <= c <= 2200 for c in counts)
