"""Deterministic random number generation.

Every sampling operation in this package draws from a SplitMix64 stream
(Steele, Lea & Flood 2014), a published 64-bit generator whose output is a
pure function of its 64-bit seed.  Results therefore reproduce bit-for-bit
across platforms, Python versions, and thread counts.

Stream derivation: each operation draws from the stream of the user's master
seed and a fixed ASCII label (e.g. ``stream(seed, "rows")``), which starts at
``mix64(seed XOR fnv1a64(label))`` and depends on nothing else, so streams
for different operations never collide or overlap by construction.

Lanes: SplitMix64 and FNV-1a use only add, xor, shift and multiply modulo
2**64, so :func:`stream_states` and :func:`draws` run them on many
independent values at once as operations on one Python ``int``.  Value j sits
in the low 64 bits of the 128-bit lane ``[128*j, 128*j + 128)``, and the high
64 bits of every lane are zero between operations; a lane mask (64 ones in
each lane's low half) restores that:

* a product of two 64-bit values fits in 128 bits, so a multiply never
  carries into the next lane, as long as its input lanes are below 2**64;
* a right shift moves the low bits of lane j + 1 into the high half of lane
  j, so ``z ^ (z >> s)`` is masked before the next multiply, or those bits
  would be multiplied and carried back into lane j + 1;
* a sum or product is masked to keep its low 64 bits, i.e. reduced modulo
  2**64 lane by lane.

Values move in and out of lanes through ``array("Q")`` and
``int.from_bytes`` / ``int.to_bytes``.  :func:`uniforms` draws one stream's
outputs lanes at a time the same way, since output t of a stream in state s
is ``mix64(s + (t+1)*GAMMA)``: the lanes hold the states ``s + t*GAMMA``.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterator

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# values per packed int: a chunk of 1,024 lanes is a 16 KiB int
_LANES = 1024
_LANE_ONE = (1).to_bytes(16, "little")


def _mix64(z: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective mixing function."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fnv1a64(label: str, h: int = _FNV_OFFSET) -> int:
    """FNV-1a 64 of the label's UTF-8 bytes, continued from state ``h``: with
    ``h = _fnv1a64(prefix)`` it is the hash of ``prefix + label``."""
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def _mix64_lanes(z: int, mask: int) -> int:
    """:func:`_mix64` of every lane of ``z``, whose lanes are below 2**64;
    ``mask`` is the lane mask of as many lanes."""
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    return (z ^ (z >> 31)) & mask


def _ones(n: int) -> int:
    """The int whose n lanes each hold 1: ``v * _ones(n)`` puts v in all."""
    return int.from_bytes(_LANE_ONE * n, "little")


def _pack(values: array) -> int:
    """One lane per value of an ``array("Q")``."""
    lanes = array("Q", bytes(16 * len(values)))
    lanes[::2] = values
    if sys.byteorder == "big":
        lanes.byteswap()
    return int.from_bytes(lanes, "little")


def _unpack(z: int, n: int) -> array:
    """The n lanes of ``z`` as an ``array("Q")``: the inverse of _pack."""
    lanes = array("Q", z.to_bytes(16 * n, "little"))
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes[::2]


def _rejection_limit(n: int) -> int:
    """Draws at or above this are rejected, so ``draw % n`` is unbiased."""
    if not 1 <= n <= _MASK64 + 1:
        raise ValueError(f"a uniform draw needs 1 <= n <= 2**64, got {n}")
    return _MASK64 + 1 - ((_MASK64 + 1) % n)


class Stream:
    """A SplitMix64 stream with convenience draws used across the package."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def randbelow(self, n: int) -> int:
        """Unbiased uniform integer in [0, n) via rejection sampling."""
        limit = _rejection_limit(n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the closed range [lo, hi]."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.randbelow(hi - lo + 1)

    def permutation(self, items) -> list:
        """A Fisher-Yates shuffle of a copy of ``items``."""
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.randbelow(i + 1)
            out[i], out[j] = out[j], out[i]
        return out


def stream(seed: int, label: str) -> Stream:
    """The stream used by an operation: master seed + fixed operation label."""
    return Stream(_mix64((seed & _MASK64) ^ _fnv1a64(label)))


def stream_states(seed: int, prefix: str, count: int) -> array:
    """The start states of ``stream(seed, f"{prefix}{i}")`` for i in
    range(count), as an ``array("Q")``.

    The prefix is hashed once.  FNV-1a then continues over the decimal digits
    of i lane-wise, for up to _LANES labels of one digit count at a time, and
    the seeds are mixed lane-wise.
    """
    h = _fnv1a64(prefix)
    seed &= _MASK64
    out = array("Q")
    start, width = 0, 1
    while start < count:
        stop = min(count, 10**width)
        for a in range(start, stop, _LANES):
            b = min(stop, a + _LANES)
            ones = _ones(b - a)
            mask = ones * _MASK64
            digits = "".join(map(str, range(a, b))).encode("ascii")
            lane = bytearray(16 * (b - a))
            z = h * ones
            for j in range(width):
                lane[::16] = digits[j::width]  # byte j of every label
                z = ((z ^ int.from_bytes(lane, "little")) * _FNV_PRIME) & mask
            out += _unpack(_mix64_lanes(z ^ (seed * ones), mask), b - a)
        start, width = stop, width + 1
    return out


def draws(states: array, k: int) -> array:
    """For each state s, the k outputs of k ``Stream(s).next_u64()`` calls:
    output t of state i is ``mix64(s + (t+1)*GAMMA mod 2**64)``, at index
    ``i*k + t`` of the returned ``array("Q")``.  All the states advance
    together in one packed int of ``len(states)`` lanes, one step per t, so
    callers bound that int by passing at most _LANES states at a time."""
    n = len(states)
    ones = _ones(n)
    mask = ones * _MASK64
    gamma = ones * _GAMMA
    z = _pack(states)
    out = array("Q", bytes(8 * n * k))
    for t in range(k):
        z = (z + gamma) & mask
        out[t::k] = _unpack(_mix64_lanes(z, mask), n)
    return out


def uniforms(rng: Stream, count: int) -> Iterator[list[float]]:
    """Uniform floats in [0, 1) with 53 bits of precision, ``(u >> 11) *
    2**-53`` for each of the next ``count`` outputs u of ``rng.next_u64()``,
    in lists of up to _LANES, each drawn by :func:`draws` from the lanes
    ``s + t*GAMMA`` of the stream's state s; ``rng`` moves past them at once."""
    state = rng._state
    rng._state = (state + count * _GAMMA) & _MASK64
    for a in range(0, count, _LANES):
        n = min(_LANES, count - a)
        ones = _ones(n)
        steps = _pack(array("Q", range(a, a + n)))
        states = _unpack((state * ones + steps * _GAMMA) & (ones * _MASK64), n)
        yield [(u >> 11) * 2.0 ** -53 for u in draws(states, 1)]
