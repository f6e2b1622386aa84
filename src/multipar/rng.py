"""Deterministic random number generation.

Every sampling operation in this package draws from a SplitMix64 stream
(Steele, Lea & Flood 2014), a published 64-bit generator whose output is a
pure function of its 64-bit seed.  Results therefore reproduce bit-for-bit
across platforms, Python versions, and thread counts.

Stream derivation: each operation derives a child stream from the user's
master seed and a fixed ASCII label (e.g. ``derive(seed, "rows")``).  The
child seed is ``mix64(seed XOR fnv1a64(label))``, so streams for different
operations never collide or overlap by construction.  FNV-1a is a left fold
over the label's bytes, so :func:`streams` hashes a shared label prefix once
and continues the fold with each suffix.
"""

from __future__ import annotations

from typing import Iterator

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325


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
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def _rejection_limit(n: int) -> int:
    """Draws at or above this are rejected, so ``draw % n`` is unbiased."""
    if not 1 <= n <= _MASK64 + 1:
        raise ValueError(f"a uniform draw needs 1 <= n <= 2**64, got {n}")
    return _MASK64 + 1 - ((_MASK64 + 1) % n)


class Stream:
    """A SplitMix64 stream with convenience draws used across the package."""

    __slots__ = ("_seed", "_state")

    def __init__(self, seed: int):
        self._seed = seed & _MASK64
        self._state = seed & _MASK64

    def derive(self, label: str) -> "Stream":
        """Child stream keyed by a fixed label; independent of draw position."""
        return Stream(_mix64(self._seed ^ _fnv1a64(label)))

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

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

    def randints(self, lo: int, hi: int, k: int) -> list[int]:
        """The k values of k successive ``randint(lo, hi)`` calls, leaving the
        stream where those calls would; SplitMix64 and the rejection loop run
        inline."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        n = hi - lo + 1
        limit = _rejection_limit(n)
        state = self._state
        out = []
        append = out.append
        for _ in range(k):
            while True:
                state = (state + _GAMMA) & _MASK64
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
                z ^= z >> 31
                if z < limit:
                    break
            append(lo + z % n)
        self._state = state
        return out

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, items) -> list:
        out = list(items)
        self.shuffle(out)
        return out

    def choice(self, items):
        seq = list(items)
        if not seq:
            raise ValueError("choice from empty sequence")
        return seq[self.randbelow(len(seq))]


def stream(seed: int, label: str) -> Stream:
    """The stream used by an operation: master seed + fixed operation label."""
    return Stream(seed).derive(label)


def streams(seed: int, prefix: str, count: int) -> Iterator[Stream]:
    """``stream(seed, f"{prefix}{i}")`` for i in range(count), hashing the
    prefix once."""
    seed &= _MASK64
    h = _fnv1a64(prefix)
    for i in range(count):
        yield Stream(_mix64(seed ^ _fnv1a64(str(i), h)))
