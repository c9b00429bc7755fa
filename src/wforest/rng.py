"""Keyed counter-based randomness.

Every random quantity in this package is a pure function of a 64-bit seed,
a short domain string, and integer counters.  There is no global state and
no draw order, so per-edge decisions are independent of iteration order and
safe under parallel evaluation.
"""

import hashlib
import struct

from .errors import BadParams

_MASK = (1 << 64) - 1


def check_seed(seed: int) -> None:
    """Refuse a user's seed outside 0 <= seed < 2**64.  The draws read a
    seed modulo 2**64, so such a seed would repeat the run of one inside."""
    if not 0 <= seed <= _MASK:
        raise BadParams(f"seed {seed} is outside 0 <= seed < 2**64")


def u64(seed: int, domain: str, *counters: int) -> int:
    """Uniform 64-bit integer keyed by (seed, domain, counters)."""
    h = hashlib.blake2b(digest_size=8, key=(seed & _MASK).to_bytes(8, "little"))
    h.update(domain.encode())
    for c in counters:
        h.update(int(c).to_bytes(8, "little", signed=True))
    return int.from_bytes(h.digest(), "little")


def u64s(seed: int, domain: str, n: int) -> list[int]:
    """``[u64(seed, domain, i) for i in range(n)]``, keying the hash and
    feeding it the domain once, then copying that state per counter.  The
    counters are non-negative, so their unsigned bytes are `u64`'s signed
    ones; the digests are joined and decoded by one little-endian unpack,
    the byte order `u64` decodes each with on any host."""
    h = hashlib.blake2b(digest_size=8, key=(seed & _MASK).to_bytes(8, "little"))
    h.update(domain.encode())
    copy = h.copy
    digests = bytearray()
    for i in range(n):
        c = copy()
        c.update(i.to_bytes(8, "little"))
        digests += c.digest()
    return list(struct.unpack(f"<{n}Q", digests))


def threshold(p: float) -> int:
    """Integer cutoff so that u64 < threshold(p) has probability p exactly at p=0,1."""
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return 1 << 64
    return int(p * (1 << 64))


def subseed(seed: int, domain: str, *counters: int) -> int:
    """Derive an independent 64-bit seed (for per-run streams)."""
    return u64(seed, domain, *counters)
