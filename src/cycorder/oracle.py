"""Brute-force oracles used by the test suite to validate the main pipeline.

Nothing here shares an algorithm with the module it checks: the totient is
a direct coprime count, comparisons evaluate the coefficients of
`cyclo_moebius` (which shares no polynomial code with `cyclo`) with a plain
per-coefficient Horner loop, and the inverse-totient scan sieves totients.
"""

from __future__ import annotations

from math import gcd

from .cyclotomic import cyclo_moebius


def brute_totient(n: int) -> int:
    """Count k in 1..n coprime to n, directly."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _horner(coeffs, q: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = v * q + c
    return v


def brute_compare(m: int, n: int, q_max: int) -> dict[int, int]:
    """Multiset of signs of (value at n) - (value at m) over q in 2..q_max.

    Returns {-1: count, 0: count, 1: count}.  Coefficients come from the
    Moebius-product construction and are evaluated by a plain Horner loop,
    so no code is shared with the comparison pipeline.
    """
    if m < 1 or n < 1 or q_max < 2:
        raise ValueError(f"need m, n >= 1 and q_max >= 2, got ({m}, {n}, {q_max})")
    cm = cyclo_moebius(m).coeffs
    cn = cyclo_moebius(n).coeffs
    signs = {-1: 0, 0: 0, 1: 0}
    for q in range(2, q_max + 1):
        d = _horner(cn, q) - _horner(cm, q)
        signs[0 if d == 0 else (1 if d > 0 else -1)] += 1
    return signs


_sieve_cache: dict[int, list[int]] = {}


def _totient_table(limit: int) -> list[int]:
    # rounded up to a power of two so repeated calls share one sieve
    size = 1 << max(8, (limit - 1).bit_length())
    table = _sieve_cache.get(size)
    if table is None:
        table = list(range(size + 1))
        for p in range(2, size + 1):
            if table[p] == p:
                for k in range(p, size + 1, p):
                    table[k] -= table[k] // p
        _sieve_cache[size] = table
    return table


def brute_inverse_totient(v: int, scan_max: int) -> list[int]:
    """Linear scan for all x <= scan_max with totient(x) = v.

    Requires scan_max >= 2*v*v + 10: the totient exceeds sqrt(x/2) for
    every x (check x <= 6 by hand; for larger x each prime power factor
    p^e contributes p^(e-1)*(p-1) >= sqrt(p^e / 2)), so any preimage of v
    is at most 2*v*v and the scan bound makes the result complete.
    """
    if v < 1:
        raise ValueError(f"expected a positive integer, got {v}")
    if scan_max < 2 * v * v + 10:
        raise ValueError(
            f"scan_max {scan_max} too small for v={v}: need >= {2 * v * v + 10} "
            "to guarantee completeness"
        )
    table = _totient_table(scan_max)
    return [x for x in range(1, scan_max + 1) if table[x] == v]
