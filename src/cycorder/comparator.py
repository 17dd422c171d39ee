"""Decide how the values of two cyclotomic polynomials relate across every
integer q >= 2, producing a finite certificate.

For indices m and n, let D be the polynomial for n minus the polynomial
for m.  When D is nonzero, write c for the largest absolute coefficient
of D and d for its degree.  For q >= c + 1,

    |D(q)| >= q^d - c*(q^(d-1) + ... + 1) > 0,

because q^d * (q - 1) >= c * q^d > c * (q^d - 1); equivalently, after
splitting D into its positive and negative parts A - B, the base-q digit
string of A(q) beats B(q) once q exceeds every digit.  So the sign of
D(q) equals the sign of D's leading coefficient for all q > c, and only
q in [2, c] (empty when c <= 1) needs exhaustive evaluation.  The verdict
plus those finitely many signs certify the infinite family of
inequalities.

D is never formed coefficient by coefficient.  The cache keeps each
compared entry's value at 2^w (w = 8) as one integer P, with its length
and its height H (largest absolute coefficient), all made from its
kernel's bytes (`CycloCache.packed_entry`); then X = P_n - P_m is D's
value at B = 2^w, and every |D_i| <= h = H_n + H_m.  While 4h < B:

  * the leading sign is the sign of X: below D's top nonzero coefficient
    the digits sum to at most h * (B^top - 1) / (B - 1) < B^top in
    absolute value;
  * c is read off X by a handful of big-integer operations
    (`difference_threshold`, which proves the test it applies).

A pair whose heights sum to 64 or more (first possible at index 26565,
whose entry has height 59) packs both entries afresh from their kernels,
uncached, at the smallest multiple of 8 bits w with 4h < 2^w, and goes
through the same reading.

The certificate carries c, the leading sign and the finite evidence, not
D itself: D and its split are recomputed from the two indices as
`cyclo(n, cache) - cyclo(m, cache)` and `.split_pos_neg()`.

Ties (D(q) = 0 at some checked q) are compatible with the ordering, which
is defined through "<="; they are recorded in the certificate rather than
downgrading the verdict, so strictness can be audited separately.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

from .cyclotomic import PACK_WIDTH, CycloCache, eval_cyclo, pair_width
from .cyclotomic import cyclo  # noqa: F401  bench/spans.py wraps comparator.cyclo


class Verdict(enum.Enum):
    """Relation between indices m and n over all integer arguments q >= 2."""

    LESS = "LESS"  # value at m <= value at n everywhere, m != n
    GREATER = "GREATER"
    EQUAL = "EQUAL"  # m == n only: distinct indices give distinct polynomials
    INCOMPARABLE = "INCOMPARABLE"  # the difference changes sign over q >= 2

    def flipped(self) -> "Verdict":
        if self is Verdict.LESS:
            return Verdict.GREATER
        if self is Verdict.GREATER:
            return Verdict.LESS
        return self


@dataclass
class Certificate:
    """Finite evidence for a verdict about infinitely many q.

    threshold_c     largest absolute coefficient of the difference
    leading_sign    sign of the difference's top coefficient (settles all
                    q > threshold_c); 0 only for EQUAL, where the
                    difference is zero
    checked_q_max   largest q that was exhaustively evaluated; equals
                    max(threshold_c, 1) except when an incomparable verdict
                    needs the first asymptotic q as an explicit witness
    tie_witnesses   q values with exact equality of the two sides
    flip_witnesses  one q with positive and one with negative difference
                    (present exactly when the verdict is INCOMPARABLE)
    """

    threshold_c: int
    leading_sign: int
    checked_q_max: int
    tie_witnesses: list[int] = field(default_factory=list)
    flip_witnesses: list[int] = field(default_factory=list)


def difference_threshold(x: int, width: int, length: int, bound: int) -> int:
    """Largest absolute coefficient c of the difference D packed in x.

    x is D's value at B = 2^width, D has at most `length` coefficients,
    each of absolute value at most `bound`, and 4 * bound < B.  Returns
    0 for x = 0, else the least k >= 1 with every |D_i| <= k, found by
    doubling k up to `bound` (which passes; a failure there raises
    ArithmeticError) and bisecting.

    Test for k.  With ONES = sum of B^i over i < length, the two
    operands x + k*ONES and k*ONES - x are the digit strings D_i + k and
    k - D_i, and

        ((x + k*ONES) | (k*ONES - x)) & (ONES << (width - 1)) == 0

    holds iff |D_i| <= k for every i.  Every digit lies in
    [-(k + bound), k + bound] and k + bound <= 2 * bound < B/2.  If all
    |D_i| <= k, both strings have digits in [0, 2k], below B/2: they are
    the base-B digits of the operands and none sets its top bit
    (bit width-1).  Otherwise one string has a negative digit.  Take the
    lowest one, e < 0, at position i: below it every digit is
    nonnegative and below B, so nothing borrows from position i, and
    base-B digit i of the operand (floor semantics, which is what
    Python's two's-complement `&` reads for a negative operand too) is
    e + B, in (B/2, B): its top bit is set.  The search never tests a
    k above `bound`, so the premise k + bound < B/2 holds throughout.
    """
    if not x:
        return 0
    nbytes = width // 8
    ones = int.from_bytes((b"\x01" + bytes(nbytes - 1)) * length, "little")
    top = ones << (width - 1)

    lo, hi = 0, 1  # lo fails (or is 0), hi is the next candidate
    while True:
        shift = hi * ones
        if not ((x + shift) | (shift - x)) & top:
            break
        if hi >= bound:
            raise ArithmeticError(f"internal: a coefficient of the difference exceeds {bound}")
        lo, hi = hi, min(2 * hi, bound)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        shift = mid * ones
        if ((x + shift) | (shift - x)) & top:
            lo = mid
        else:
            hi = mid
    return hi


def compare(m: int, n: int, cache: CycloCache) -> tuple[Verdict, Certificate]:
    """Full comparison of indices m and n with certificate.

    Reads the threshold c and the leading sign of the difference D (value
    at n minus value at m) off X = P_n - P_m, evaluates D exactly at every
    q in [2, c], and settles all larger q by the leading-coefficient
    argument in the module docstring.  X, the length and the heights come
    from the cache's packed entries; X is read at PACK_WIDTH unless the
    two heights sum too high for it, and then both entries are packed
    afresh at the pair's width.  No coefficient tuple is built.
    """
    if m < 1 or n < 1:
        raise ValueError(f"indices must be positive integers, got ({m}, {n})")
    if m == n:
        return Verdict.EQUAL, Certificate(0, 0, 1)

    xm, lm, hm = cache.packed_entry(m)
    xn, ln, hn = cache.packed_entry(n)
    bound = hm + hn
    width = pair_width(bound)
    if width != PACK_WIDTH:
        xm = cache.packed_entry(m, width)[0]
        xn = cache.packed_entry(n, width)[0]
    x = xn - xm
    # distinct cyclotomic polynomials; the guard is against caller bugs
    if not x:
        raise ArithmeticError(f"internal: distinct indices {m}, {n} gave a zero difference")
    c = difference_threshold(x, width, max(lm, ln), bound)
    lead = 1 if x > 0 else -1
    ties: list[int] = []
    first_neg = first_pos = 0
    for q in range(2, c + 1):
        v = eval_cyclo(n, q, cache) - eval_cyclo(m, q, cache)
        if v == 0:
            ties.append(q)
        elif v < 0:
            if not first_neg:
                first_neg = q
        elif not first_pos:
            first_pos = q

    checked = max(c, 1)
    if lead > 0 and not first_neg:
        verdict = Verdict.LESS
        flips: list[int] = []
    elif lead < 0 and not first_pos:
        verdict = Verdict.GREATER
        flips = []
    else:
        verdict = Verdict.INCOMPARABLE
        # need one witness of each sign; when a sign only occurs
        # asymptotically, evaluate the first asymptotic q explicitly
        if not first_pos:
            first_pos = checked = c + 1
        if not first_neg:
            first_neg = checked = c + 1
        flips = [first_pos, first_neg]

    return verdict, Certificate(c, lead, checked, ties, flips)


# ---------------------------------------------------------------------------
# wire format: one flat record per comparison, JSON-encodable
# ---------------------------------------------------------------------------

_RECORD_FIELDS = (
    "verdict",
    "m",
    "n",
    "threshold_c",
    "leading_sign",
    "checked_q_max",
    "tie_witnesses",
    "flip_witnesses",
    "shortcut_tag",
)


def comparison_record(m: int, n: int, verdict: Verdict, cert: Certificate) -> dict:
    """Flat key-value record for one comparison.

    `shortcut_tag` is always None; the field stays so that records, and
    the certificate hashes taken over them, keep their bytes.
    """
    return {
        "verdict": verdict.value,
        "m": m,
        "n": n,
        "threshold_c": cert.threshold_c,
        "leading_sign": cert.leading_sign,
        "checked_q_max": cert.checked_q_max,
        "tie_witnesses": list(cert.tie_witnesses),
        "flip_witnesses": list(cert.flip_witnesses),
        "shortcut_tag": None,
    }


def record_to_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def parse_comparison_record(text: str) -> dict:
    """Inverse of record_to_json for comparison records; validates the shape."""
    rec = json.loads(text)
    missing = [f for f in _RECORD_FIELDS if f not in rec]
    if missing:
        raise ValueError(f"comparison record missing fields: {missing}")
    Verdict(rec["verdict"])
    return rec


def certificate_from_record(rec: dict) -> tuple[int, int, Verdict, Certificate]:
    """Rebuild (m, n, verdict, certificate) from a parsed record."""
    verdict = Verdict(rec["verdict"])
    cert = Certificate(
        rec["threshold_c"],
        rec["leading_sign"],
        rec["checked_q_max"],
        list(rec["tie_witnesses"]),
        list(rec["flip_witnesses"]),
    )
    return rec["m"], rec["n"], verdict, cert
