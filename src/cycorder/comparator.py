"""Decide how the values of two cyclotomic polynomials relate across every
integer q >= 2, producing a finite certificate.

Every route makes the claim finite in one way: it proves a bound `stop`
such that every q >= stop gives the difference Phi_n(q) - Phi_m(q) its
leading sign, and `_certify` decides the sign at each q in [2, stop).
The routes differ only in the leading sign, `stop` and the fast sign
test that `_certify` tries before exact evaluation:

  * indices of unequal totient, in `compare`: the totient gap orders the
    pair, smaller totient first.  It settles every q >= 3, and q = 2 too
    unless the totients differ by at most 2: stop is 3 then, else 2, and
    there is no fast test.  No coefficient is read.
  * indices of equal totient in a verification (`order.sort_class`):
    `ramanujan_compare`.  The low-order end of log Phi_n(q) has a closed
    form, Ramanujan's sums, which orders the class and gives stop = q*
    (q* <= 4 for every pair up to 20000), with `_sums_sign` as the fast
    test.  No coefficient is read, and no polynomial is built.
  * indices of equal totient in `compare`, the route of the `compare`
    command, `precedes` and `conjecture2`: stop = c + 1 for the threshold
    c of the difference of the two polynomials, read off their packed
    values, with `_window_sign` as the fast test.  Its certificates carry
    c, which the command's printed records and the benchmark's oracle
    check pin, so this route stays until they move.

The rest of this docstring is about the third route.  For indices m and
n of equal totient, let D be the polynomial for n minus the polynomial
for m.  When D is nonzero, write c for the largest absolute coefficient
of D and d for its degree.  For q >= c + 1,

    |D(q)| >= q^d - c*(q^(d-1) + ... + 1) > 0,

because q^d * (q - 1) >= c * q^d > c * (q^d - 1); equivalently, after
splitting D into its positive and negative parts A - B, the base-q digit
string of A(q) beats B(q) once q exceeds every digit.  So the sign of
D(q) equals the sign of D's leading coefficient for all q > c, so
stop = c + 1, and only the signs at q in [2, c] (none when c <= 1)
remain.  Each is read off a window of D's top coefficients, which
decides it whenever D(q) is far from zero (`compare` proves the rule).

D is never formed coefficient by coefficient.  The cache keeps each
compared entry's value at 2^w (w = 8) as one integer P, with its length
and its height H (largest absolute coefficient), all made from its
kernel's bytes (`CycloCache.packed_entry`); the two lengths are equal,
phi + 1.  Then X = P_n - P_m is D's value at B = 2^w, and every
|D_i| <= h = H_n + H_m.  While 4h < B:

  * the leading sign is the sign of X: below D's top nonzero coefficient
    the digits sum to at most h * (B^top - 1) / (B - 1) < B^top in
    absolute value;
  * c is the first k = 1, 2, ... that passes a test of a few
    big-integer operations on X (`difference_threshold`, which proves the
    test and gives its cost);
  * the last test's operand X + c*ONES has the base-B digits D_i + c,
    so D's top coefficients are bytes of one integer.

A pair whose heights sum to 64 or more (first possible at index 26565,
whose entry has height 59) packs both entries afresh from their kernels,
uncached, at the smallest multiple of 8 bits w with 4h < 2^w, and goes
through the same reading.

The certificate carries c, the leading sign and the finite evidence, not
D itself.  A reader who wants D's coefficients and its split rebuilds
them from the two indices, as `cyclo(n, cache) - cyclo(m, cache)` and
`.split_pos_neg()`; no comparison does.

Ties (equal values at some checked q) are compatible with the ordering,
which is defined through "<="; they are recorded in the certificate
rather than downgrading the verdict, so strictness can be audited
separately.
"""

from __future__ import annotations

import enum
import json
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import compress, count, repeat
from math import gcd, lcm
from operator import ne, sub

from .arith import factorize
from .cyclotomic import PACK_WIDTH, CycloCache, eval_cyclo, pair_width
from .cyclotomic import cyclo  # noqa: F401  bench/spans.py wraps comparator.cyclo

# window lengths a fast sign test tries in turn before exact evaluation: D's
# top coefficients in `_window_sign`, terms past j0 in `_sums_sign`
_WINDOWS = (8, 16, 32, 64)
_SUMS_BLOCK = 16  # terms a Ramanujan-sum sequence first grows to


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
                    (settles all q > threshold_c); 0 on a totient-gap or
                    Ramanujan certificate, which reads no coefficient
    leading_sign    sign of the difference at every q >= stop, the
                    route's proved bound (`_certify`): that of its top
                    coefficient, or on a totient-gap certificate of the
                    side of higher totient (+1 when it is n); 0 only for
                    EQUAL, where the difference is zero
    checked_q_max   stop - 1, or stop when an INCOMPARABLE verdict names
                    it as a witness (`_certify` proves the rule); 1 for
                    EQUAL
    tie_witnesses   q values with exact equality of the two sides
    flip_witnesses  one q with positive and one with negative difference
                    (present exactly when the verdict is INCOMPARABLE)
    shortcut_tag    "totient-gap" when the pair has unequal totients and
                    the gap decided it (`compare` proves the rule),
                    "ramanujan" when Ramanujan's sums decided a pair of
                    equal totient (`ramanujan_compare`), else None
    """

    threshold_c: int
    leading_sign: int
    checked_q_max: int
    tie_witnesses: list[int] = field(default_factory=list)
    flip_witnesses: list[int] = field(default_factory=list)
    shortcut_tag: str | None = None


def difference_threshold(x: int, width: int, length: int, bound: int) -> tuple[int, int]:
    """Largest absolute coefficient c of the difference D packed in x,
    and x + c*ONES.

    x is D's value at B = 2^width, D is the difference of two
    polynomials of `length` coefficients each, every coefficient of D
    has absolute value at most `bound`, and 4 * bound < B.  c is 0
    for x = 0, else the least k >= 1 with every |D_i| <= k, found by
    testing k = 1, 2, ... in turn; a failure at k = bound raises
    ArithmeticError.

    Test for k.  With ONES = sum of B^i over i < length, the two
    operands x + k*ONES and k*ONES - x are the digit strings D_i + k and
    k - D_i, and

        ((x + k*ONES) | (k*ONES - x)) & (ONES << (width - 1)) == 0

    holds iff |D_i| <= k for every i.  The loop tests no k above
    `bound`, so every digit lies in [-(k + bound), k + bound] with
    k + bound <= 2 * bound < B/2.  If all |D_i| <= k, both strings have
    digits in [0, 2k], below B/2: they are the base-B digits of the
    operands and none sets its top bit (bit width-1).  Otherwise one
    string has a negative digit.  Take the lowest one, e < 0, at
    position i: below it every digit is nonnegative and below B, so
    nothing borrows from position i, and base-B digit i of the operand
    (floor semantics, which is what Python's two's-complement `&` reads
    for a negative operand too) is e + B, in (B/2, B): its top bit is
    set.  So the passing test's first operand, x + c*ONES, which is
    returned, has exactly the base-B digits D_i + c, each in [0, 2c],
    in its low `length` digits and nothing above them.

    Cost.  The loop makes c tests, each a few big-integer operations on
    `length` digits.  Handing back the last operand lets `compare` read
    D's top coefficients without another pass over all of them.
    """
    if not x:
        return 0, 0
    nbytes = width // 8
    ones = int.from_bytes((b"\x01" + bytes(nbytes - 1)) * length, "little")
    top = ones << (width - 1)
    k, shift = 1, ones
    while ((x + shift) | (shift - x)) & top:
        if k >= bound:
            raise ArithmeticError(f"internal: a coefficient of the difference exceeds {bound}")
        k += 1
        shift += ones
    return k, x + shift


def _certify(
    m: int,
    n: int,
    lead: int,
    stop: int,
    cache: CycloCache,
    fast: Callable[..., int] | None = None,
    args: tuple = (),
) -> tuple[Verdict, int, list[int], list[int]]:
    """Verdict, checked_q_max, ties and flips of indices m and n, given
    that every q >= stop gives Phi_n(q) - Phi_m(q) the sign `lead` (each
    route proves its own stop >= 2).

    The sign at each q in [2, stop) is fast(*args, q) where that is
    nonzero, each route proving its fast test exact wherever it decides;
    else, and at every q when fast is None, it is the sign of
    eval_cyclo(n, q) - eval_cyclo(m, q), n's value first.  So every tie
    is found by exact evaluation.  With those signs, and `lead` at every
    q >= stop, the pair is LESS when no q gives a negative sign, GREATER
    when none gives a positive one, and otherwise INCOMPARABLE, with the
    first positive q and then the first negative q as its flips.  A sign
    against the lead occurs only below stop; the lead's sign occurs at
    stop if not earlier, and then stop is its witness.  So checked_q_max,
    the largest q whose sign the certificate names, is stop - 1, or stop
    for an INCOMPARABLE verdict whose witness of the lead's sign is stop.
    """
    ties: list[int] = []
    first_neg = first_pos = 0
    for q in range(2, stop):
        sign = fast(*args, q) if fast else 0
        if not sign:
            v = eval_cyclo(n, q, cache) - eval_cyclo(m, q, cache)
            sign = (v > 0) - (v < 0)
        if not sign:
            ties.append(q)
        elif sign < 0:
            if not first_neg:
                first_neg = q
        elif not first_pos:
            first_pos = q

    checked, flips = stop - 1, []
    if lead > 0 and not first_neg:
        verdict = Verdict.LESS
    elif lead < 0 and not first_pos:
        verdict = Verdict.GREATER
    else:
        verdict = Verdict.INCOMPARABLE
        if not first_pos:
            first_pos = checked = stop
        if not first_neg:
            first_neg = checked = stop
        flips = [first_pos, first_neg]
    return verdict, checked, ties, flips


def _window_sign(top: bytes | list[int], c: int, q: int) -> int:
    """Sign of D(q) read off D's top coefficients, or 0 when no window
    decides it.  top holds D_i + c for i = t, t - 1, ..., top first;
    the windows are its first _WINDOWS entries, up to all of it
    (`compare` proves the rule)."""
    total, lo = 0, 0
    for hi in _WINDOWS:
        for digit in top[lo:hi]:
            total = total * q + digit - c
        if (q - 1) * abs(total) >= c:
            return 1 if total > 0 else -1
        if hi >= len(top):
            break
        lo = hi
    return 0


def compare(m: int, n: int, cache: CycloCache) -> tuple[Verdict, Certificate]:
    """Full comparison of indices m and n with certificate.

    The lengths of the cache's packed entries, phi + 1, tell whether the
    totients differ.  If they do, the totient gap decides the pair (proof
    below).  If not, the threshold c and the leading sign of the
    difference D (value at n minus value at m) are read off
    X = P_n - P_m, all q > c are settled by the leading-coefficient
    argument in the module docstring, and `_certify` decides the sign of
    D(q) at every q in [2, c].  X and the heights come from the
    packed entries; X is read at PACK_WIDTH unless the two heights sum
    too high for it, and then both entries are packed afresh at the
    pair's width w.  No coefficient tuple is built.

    The totient gap.  For k >= 1 and q >= 2, Phi_k(q) is the product of
    (q^d - 1)^mu(k/d) over d | k.  Write q^d - 1 = q^d * (1 - q^(-d)),
    use that d * mu(k/d) sums to phi(k) over d | k, and expand
    log(1 - q^(-d)) = -sum over i >= 1 of q^(-di)/i; collecting the
    terms with di = j gives

        log Phi_k(q) = phi(k) * log q - sum over j >= 1 of c_k(j) * q^(-j) / j,

    where c_k(j), the sum of d * mu(k/d) over d | gcd(k, j), is
    Ramanujan's sum (S. Ramanujan, 1918).  With g = gcd(k, j), Hoelder's
    closed form (1936) is c_k(j) = mu(k/g) * phi(k) / phi(k/g), and
    phi(k) <= g * phi(k/g), since the primes of k/g are among those of
    k.  So |c_k(j)| <= g <= j, and

        |log Phi_k(q) - phi(k) * log q| <= sum over j >= 1 of q^(-j) = 1/(q - 1).

    Let a be the index of smaller totient, b the other, and
    Delta = phi(b) - phi(a) >= 1.  Then

        log Phi_b(q) - log Phi_a(q) >= Delta * log q - 2/(q - 1).

    At q >= 3 this is positive for every Delta >= 1, because
    log 3 > 1 >= 2/(q - 1).  At q = 2 it is positive when Delta >= 3,
    because 2^3 = 8 > e^2.  So a precedes b, and stop is 3 when
    Delta <= 2, else 2: only q = 2 with Delta <= 2 is left, which is
    evaluated exactly and may tie (2 and 6 both give 3).  The
    certificate has shortcut_tag "totient-gap", threshold_c 0 (no
    coefficient is read) and the sign of the side of higher totient as
    leading_sign.  The theorem that every pair is comparable is not
    assumed: an exact sign at q = 2 against the gap makes the verdict
    INCOMPARABLE, with stop = 3 as the other witness, whose value is
    evaluated too so that both witnesses are values at hand.

    The sign at q from D's top coefficients.  Let t be the top nonzero
    index of D, take a window of L coefficients, s = t - L + 1 (or 0
    when L > t), and T = sum over i >= s of D_i * q^(i - s).  Then
    D(q) = q^s * T + R with R = sum over i < s of D_i * q^i, and every
    |D_i| <= c gives

        |R| <= c * (q^s - 1) / (q - 1) < c * q^s / (q - 1).

    So if (q - 1) * |T| >= c, then q^s * |T| > |R|: D(q) is nonzero and
    has the sign of T.  Windows of 8, 16, 32 and 64 coefficients
    (`_WINDOWS`) are tried in turn (`_window_sign`) until one decides; a
    q that none decides, including every q where D(q) = 0, is evaluated
    exactly.

    Reading the window.  `difference_threshold` returns Y = X + c*ONES,
    whose base-2^w digits are D_i + c: the top coefficients are bytes of
    Y (w/8-byte digits on a tall pair), less c.  Their position t is
    |X|.bit_length() // w.  With h = H_n + H_m and 4h < 2^w = B, so
    h / (B - 1) <= 1/4, and |D_t| >= 1:

        |X| >= B^t - h * (B^t - 1) / (B - 1) > (3/4) * B^t > 2^(w*t - 1),
        |X| <= h * (B^(t + 1) - 1) / (B - 1) < B^(t + 1) / 4,

    so |X| has between w*t and w*(t + 1) - 2 bits.
    """
    if m < 1 or n < 1:
        raise ValueError(f"indices must be positive integers, got ({m}, {n})")
    if m == n:
        return Verdict.EQUAL, Certificate(0, 0, 1)

    xm, lm, hm = cache.packed_entry(m)
    xn, ln, hn = cache.packed_entry(n)
    if lm != ln:
        lead = 1 if ln > lm else -1
        verdict, checked, ties, flips = _certify(m, n, lead, 3 if abs(ln - lm) <= 2 else 2, cache)
        if flips:  # INCOMPARABLE: the witness stop = 3, where the gap decides, is evaluated too
            v = eval_cyclo(n, 3, cache) - eval_cyclo(m, 3, cache)
            if v * lead <= 0:
                raise ArithmeticError(f"internal: the totient gap of {m}, {n} fails at q=3")
        return verdict, Certificate(0, lead, checked, ties, flips, "totient-gap")
    bound = hm + hn
    width = pair_width(bound)
    if width != PACK_WIDTH:
        xm = cache.packed_entry(m, width)[0]
        xn = cache.packed_entry(n, width)[0]
    x = xn - xm
    # distinct cyclotomic polynomials; the guard is against caller bugs
    if not x:
        raise ArithmeticError(f"internal: distinct indices {m}, {n} gave a zero difference")
    c, y = difference_threshold(x, width, ln, bound)
    lead = 1 if x > 0 else -1
    top = b""  # no q in [2, c] to read when c <= 1
    if c > 1:
        nbytes = width // 8
        t = x.bit_length() // width
        s = max(0, t - _WINDOWS[-1] + 1)
        raw = y.to_bytes(ln * nbytes, "little")[s * nbytes : (t + 1) * nbytes]
        top = raw[::-1] if nbytes == 1 else [
            int.from_bytes(raw[i - nbytes : i], "little") for i in range(len(raw), 0, -nbytes)
        ]
    verdict, checked, ties, flips = _certify(m, n, lead, c + 1, cache, _window_sign, (top, c))
    return verdict, Certificate(c, lead, checked, ties, flips)


# ---------------------------------------------------------------------------
# pairs of equal totient from Ramanujan's sums, for a verification
# ---------------------------------------------------------------------------


class RamanujanSums:
    """The Ramanujan sums of one index n, negated, as a lazily extended
    sort key: `terms[j - 1]` is -c_n(j).

    By Hoelder's closed form (proved with the identity in `compare`),
    c_n(j) = mu(n/g) * phi(n) / phi(n/g) with g = gcd(n, j), which is 0
    unless n/g is squarefree.  `_table` maps those 2^omega(n) values of g,
    n/d for the squarefree d | n, to -c_n(j): adding a prime p to d flips
    mu(d) and multiplies phi(d) by p - 1.  `extend` adds terms with
    C-level `gcd` and dict lookups.  `phi` is phi(n).

    For two indices of equal totient, a < b says that a.n precedes b.n
    asymptotically: it is the lexicographic order of the terms, compared
    up to their first difference (`ramanujan_compare` proves it).  Two
    distinct indices m and n differ within lcm(m, n) terms, since c_n(j)
    has period n in j.  At j = lcm(m, n) the sums are phi(m) and phi(n);
    if those are equal and c_m(j) = c_n(j) for every j, then
    log Phi_m(q) = log Phi_n(q) at every q >= 2 by the identity, so the
    two polynomials agree at infinitely many points and m = n.
    `first_difference` raises past that bound instead of searching on.
    """

    __slots__ = ("n", "phi", "terms", "_table")

    def __init__(self, n: int):
        primes = [p for p, _ in factorize(n)]
        phi = n
        for p in primes:
            phi -= phi // p
        table = {n: -phi}
        for p in primes:
            table.update([(g // p, -c // (p - 1)) for g, c in table.items()])
        self.n, self.phi, self.terms, self._table = n, phi, [], table

    def extend(self, length: int) -> None:
        """Make `terms` hold at least its first `length` entries."""
        have = len(self.terms)
        if have < length:
            gcds = map(gcd, repeat(self.n), range(have + 1, length + 1))
            self.terms += map(self._table.get, gcds, repeat(0))

    def first_difference(self, other: "RamanujanSums") -> int:
        """The least j with c_n(j) != c_other(j); both sequences are
        extended past it, doubling their length until they differ."""
        if self.n == other.n:
            raise ValueError(f"index {self.n} has no first difference with itself")
        size = max(len(self.terms), len(other.terms), _SUMS_BLOCK)
        while True:
            self.extend(size)
            other.extend(size)
            j = next(compress(count(1), map(ne, self.terms, other.terms)), 0)
            if j:
                return j
            if size >= lcm(self.n, other.n):  # a full common period: they never differ
                raise ArithmeticError(f"internal: {self.n} and {other.n} have equal sums")
            size *= 2

    def __lt__(self, other: "RamanujanSums") -> bool:
        a, b = self.terms, other.terms
        if len(a) != len(b) or a == b:
            j = self.first_difference(other)
            return a[j - 1] < b[j - 1]
        return a < b


def _sums_sign(a: RamanujanSums, b: RamanujanSums, j0: int, q: int) -> int:
    """Sign of the sum over j >= j0 of delta_j * q^(-j) / j, with
    delta_j = c_a(j) - c_b(j), read off the windows J = j0 + w for w in
    _WINDOWS, or 0 when none decides it (`ramanujan_compare` proves the
    rule).  Each window extends both sequences only as far as it reads."""
    for width in _WINDOWS:
        top = j0 + width
        a.extend(top)
        b.extend(top)
        lam = lcm(*range(j0, top + 1))
        total = 0
        for j, d in enumerate(map(sub, b.terms[j0 - 1 : top], a.terms[j0 - 1 : top]), j0):
            total = total * q + d * (lam // j)
        if (q - 1) * abs(total) > 2 * lam:
            return 1 if total > 0 else -1
    return 0


def ramanujan_compare(
    a: RamanujanSums, b: RamanujanSums, cache: CycloCache
) -> tuple[Verdict, Certificate]:
    """`compare` for two distinct indices m = a.n and n = b.n of equal
    totient, decided from their Ramanujan sums: no coefficient is read and
    no polynomial is built.  The certificate has shortcut_tag "ramanujan",
    threshold_c 0 and the leading sign of Phi_n - Phi_m; stop is q*
    (below).

    Sign at q.  By the identity proved in `compare`, with phi(m) = phi(n),

        log Phi_n(q) - log Phi_m(q) = sum over j >= 1 of delta_j * q^(-j) / j,
        delta_j = c_m(j) - c_n(j),

    and |delta_j| <= |c_m(j)| + |c_n(j)| <= 2j.  The sequences differ
    (`RamanujanSums`); let j0 be the first j with delta_j != 0.  For
    J >= j0 the terms past J sum to at most

        sum over j > J of 2 * q^(-j) = 2 * q^(-J) / (q - 1)

    in absolute value.  Take Lambda a common multiple of j0, ..., J and
    A = sum over j0 <= j <= J of delta_j * (Lambda / j) * q^(J - j), so
    that the terms up to J sum to A / (Lambda * q^J).  If
    (q - 1) * |A| > 2 * Lambda, the whole sum has the sign of A, and so
    has Phi_n(q) - Phi_m(q), log being increasing.  Scaling Lambda scales
    A alike, so every common multiple gives the same test; lcm(j0..J) is
    the smallest.

    Order and threshold.  With J = j0, A = delta_j0 * Lambda / j0: every q
    with (q - 1) * |delta_j0| > 2 * j0 takes the sign of delta_j0, the
    leading sign, and m precedes n asymptotically exactly when
    delta_j0 > 0, that is -c_m(j0) < -c_n(j0): the lexicographic order of
    `RamanujanSums.terms`.  The least such q is
    q* = floor(2 * j0 / |delta_j0|) + 2.  `_certify` decides each q in
    [2, q*): `_sums_sign` tries J = j0 + 8, 16, 32 and 64 (`_WINDOWS`),
    and a q none decides, which includes every tie, is evaluated exactly.
    """
    m, n = a.n, b.n
    if a.phi != b.phi:
        raise ValueError(f"indices {m} and {n} have unequal totients")
    j0 = a.first_difference(b)
    lead_delta = b.terms[j0 - 1] - a.terms[j0 - 1]  # c_m(j0) - c_n(j0): the terms are negated
    lead = 1 if lead_delta > 0 else -1
    stop = 2 * j0 // abs(lead_delta) + 2  # q*
    verdict, checked, ties, flips = _certify(m, n, lead, stop, cache, _sums_sign, (a, b, j0))
    return verdict, Certificate(0, lead, checked, ties, flips, "ramanujan")


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

    `shortcut_tag` names the route (`Certificate`): "totient-gap" on a
    pair of unequal totient, "ramanujan" on each adjacent pair of a
    verification, None on a pair of equal totient that `compare` decided.
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
        "shortcut_tag": cert.shortcut_tag,
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
        rec["shortcut_tag"],
    )
    return rec["m"], rec["n"], verdict, cert
