"""Decide how the values of two cyclotomic polynomials relate across every
integer q >= 2, producing a finite certificate.

Every route makes the claim finite in one way: it proves a bound `stop`
such that every q >= stop gives the difference Phi_n(q) - Phi_m(q) its
leading sign, and `_certify` decides the sign at each q in [2, stop).
The routes differ only in the leading sign, `stop` and the fast sign
test that `_certify` tries before exact evaluation.  A fast test reads
one window of _WINDOW = 8 terms; its sign is exact wherever it is
nonzero, and a q it leaves at 0 is evaluated exactly:

  * indices of unequal totient, in `compare`: the totient gap orders the
    pair, smaller totient first.  It settles every q >= 3, and q = 2 too
    unless the totients differ by at most 2: stop is 3 then, else 2, and
    there is no fast test.  No coefficient is read.
  * indices of equal totient in a verification (`order.sort_class`):
    `ramanujan_compare`, which `order.sort_class` applies to a whole
    class at once: one sort on its members' rows of sums, with the sums'
    first difference breaking ties of rows.  The low-order end of
    log Phi_n(q) has a closed form, Ramanujan's sums, which orders the
    class and gives stop = q* (q* <= 4 for every adjacent pair of a
    verification up to 100000), with the sums' window
    (`_window_sum_sign`) as the fast test.  No coefficient is read, and
    no polynomial is built.  An outcome whose window reads the lead's
    sign at every q < q* is a function of (lead, q*) alone, so it is
    built once per process for each of the two (`_agreeing_outcome`),
    line template included, and the run's memo (`SumsTable.outcomes`)
    hands it to each later pair with the same window without reading a
    sign.
  * indices of equal totient in `compare`, the route of the `compare`
    command, `precedes` and `conjecture2`: stop = c + 1 for the threshold
    c of the difference of the two polynomials, read off their packed
    values, with the difference's top coefficients (`_window_sign`) as
    the fast test.  Its certificates carry c, which the command's printed
    records and the benchmark's oracle check pin, so this route stays
    until they move.

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
import functools
import json
from array import array
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import compress, count, repeat
from json.encoder import encode_basestring_ascii
from math import gcd, lcm
from operator import eq, mul, ne, sub

from .arith import smallest_prime_factors
from .cyclotomic import PACK_WIDTH, CycloCache, eval_cyclo, pair_width
from .cyclotomic import cyclo  # noqa: F401  bench/spans.py wraps comparator.cyclo

# the one window a fast sign test reads before exact evaluation: D's top
# coefficients in `_window_sign`, terms past j0 in `_window_sum_sign`
_WINDOW = 8
_SUMS_BLOCK = 32  # terms of each index's row in a `SumsTable`; a class sort's first key


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


# the members bound once: each read through the class costs 120-150 ns on
# Python 3.11, whose enum metaclass routes it through __getattr__
_LESS, _GREATER, _INCOMPARABLE = Verdict.LESS, Verdict.GREATER, Verdict.INCOMPARABLE


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
    cache: CycloCache | None,
    fast: Callable[[int], int] | None = None,
) -> tuple[Verdict, int, list[int], list[int]]:
    """Verdict, checked_q_max, ties and flips of indices m and n, given
    that every q >= stop gives Phi_n(q) - Phi_m(q) the sign `lead` (each
    route proves its own stop >= 2).

    The sign at each q in [2, stop) is fast(q) where that is nonzero,
    each route proving its fast test exact wherever it decides;
    else, and at every q when fast is None, it is the sign of
    eval_cyclo(n, q) - eval_cyclo(m, q), n's value first, evaluated into
    `cache` or, when that is None, into a `CycloCache` made at the first
    such q.  So every tie is found by exact evaluation.  With those
    signs, and `lead` at every q >= stop, the pair is LESS when no q
    gives a negative sign, GREATER when none gives a positive one, and
    otherwise INCOMPARABLE, with the first positive q and then the first
    negative q as its flips.  A sign
    against the lead occurs only below stop; the lead's sign occurs at
    stop if not earlier, and then stop is its witness.  So checked_q_max,
    the largest q whose sign the certificate names, is stop - 1, or stop
    for an INCOMPARABLE verdict whose witness of the lead's sign is stop.
    """
    ties: list[int] = []
    first_neg = first_pos = 0
    for q in range(2, stop):
        sign = fast(q) if fast else 0
        if not sign:
            if cache is None:
                cache = CycloCache()
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
        verdict = _LESS
    elif lead < 0 and not first_pos:
        verdict = _GREATER
    else:
        verdict = _INCOMPARABLE
        if not first_pos:
            first_pos = checked = stop
        if not first_neg:
            first_neg = checked = stop
        flips = [first_pos, first_neg]
    return verdict, checked, ties, flips


def _window_sign(top: bytes | list[int], c: int, q: int) -> int:
    """Sign of D(q) read off D's top coefficients, or 0 when they do not
    decide it.  top holds D_i + c for i = t, t - 1, ..., s, top first,
    the window of at most _WINDOW entries (`compare` proves the rule)."""
    total = 0
    for digit in top:
        total = total * q + digit - c
    if (q - 1) * abs(total) >= c:
        return 1 if total > 0 else -1
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
    has the sign of T.  The window is L = _WINDOW = 8 coefficients
    (`_window_sign`, read once per q); a q it does not decide, including
    every q where D(q) = 0, is evaluated exactly.

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
        s = max(0, t - _WINDOW + 1)
        raw = y.to_bytes(ln * nbytes, "little")[s * nbytes : (t + 1) * nbytes]
        top = raw[::-1] if nbytes == 1 else [
            int.from_bytes(raw[i - nbytes : i], "little") for i in range(len(raw), 0, -nbytes)
        ]
    fast = functools.partial(_window_sign, top, c)
    verdict, checked, ties, flips = _certify(m, n, lead, c + 1, cache, fast)
    return verdict, Certificate(c, lead, checked, ties, flips)


# ---------------------------------------------------------------------------
# pairs of equal totient from Ramanujan's sums, for a verification
# ---------------------------------------------------------------------------


_MU_FLIP = bytes.maketrans(b"\x00\x02", b"\x02\x00")  # 1 - mu to 1 - (-mu)
_PRIME_MU = bytes.maketrans(b"\x01", b"\x02")  # a prime flag to 1 - mu(p) = 2
_LANE_BIAS = 64  # b: a `SumsTable` lane holds b - c_n(j), in [32, 96]


class SumsTable:
    """The per-run table of a verification of {1..limit}: `spf`, a table
    of `arith.smallest_prime_factors`, and `lanes`, the first
    L = _SUMS_BLOCK Ramanujan sums of every index n <= limit as bytes,
    the lane b - c_n(j) at lanes[n * L + j - 1] with the bias
    b = _LANE_BIAS = 64 (row 0 reads b throughout, the term 0).  An
    index's row of L bytes is its `RamanujanSums` start and its sort key
    (`order.sort_class`).

    The terms are sieved from Ramanujan's definition, c_n(j) the sum of
    d * mu(n/d) over d | gcd(n, j) (S. Ramanujan, 1918), for all n at
    once, with C-level byte and integer operations only.  mu is sieved
    as the bytes 1 - mu(n) from the primes of `spf` (its entries with
    spf[p] == p): each flips mu at its multiples and zeroes it at the
    multiples of its square.  A prime p > limit / 2 has no multiple but
    itself in range, and no smaller prime divides it, so all of those
    are set to 1 - mu(p) = 2 in one step.  With ONES the integer whose
    `size` little-endian bytes are all 1, for each d <= L a row of
    `size` bytes holds b - d * mu(n/d) at every multiple n of d and b
    elsewhere, each in [b - L, b + L], so

        T_d = row as a little-endian integer - b * ONES
            = sum over the multiples n of d of -d * mu(n/d) * 256^n.

    Then for j <= L

        b * ONES + sum over d | j of T_d = sum over n of (b - c_n(j)) * 256^n,

    and since |c_n(j)| <= gcd(n, j) <= L (`compare` proves the first
    bound), every coefficient lies in [b - L, b + L] = [32, 96]: the
    sum's bytes are the lanes b - c_n(j).  The sums are exact integer
    arithmetic, so no bound on a partial one is needed.  The lanes are
    summed one j at a time, each written into `lanes` at once, and T_d
    is kept only while a lane still to come has d as a divisor, so
    besides the lane being summed at most L / 2 row-sized integers are
    held.

    `outcomes` is the run's memo of adjacent-pair outcomes, keyed by its
    window (`ramanujan_compare`, `order.sort_class`); it starts empty
    with each table, so it lives and dies with one run.
    """

    __slots__ = ("limit", "spf", "lanes", "outcomes")

    def __init__(self, limit: int):
        size, half = limit + 1, max(2, limit // 2 + 1)
        spf = smallest_prime_factors(limit)
        mu = bytearray(size)  # byte n is 1 - mu(n), from mu = 1
        # the primes from half on, whose only multiple in range is themselves
        mu[half:] = bytes(map(eq, spf[half:], range(half, size))).translate(_PRIME_MU)
        for p in compress(range(2, half), map(eq, spf[2:half], range(2, half))):
            mu[p::p] = mu[p::p].translate(_MU_FLIP)
            mu[p * p :: p * p] = b"\x01" * len(range(p * p, size, p * p))
        bias, ones = _LANE_BIAS, int.from_bytes(b"\x01" * size, "little")
        lanes = bytearray(_SUMS_BLOCK * size)
        held: dict[int, int] = {}  # T_d for the d whose multiples have lanes still to come
        for j in range(1, _SUMS_BLOCK + 1):
            row = bytearray([bias]) * size
            # 1 - mu(k) = 0, 1 or 2 at byte k of mu becomes b - j * mu(k) at n = j * k
            term = bytes.maketrans(b"\x00\x01\x02", bytes((bias - j, bias, bias + j)))
            row[j::j] = mu[1 : limit // j + 1].translate(term)
            row_sum = int.from_bytes(row, "little")  # b * ONES + T_j
            lane = row_sum + sum(t_d for d, t_d in held.items() if j % d == 0)
            lanes[j - 1 :: _SUMS_BLOCK] = lane.to_bytes(size, "little")
            for d in [d for d in held if j % d == 0 and j + d > _SUMS_BLOCK]:
                del held[d]  # j was its last multiple up to L
            if 2 * j <= _SUMS_BLOCK:
                held[j] = row_sum - bias * ones
        self.limit, self.spf, self.lanes = limit, spf, bytes(lanes)
        self.outcomes: dict[tuple[int, int], tuple[Verdict, Certificate, str]] = {}


def _primes_of(n: int, spf: array) -> list[int]:
    """The distinct primes of n, ascending, read off a smallest-prime-factor
    table covering n."""
    primes = []
    while n > 1:
        p = spf[n]
        primes.append(p)
        while n % p == 0:
            n //= p
    return primes


def _hoelder_table(n: int, phi: int, primes: list[int]) -> dict[int, int]:
    """{g: -c_n(j) for gcd(n, j) = g} over the g with n/g squarefree, by
    Hoelder's closed form (`RamanujanSums`); every other g gives 0.
    `primes` are n's distinct primes; `phi`, which callers pass in, must
    be phi(n) as those primes give it, or ValueError is raised."""
    check = n
    for p in primes:
        check -= check // p
    if check != phi:
        raise ValueError(f"phi({n}) is {check}, not {phi}")
    table = {n: -phi}
    for p in primes:
        table.update([(g // p, -c // (p - 1)) for g, c in table.items()])
    return table


class RamanujanSums:
    """The Ramanujan sums of one index n, negated, as a lazily extended
    list: `terms[j - 1]` is -c_n(j).

    `terms` starts as n's row of a `SumsTable` covering n, its first
    _SUMS_BLOCK terms, sieved from Ramanujan's definition, each lane
    less the bias.  `extend` adds the terms past them by Hoelder's
    closed form (proved with the identity in `compare`),
    c_n(j) = mu(n/g) * phi(n) / phi(n/g) with g = gcd(n, j), which is 0
    unless n/g is squarefree.  `_table` maps those 2^omega(n) values of
    g, n/d for the squarefree d | n, to -c_n(j) (`_hoelder_table`):
    adding a prime p to d flips mu(d) and multiplies phi(d) by p - 1.
    It is built by the first `extend` past the row, so a member no
    comparison reads past it builds none; then terms come from C-level
    `gcd` and dict lookups.  `phi` is phi(n), which the caller knows
    (`order.sort_class` passes its class's totient), so n is factored only
    when the table is built: its primes are read off the table's `spf`
    then, and phi(n) is formed again from them and checked against `phi`.

    For two indices of equal totient, the lexicographic order of their
    terms is their asymptotic order (`ramanujan_compare` proves it), and
    `first_difference` finds where two of them part.  Two distinct
    indices m and n differ within lcm(m, n) terms, since c_n(j) has
    period n in j.  At j = lcm(m, n) the sums are phi(m) and phi(n); if
    those are equal and c_m(j) = c_n(j) for every j, then
    log Phi_m(q) = log Phi_n(q) at every q >= 2 by the identity, so the
    two polynomials agree at infinitely many points and m = n.
    `first_difference` raises past that bound instead of searching on.
    """

    __slots__ = ("n", "phi", "terms", "_spf", "_table")

    def __init__(self, n: int, table: SumsTable, phi: int):
        start = n * _SUMS_BLOCK
        row = table.lanes[start : start + _SUMS_BLOCK]
        self.n, self.phi, self.terms = n, phi, list(map(sub, row, repeat(_LANE_BIAS)))
        self._spf, self._table = table.spf, None

    def extend(self, length: int) -> None:
        """Make `terms` hold at least its first `length` entries."""
        have = len(self.terms)
        if have < length:
            if self._table is None:
                self._table = _hoelder_table(self.n, self.phi, _primes_of(self.n, self._spf))
            gcds = map(gcd, repeat(self.n), range(have + 1, length + 1))
            self.terms += map(self._table.get, gcds, repeat(0))

    def first_difference(self, other: "RamanujanSums") -> int:
        """The least j with c_n(j) != c_other(j).  The terms both sides
        already hold are scanned first; only while those agree are both
        extended, to twice the shorter length, and scanned again."""
        if self.n == other.n:
            raise ValueError(f"index {self.n} has no first difference with itself")
        size = min(len(self.terms), len(other.terms))
        while True:
            j = next(compress(count(1), map(ne, self.terms, other.terms)), 0)
            if j:
                return j
            if size >= lcm(self.n, other.n):  # a full common period: they never differ
                raise ArithmeticError(f"internal: {self.n} and {other.n} have equal sums")
            size *= 2
            self.extend(size)
            other.extend(size)


@functools.cache
def _window_weights(j0: int, q: int) -> tuple[tuple[int, ...], int]:
    """The weights (Lambda / j) * q^(J - j) for j = j0, ..., J and the
    bound 2 * Lambda, with J = j0 + _WINDOW and Lambda = lcm(j0..J),
    formed once per process for each j0 and q (`ramanujan_compare`)."""
    top = j0 + _WINDOW
    lam = lcm(*range(j0, top + 1))
    return tuple(lam // j * q ** (top - j) for j in range(j0, top + 1)), 2 * lam


def _window_sum_sign(deltas, j0: int, q: int) -> int:
    """Sign of the sum over j >= j0 of delta_j * q^(-j) / j read off the
    window of `deltas`, delta_j0 up to delta_(j0 + _WINDOW), or 0 when the
    window does not decide it (`ramanujan_compare` proves the rule): one
    C-level dot product of the deltas with the window's weights
    (`_window_weights`)."""
    weights, bound = _window_weights(j0, q)
    total = sum(map(mul, deltas, weights))
    if (q - 1) * abs(total) > bound:
        return 1 if total > 0 else -1
    return 0


def ramanujan_compare(
    a: RamanujanSums,
    b: RamanujanSums,
    outcomes: dict[tuple[int, ...], tuple[Verdict, Certificate, str]],
) -> tuple[Verdict, Certificate, str]:
    """`compare` for two distinct indices m = a.n and n = b.n of equal
    totient, decided from their Ramanujan sums: no coefficient is read and
    no polynomial is built.  Returns the verdict, the certificate and the
    template of its line, `comparison_line(m, n, verdict, cert)` ==
    template % (m, n).  The certificate has shortcut_tag "ramanujan",
    threshold_c 0 and the leading sign of Phi_n - Phi_m; stop is q*
    (below).  `outcomes` is a memo of outcomes by window (below),
    read and filled here; a verification passes its run's
    (`SumsTable.outcomes`), and a fresh dict gives the unmemoised outcome.
    An exact fallback evaluates into a `CycloCache` of its own, made at
    the pair's first exact evaluation and dropped with the pair.

    Sign at q.  By the identity proved in `compare`, with phi(m) = phi(n),

        log Phi_n(q) - log Phi_m(q) = sum over j >= 1 of delta_j * q^(-j) / j,
        delta_j = c_m(j) - c_n(j),

    and |delta_j| <= |c_m(j)| + |c_n(j)| <= 2j.  The sequences differ
    (`RamanujanSums`); let j0 be the first j with delta_j != 0.  For
    J >= j0 the terms past J sum to at most

        sum over j > J of 2 * q^(-j) = 2 * q^(-J) / (q - 1)

    in absolute value.  Take Lambda a common multiple of j0, ..., J, the
    integer weights w_j = (Lambda / j) * q^(J - j) and the dot product

        A = sum over j0 <= j <= J of delta_j * w_j,

    so that the terms up to J sum to A / (Lambda * q^J).  If
    (q - 1) * |A| > 2 * Lambda, the whole sum has the sign of A, and so
    has Phi_n(q) - Phi_m(q), log being increasing.  Scaling Lambda scales
    A and the bound alike, so every common multiple gives the same test;
    lcm(j0..J) is the smallest.

    Order and threshold.  With J = j0, A = delta_j0 * Lambda / j0: every q
    with (q - 1) * |delta_j0| > 2 * j0 takes the sign of delta_j0, the
    leading sign, and m precedes n asymptotically exactly when
    delta_j0 > 0, that is -c_m(j0) < -c_n(j0): the lexicographic order of
    `RamanujanSums.terms`.  The least such q is
    q* = floor(2 * j0 / |delta_j0|) + 2.  Each q in [2, q*) is tested once
    on the window J = j0 + _WINDOW (`_window_sum_sign`), and `_certify`
    takes those signs, evaluating exactly each q the window leaves at 0,
    which includes every tie.  The weights and the bound 2 * Lambda, with
    Lambda = lcm(j0..J), depend on j0 and q alone, not on the pair, so
    `_window_weights` forms them once per (j0, q) in a process.

    One outcome per (lead, q*).  Let key = (j0, delta_j0, ..., delta_J);
    a member's terms are extended to J only when it holds fewer.  The lead
    and q* are functions of (j0, delta_j0), and the window's sign at q
    reads the key's deltas and the weights of (j0, q), so it is a
    function of the key and q.  `_window_outcome` reads those signs at
    q = 2, ..., q* - 1 in order and stops at the first that is not the
    lead's.  Suppose none is: then `_certify`, given the lead's sign at
    every q < q*, evaluates nothing and finds no tie and no sign against
    the lead, so the verdict is LESS for the lead +1 and GREATER for -1,
    with checked_q_max = q* - 1 and no flip.  The certificate (threshold_c
    0, the lead, q* - 1, no tie, no flip, the tag) and its line, but for
    the fields m and n, which the template leaves as %d, are then
    functions of (lead, q*) alone.  `_agreeing_outcome` builds that
    outcome once per (lead, q*) in a process, by the same `_certify`,
    `Certificate` and `_line_template`, and every such pair takes it; it
    is stored in the memo under the pair's key and handed to each later
    pair with the key without reading a sign.  A window with a sign
    against the lead at some q < q* (so an INCOMPARABLE verdict), or with
    a q it leaves at 0, decided there by exact evaluation (so every tie),
    may have an outcome that depends on more than (lead, q*) and the key:
    `_certify` decides it from the window's sign at each q, and it is not
    stored.  So the memo holds only shared outcomes, each LESS or GREATER
    with no tie; no code mutates a certificate once made.
    `_window_outcome` decides a window the memo does not hold.

    `order.sort_class` reads the window of a pair with j0 <= _LAST_ROW_J0
    off the two members' rows and keys it (j0, W) instead, with W the
    deltas as one balanced base-256 number (`_row_key`).  Within the
    rows |delta_j| <= 64 < 128, so W determines its digits, and (j0, W)
    and (j0, delta_j0, ..., delta_J) name the same windows; the two
    forms are tuples of unequal length, never equal.  A verification
    gives every pair with j0 <= _LAST_ROW_J0 the first form and every
    other pair this function's, so each window has one key in a run's
    memo.
    """
    m, n = a.n, b.n
    if a.phi != b.phi:
        raise ValueError(f"indices {m} and {n} have unequal totients")
    j0 = a.first_difference(b)
    top = j0 + _WINDOW
    if len(a.terms) < top:
        a.extend(top)
    if len(b.terms) < top:
        b.extend(top)
    key = (j0, *map(sub, b.terms[j0 - 1 : top], a.terms[j0 - 1 : top]))
    return outcomes.get(key) or _window_outcome(m, n, j0, key[1:], key, outcomes)


def _window_outcome(
    m: int,
    n: int,
    j0: int,
    deltas,
    key: tuple[int, ...],
    outcomes: dict[tuple[int, ...], tuple[Verdict, Certificate, str]],
) -> tuple[Verdict, Certificate, str]:
    """The outcome of the pair (m, n) of equal totient whose first window
    is j0 and `deltas`, delta_j0 up to delta_(j0 + _WINDOW): when the
    window reads the lead's sign at every q < q*, the outcome of
    (lead, q*) (`_agreeing_outcome`), stored in the memo `outcomes` under
    `key`; else `_certify`'s from the window's sign at each q, not stored
    (`ramanujan_compare` proves each step).  Both routes of a
    verification, `ramanujan_compare` and the rows of `order.sort_class`,
    decide a window the memo does not hold here."""
    lead = 1 if deltas[0] > 0 else -1  # c_m(j0) - c_n(j0): the terms are negated
    stop = 2 * j0 // abs(deltas[0]) + 2  # q*
    for q in range(2, stop):
        if _window_sum_sign(deltas, j0, q) != lead:
            return _ramanujan_outcome(m, n, lead, stop, functools.partial(_window_sum_sign, deltas, j0))
    outcomes[key] = outcome = _agreeing_outcome(lead, stop)
    return outcome


def _ramanujan_outcome(
    m: int, n: int, lead: int, stop: int, fast: Callable[[int], int]
) -> tuple[Verdict, Certificate, str]:
    """The verdict, certificate and line template `_certify` gives the pair
    (m, n) of equal totient from its lead, q* = stop and the fast test
    `fast`, with no cache: an exact evaluation makes its own."""
    verdict, checked, ties, flips = _certify(m, n, lead, stop, None, fast)
    cert = Certificate(0, lead, checked, ties, flips, "ramanujan")
    return verdict, cert, _line_template(verdict, cert)


@functools.cache
def _agreeing_outcome(lead: int, stop: int) -> tuple[Verdict, Certificate, str]:
    """The outcome of every pair whose window reads the sign `lead` at each
    q in [2, stop), stop its q*, a function of the two alone
    (`ramanujan_compare`): `_ramanujan_outcome` given that sign at each q,
    built once per process for each (lead, q*).  `_certify` reads m and n
    only to evaluate, which a nonzero sign at every q spares, so both are
    given as 0."""
    return _ramanujan_outcome(0, 0, lead, stop, lambda q: lead)


_LAST_ROW_J0 = _SUMS_BLOCK - _WINDOW  # 24: the last j0 whose window J = j0 + 8 lies in a row
# j0 by the bit length of two rows' XOR (`_row_key`); equal rows, 0 bits, read as one past the row
_FIRST_LANE = (_SUMS_BLOCK + 1, *(_SUMS_BLOCK - (bl - 1) // 8 for bl in range(1, 8 * _SUMS_BLOCK + 1)))
# by j0: the bits s of the lanes past the window
_SHIFT = tuple(8 * max(0, _LAST_ROW_J0 - j0) for j0 in range(_SUMS_BLOCK + 2))


def _row_key(a: int, b: int) -> tuple[int, int]:
    """(j0, W) for two rows a <= b of a `SumsTable`, each as a big-endian
    integer: j0 is the first lane where they differ (_SUMS_BLOCK + 1 for
    equal rows), and when j0 <= _LAST_ROW_J0, (j0, W) is the memo key of
    the pair's window; past that W has no meaning.

    Let the rows hold the lanes a_j = 64 - c_m(j) and b_j = 64 - c_n(j),
    j = 1..L (L = _SUMS_BLOCK), so that a = sum over j of
    a_j * 256^(L - j), b likewise, and delta_j = b_j - a_j =
    c_m(j) - c_n(j), the deltas of `ramanujan_compare`.  Every lane lies
    in [32, 96], so |delta_j| <= 64.

    j0 from the XOR.  The lanes are the base-256 digits of a and b, so
    digit L - j of a ^ b is a_j ^ b_j: 0 for j < j0 and nonzero at
    j = j0.  The highest set bit of a ^ b is then one of bits
    8(L - j0) .. 8(L - j0) + 7, so with bl its bit length,
    (bl - 1) // 8 = L - j0 and j0 = L - (bl - 1) // 8 (`_FIRST_LANE`).
    Equal rows XOR to 0, of bit length 0.

    W by two exact shifts.  For j0 <= L - _WINDOW let J = j0 + _WINDOW
    and s = 8(L - J) >= 0 (`_SHIFT`).  The lanes past J are a's low s
    bits, so a >> s, the floor of a / 2^s, drops exactly those lanes and
    is the sum over j <= J of a_j * 256^(J - j); b >> s likewise.  With
    delta_j = 0 below j0, their difference is

        W = sum over j0 <= j <= J of delta_j * 256^(J - j),

    the window delta_j0..delta_J as a balanced base-256 number, whose
    digits lie in [-64, 64].  Two windows with one W are one window: at
    the lowest place where two such digit strings differed, their values
    would differ by a nonzero multiple of that place smaller than 256
    times it, with every lower digit equal, so the values differ.  So
    (j0, W) is injective on windows.
    """
    j0 = _FIRST_LANE[(a ^ b).bit_length()]
    s = _SHIFT[j0]
    return j0, (b >> s) - (a >> s)


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


_RECORD_INTS = ("checked_q_max", "leading_sign", "m", "n", "threshold_c")  # the int fields of a record
_VERDICT_VALUES = tuple(v.value for v in Verdict)  # a tuple: an unhashable verdict is no member, not a TypeError


def _int_list(value, length: int | None = None) -> bool:
    """Whether `value` is a list of ints, never bools, of `length` items
    when a length is given."""
    return type(value) is list and all(type(x) is int for x in value) and length in (None, len(value))


def _well_formed_record(value) -> bool:
    """Whether `value` has exactly the fields of a `comparison_record`,
    each of the type it writes: ints (never bools), lists of ints, a
    known verdict, and a str or None for the tag."""
    return (
        type(value) is dict
        and value.keys() == set(_RECORD_FIELDS)
        and value["verdict"] in _VERDICT_VALUES
        and all(type(value[f]) is int for f in _RECORD_INTS)
        and _int_list(value["tie_witnesses"])
        and _int_list(value["flip_witnesses"])
        and (value["shortcut_tag"] is None or type(value["shortcut_tag"]) is str)
    )


_VERDICT_JSON = {v: encode_basestring_ascii(v.value) for v in Verdict}


def _line_template(verdict: Verdict, cert: Certificate) -> str:
    """`comparison_line` with %d for m and n, every other % doubled: the
    line is template % (m, n)."""
    tag = cert.shortcut_tag
    return (
        '{"checked_q_max":%d,"flip_witnesses":%s,"leading_sign":%d,"m":%%d,"n":%%d,'
        '"shortcut_tag":%s,"threshold_c":%d,"tie_witnesses":%s,"verdict":%s}'
        % (
            cert.checked_q_max,
            str(cert.flip_witnesses).replace(" ", ""),
            cert.leading_sign,
            "null" if tag is None else encode_basestring_ascii(tag).replace("%", "%%"),
            cert.threshold_c,
            str(cert.tie_witnesses).replace(" ", ""),
            _VERDICT_JSON[verdict],
        )
    )


def comparison_line(m: int, n: int, verdict: Verdict, cert: Certificate) -> str:
    """The one writer of a comparison's JSON line:
    json.dumps(comparison_record(m, n, verdict, cert), sort_keys=True,
    separators=(",", ":")), written field by field in sorted key order
    straight from the certificate (whose witnesses are lists of ints) into
    a template (`_line_template`) that m and n complete, without building
    the record or calling the general encoder; the tag goes through json's
    own ASCII escaper."""
    return _line_template(verdict, cert) % (m, n)


def record_to_json(record: dict) -> str:
    """json.dumps(record, sort_keys=True, separators=(",", ":")) for a
    record of `comparison_record`'s fields, by `comparison_line`."""
    return comparison_line(*certificate_from_record(record))


def parse_comparison_record(text: str) -> dict:
    """Inverse of record_to_json for comparison records; raises ValueError
    on text that is not a JSON object, or one without exactly a record's
    fields, each of the type `comparison_record` writes
    (`_well_formed_record`)."""
    rec = json.loads(text)
    if not isinstance(rec, dict):
        raise ValueError("comparison record is not a JSON object")
    if not _well_formed_record(rec):
        raise ValueError(f"comparison record is ill-formed: {text}")
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
