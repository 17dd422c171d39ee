"""Decide how the values of two cyclotomic polynomials relate across every
integer q >= 2, producing a finite certificate.

Two indices of unequal totient are ordered smaller totient first: the
gap settles every q >= 3, and q = 2 too unless the totients differ by at
most 2, when the two values at q = 2 are evaluated exactly (`compare`
proves the rule).  No coefficient is read for such a pair.  The rest of
this docstring is about indices of equal totient.

For such indices m and n, let D be the polynomial for n minus the
polynomial for m.  When D is nonzero, write c for the largest absolute
coefficient of D and d for its degree.  For q >= c + 1,

    |D(q)| >= q^d - c*(q^(d-1) + ... + 1) > 0,

because q^d * (q - 1) >= c * q^d > c * (q^d - 1); equivalently, after
splitting D into its positive and negative parts A - B, the base-q digit
string of A(q) beats B(q) once q exceeds every digit.  So the sign of
D(q) equals the sign of D's leading coefficient for all q > c, and only
the signs at q in [2, c] (none when c <= 1) remain.  Each is read off a
window of D's top coefficients, which decides it whenever D(q) is far
from zero; exact evaluation of both values at q is the fallback, and the
only route that can find a tie (`compare` proves the rule).  The verdict
plus those finitely many signs certify the infinite family of
inequalities.

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

_WINDOW_CAP = 64  # widest window of D's top coefficients tried before exact evaluation


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
                    (settles all q > threshold_c); 0 on a totient-gap
                    certificate, which reads no coefficient
    leading_sign    sign of the difference's top coefficient; on a
                    totient-gap certificate the sign of the side of
                    higher totient (+1 when it is n); 0 only for EQUAL,
                    where the difference is zero
    checked_q_max   largest q that was exhaustively evaluated; equals
                    max(threshold_c, 1) except when an incomparable verdict
                    needs the first asymptotic q as an explicit witness.
                    On a totient-gap certificate it is 2 when q = 2 was
                    evaluated, else 1 (3 for INCOMPARABLE)
    tie_witnesses   q values with exact equality of the two sides
                    (only 2 on a totient-gap certificate)
    flip_witnesses  one q with positive and one with negative difference
                    (present exactly when the verdict is INCOMPARABLE)
    shortcut_tag    "totient-gap" when the pair has unequal totients and
                    the gap decided it (`compare` proves the rule), else
                    None
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


def _gap_compare(m: int, n: int, delta: int, cache: CycloCache) -> tuple[Verdict, Certificate]:
    """`compare` for indices of unequal totient, delta = phi(n) - phi(m):
    smaller totient first, with the exact sign at q = 2 read when
    |delta| <= 2 (`compare` proves the rule)."""
    lead = 1 if delta > 0 else -1
    verdict = Verdict.LESS if lead > 0 else Verdict.GREATER
    checked, ties, flips = 1, [], []
    if abs(delta) <= 2:
        checked = 2
        v = eval_cyclo(n, 2, cache) - eval_cyclo(m, 2, cache)
        if not v:
            ties = [2]
        elif v * lead < 0:
            # q = 2 contradicts the gap; q = 3, where the gap decides, is
            # evaluated too, so that both witnesses are values at hand
            v = eval_cyclo(n, 3, cache) - eval_cyclo(m, 3, cache)
            if v * lead <= 0:
                raise ArithmeticError(f"internal: the totient gap of {m}, {n} fails at q=3")
            verdict, checked = Verdict.INCOMPARABLE, 3
            flips = [3, 2] if lead > 0 else [2, 3]
    return verdict, Certificate(0, lead, checked, ties, flips, "totient-gap")


def _window_sign(top: bytes | list[int], q: int, c: int) -> int:
    """Sign of D(q) read off D's top coefficients, or 0 when no window
    decides it.  top holds D_i + c for i = t, t - 1, ..., top first;
    the windows are its first 8, 16, 32, ... entries, up to all of it
    (`compare` proves the rule)."""
    total, lo, hi = 0, 0, 8
    while True:
        for digit in top[lo:hi]:
            total = total * q + digit - c
        if (q - 1) * abs(total) >= c:
            return 1 if total > 0 else -1
        if hi >= len(top):
            return 0
        lo, hi = hi, 2 * hi


def compare(m: int, n: int, cache: CycloCache) -> tuple[Verdict, Certificate]:
    """Full comparison of indices m and n with certificate.

    The lengths of the cache's packed entries, phi + 1, tell whether the
    totients differ.  If they do, the totient gap decides the pair
    (`_gap_compare`, proof below).  If not, the threshold c and the
    leading sign of the difference D (value at n minus value at m) are
    read off X = P_n - P_m, the sign of D(q) is decided at every q in
    [2, c], and all larger q are settled by the leading-coefficient
    argument in the module docstring.  X and the heights come from the
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
    because 2^3 = 8 > e^2.  So a precedes b, and only q = 2 with
    Delta <= 2 is left, which is evaluated exactly: it may tie (2 and 6
    both give 3).  The certificate has shortcut_tag "totient-gap",
    threshold_c 0 (no coefficient is read), the sign of the side of
    higher totient as leading_sign, and checked_q_max 2 when q = 2 was
    evaluated, else 1.  The theorem that every pair is comparable is not
    assumed: an exact sign at q = 2 against the gap makes the verdict
    INCOMPARABLE, with q = 3 evaluated as the other witness, just as an
    incomparable pair of equal totient names its first asymptotic q.

    The sign at q from D's top coefficients.  Let t be the top nonzero
    index of D, take a window of L coefficients, s = t - L + 1 (or 0
    when L > t), and T = sum over i >= s of D_i * q^(i - s).  Then
    D(q) = q^s * T + R with R = sum over i < s of D_i * q^i, and every
    |D_i| <= c gives

        |R| <= c * (q^s - 1) / (q - 1) < c * q^s / (q - 1).

    So if (q - 1) * |T| >= c, then q^s * |T| > |R|: D(q) is nonzero and
    has the sign of T.  Windows of 8, 16, 32 and _WINDOW_CAP coefficients
    are tried in turn (`_window_sign`) until one decides; a q that none
    decides, including every q where D(q) = 0, is evaluated exactly as
    eval_cyclo(n, q) - eval_cyclo(m, q).

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
        return _gap_compare(m, n, ln - lm, cache)
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
    ties: list[int] = []
    first_neg = first_pos = 0
    if c > 1:
        nbytes = width // 8
        t = x.bit_length() // width
        s = max(0, t - _WINDOW_CAP + 1)
        raw = y.to_bytes(ln * nbytes, "little")[s * nbytes : (t + 1) * nbytes]
        top = raw[::-1] if nbytes == 1 else [
            int.from_bytes(raw[i - nbytes : i], "little") for i in range(len(raw), 0, -nbytes)
        ]
    for q in range(2, c + 1):
        sign = _window_sign(top, q, c)
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

    `shortcut_tag` is "totient-gap" on a pair of unequal totient and None
    on every other, so the records of a verification, which compares
    only indices of equal totient, and the certificate hashes taken over
    them keep their bytes.
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
