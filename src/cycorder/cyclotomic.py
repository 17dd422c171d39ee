"""Cyclotomic polynomials by two independent routes, their exact values,
and two exact inequality predicates on those values (no comparison calls them).

All arithmetic on coefficients is done on odd squarefree indices
("kernels") only.  Every other index n comes from its kernel k, the odd
part of r = radical(n), in one substitution: with e = n/r,

    Phi_n(t) = Phi_k(s * t^e),  s = -1 if r = 2k and k > 1, else s = +1,

which joins the classical Phi_n(t) = Phi_r(t^e) (n and r have the same
primes) and Phi_2k(t) = Phi_k(-t) for odd k > 1.  The powers of two come
from Phi_2 = t + 1 instead: Phi_(2^a)(t) = t^e + 1.

A kernel's polynomial is the Moebius product of binomials 1 - t^d over
its divisors, formed as a power series truncated after its middle
coefficient, with the upper half read off by palindromy (the truncated
product of A. Arnold and M. Monagan, "Calculating cyclotomic
polynomials", Math. Comp. 80 (2011)).  The series is one integer, its
value at 2^w modulo 2^(w*h) (Kronecker substitution), with a digit width
w proved before the product starts (`_kernel_series`): each factor is a
shifted subtraction, or a few shifted additions, and the digits decode
in C (`_kernel_digits`).  No entry is built from the coefficients of any
entry other than its kernel's.

A kernel is built once per cache and kept as bytes (coefficient + 128)
with its height (`CycloCache.kernel`); a kernel of height 128 or more,
the first being 40755, is kept as its coefficient tuple instead.
`comparator.compare` reads `CycloCache.packed_entry`: any index's value
at 2^8 is made from those bytes by C-level slicing, one byte
translation for s = -1 and one `int.from_bytes`.  A verification reads
no entry: it sorts and certifies from Ramanujan's sums, and only its
exact fallback, `eval_cyclo`, touches the cache.  The substitution
keeps the height, so every entry inherits its kernel's.  `cyclo` decodes
the same entry into an `IntPoly` for callers that want the coefficients
(the `cyclo` command, tests).

The oracle route, `cyclo_moebius`, applies the same identity to the full
polynomials t^(n/d) - 1 with its own divisor loop and exact multiply and
divide passes.  It never touches a cache and shares no code with `cyclo`,
so the two routes cross-check each other (the test suite asserts
coefficientwise equality).

Values, `eval_cyclo`, come from the same product identity applied to
integers: Phi_n(q) is a quotient of products of q^e - 1 (or q^e + 1 for
even n), with no coefficient read.  Kernels and values take their
binomials from one Moebius split, `_moebius_split`.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from math import prod
from operator import neg, sub

from .arith import divisors, factorize, moebius, radical, totient
from .intpoly import IntPoly, packed_value

PACK_WIDTH = 8  # bits per coefficient of the packed values the cache keeps
# byte tables on digits c + 128 (_OFFSET maps c's two's-complement byte to it)
_NEG = bytes(-b & 0xFF for b in range(256))  # c + 128 -> -c + 128
_OFFSET = bytes(b ^ 0x80 for b in range(256))
_ABS = bytes(abs(b - 128) for b in range(256))  # c + 128 -> |c|


def pair_width(height: int) -> int:
    """Smallest multiple of 8 bits w with 4 * height < 2^w.

    A difference of two entries whose heights sum to `height` reads
    exactly off values packed at this width (see `comparator`).
    """
    return max(PACK_WIDTH, -(-(4 * height).bit_length() // 8) * 8)


def _kernel_of(n: int) -> tuple[int, int, bool]:
    """(k, e, flip) with Phi_n(t) = Phi_k(s * t^e), s = -1 exactly when flip.

    k is the kernel of n (module docstring), except that it is 1 for n = 1
    and 2 for the powers of two, where Phi_(2^a)(t) = Phi_2(t^e).
    """
    r = radical(n)
    k = r if r % 2 or r == 2 else r // 2
    return k, n // r, k < r


def kernel_entry(coeffs) -> tuple[bytes | tuple[int, ...], int]:
    """(digits, height) kept for a kernel: its coefficients as bytes
    (coefficient + 128) when its height, its largest absolute coefficient,
    is below 128, which holds for every kernel below 40755, else as the
    tuple of its coefficients; and the height."""
    height = max(map(abs, coeffs))
    if height < 128:
        return bytes([c + 128 for c in coeffs]), height
    return tuple(coeffs), height


# Phi_1 and Phi_2, the bases _kernel_of gives besides kernels
_SMALL_BASES = {1: kernel_entry((-1, 1)), 2: kernel_entry((1, 1))}


def _spread(digits: bytes, e: int, flip: bool) -> bytearray:
    """Phi_n's bytes (coefficient + 128) from its kernel's, under
    t -> s * t^e, in C: the kernel's bytes go with stride e over a string
    of 0x80 bytes (coefficient 0), and s = -1 maps the odd powers' bytes
    through _NEG."""
    raw = bytearray(b"\x80" * ((len(digits) - 1) * e + 1))
    raw[::e] = digits
    if flip:
        raw[e :: 2 * e] = raw[e :: 2 * e].translate(_NEG)
    return raw


def _coefficients(n: int, cache: CycloCache) -> array | list[int]:
    """Phi_n's coefficients from its kernel's digits, with t -> s * t^e
    (`_kernel_of`; an index whose own digits are in `cache.kernels` is
    read as is): a signed-byte array made in C from the `_spread` bytes
    (the inverse of `kernel_entry`), or a list for a tall kernel's
    tuple."""
    k, e, flip = (n, 1, False) if n in cache.kernels else _kernel_of(n)
    digits = cache.kernel(k)[0]
    if not isinstance(digits, tuple):
        return array("b", _spread(digits, e, flip).translate(_OFFSET))
    coeffs = list(digits)
    if e > 1:
        coeffs = [0] * ((len(digits) - 1) * e + 1)
        coeffs[::e] = digits
    if flip:  # s = -1: the odd powers of the kernel change sign
        coeffs[e :: 2 * e] = map(neg, digits[1::2])
    return coeffs


class CycloCache:
    """Per-run store of cyclotomic data: the kernels, the polynomials
    `cyclo` returned, each compared index's packed value, and an
    evaluation memo keyed (n, q).

    `kernels`, the one store of coefficients, maps a kernel k to
    `kernel_entry(coefficients of Phi_k)`, filled by `kernel`: bytes
    (coefficient + 128), or the coefficient tuple for a kernel of height
    128 or more, with the height; 1 and 2 are kernels too (t - 1 and
    t + 1).  `polys` maps only the indices passed to `cyclo` to their
    `IntPoly`s; `len(cache)` and `n in cache` count it, and no comparison
    reads it.  `packed[n]` is (value at 2^PACK_WIDTH, length, height) of
    Phi_n, filled by `packed_entry` from the kernel's digits: length is
    totient(n) + 1 and height the largest absolute coefficient, both the
    kernel's under the substitution, and the value is None when the
    height alone is too large for any pair to be read at PACK_WIDTH.
    `evals` is filled by `eval_cyclo`: the `cyclo N Q` command, the
    `check_*` predicates, the exact fallback of `compare` and of
    `ramanujan_compare`, and `compare`'s values at q = 2 for a pair whose
    totients differ by 1 or 2.  A verification holds no cache: only an
    exact fallback of `ramanujan_compare` makes one, for its pair alone.
    Everything lives until `trim` or until the cache is dropped.
    """

    __slots__ = ("polys", "kernels", "packed", "evals")

    def __init__(self) -> None:
        self.polys: dict[int, IntPoly] = {}
        self.kernels: dict[int, tuple[bytes | tuple[int, ...], int]] = {}
        self.packed: dict[int, tuple[int | None, int, int]] = {}
        self.evals: dict[tuple[int, int], int] = {}

    def __contains__(self, n: int) -> bool:
        return n in self.polys

    def __len__(self) -> int:
        return len(self.polys)

    def kernel(self, k: int) -> tuple[bytes | tuple[int, ...], int]:
        """(digits, height) of the kernel k (or 1, or 2), built on first
        use (`_kernel_series`, `_kernel_digits`)."""
        entry = self.kernels.get(k)
        if entry is None:
            entry = _kernel_digits(*_kernel_series(k)) if k > 2 else _SMALL_BASES[k]
            self.kernels[k] = entry
        return entry

    def packed_entry(self, n: int, width: int = PACK_WIDTH) -> tuple[int | None, int, int]:
        """(value at 2^width, length, height) of Phi_n, from its kernel.

        Phi_n(t) = Phi_k(s * t^e) (`_kernel_of`; an index whose own digits
        are in `kernels` is read as is).  Neither substitution changes the
        height, and the length is (len(kernel) - 1) * e + 1.  At PACK_WIDTH
        the value is C work on the kernel's bytes (coefficient + 128): the
        `_spread` string is read as one integer less the all-0x80 one.
        That entry is kept until `trim`.  A wider width (a tall pair or
        class) packs Phi_n's decoded coefficients (`_coefficients`); that
        entry is not kept.
        """
        if width == PACK_WIDTH:
            entry = self.packed.get(n)
            if entry is not None:
                return entry
        k, e, flip = (n, 1, False) if n in self.kernels else _kernel_of(n)
        digits, height = self.kernel(k)
        length = (len(digits) - 1) * e + 1
        if width != PACK_WIDTH:
            return packed_value(_coefficients(n, self), width), length, height
        value = None
        # a pair read at PACK_WIDTH has both heights within pair_width's bound
        if pair_width(height) == PACK_WIDTH:
            raw = _spread(digits, e, flip)
            value = int.from_bytes(raw, "little") - int.from_bytes(b"\x80" * length, "little")
        entry = self.packed[n] = (value, length, height)
        return entry

    def trim(self) -> None:
        """Drop every polynomial and kernel and clear both memos.

        No code in the package calls it: a verification holds no cache,
        and the exact fallback of `ramanujan_compare` drops its own with
        the pair.  The benchmark's layer wrappers still time it."""
        self.polys.clear()
        self.kernels.clear()
        self.packed.clear()
        self.evals.clear()


def _moebius_split(top: int, primes: list[int]) -> tuple[list[int], list[int]]:
    """The exponents top/d over the products d of distinct `primes`, split
    into those with mu(d) = +1 and -1 (adding a prime to d flips mu).  For
    n's primes and top = n: the d | n with mu(n/d) = +1 and -1."""
    plus, minus = [top], []
    for p in primes:
        plus, minus = plus + [e // p for e in minus], minus + [e // p for e in plus]
    return plus, minus


def _kernel_series(k: int) -> tuple[int, int, int]:
    """(S, w, h) for an odd squarefree k > 1: the lower half of Phi_k's
    coefficients c_i, t^0..t^(h-1) with h = phi(k)/2 + 1, as one integer
    S = sum of c_i * 2^(w*i) mod 2^(w*h), at a digit width w, a multiple
    of 8, with 4 * |c_i| < 2^w.

    Product.  Moebius inversion of t^k - 1 = prod over d | k of Phi_d(t)
    gives Phi_k(t) = prod over d | k of (t^d - 1)^mu(k/d); for k > 1 the
    exponents sum to zero, so the signs cancel and

        Phi_k(t) = prod over d | k of (1 - t^d)^mu(k/d)

    in the integer power series, where every factor is a unit.  Reduction
    modulo t^h is a ring map, and so is t -> 2^w from Z[t]/(t^h) to the
    integers modulo 2^(w*h), so the product can be formed on S, however
    large the coefficients grow on the way: a factor with d >= h is 1, a
    factor 1 - t^d is S - S * 2^(w*d), and 1/(1 - t^d), the sum of t^(j*d)
    over j*d < h, is the product of 1 + t^step for step = d, 2d, 4d, ...
    while step < h (the product of 1 + x^(2^i) over i < m is the sum of
    x^j over j < 2^m, and the first step >= h ends it).  The rest follow by
    symmetry: t^phi(k) * Phi_k(1/t) has the inverses of Phi_k's roots as
    its roots, the same primitive kth roots of unity, and leading
    coefficient Phi_k(0) = 1, so it is Phi_k, and the coefficients form a
    palindrome of length phi(k) + 1 = 2h - 1.

    Width.  Let num and den hold the d < h of the factors 1 - t^d and
    1/(1 - t^d), and d0 = min den.  The product over num has absolute
    coefficient sum at most 2^|num|.  The coefficient D_j, j < h, of the
    product over den counts the tuples (k_d) of naturals with
    sum of k_d * d = j; each k_d is at most (h - 1)/d, and once every k_d
    but k_d0 is fixed, k_d0 is determined, so D_j is at most the product of
    floor((h - 1)/d) + 1 over d != d0 (dropping any one d would do), below
    2^(sum of their bit lengths).  So every |c_i| is below 2^bits, bits =
    |num| + that sum, and w = 8 * ceil((bits + 2) / 8) gives
    4 * |c_i| < 2^w.
    """
    primes = [p for p, _ in factorize(k)]
    h = prod(p - 1 for p in primes) // 2 + 1  # phi(k) / 2 + 1 for squarefree k
    numer, denom = _moebius_split(k, primes)
    numer = [d for d in numer if d < h]
    denom = sorted(d for d in denom if d < h)
    bits = len(numer) + sum(((h - 1) // d + 1).bit_length() for d in denom[1:])
    w = 8 * ((bits + 9) // 8)
    mask = (1 << w * h) - 1
    s = 1
    for d in numer:
        s = (s - (s << d * w)) & mask
    for d in denom:
        step = d
        while step < h:
            s = (s + (s << step * w)) & mask
            step *= 2
    return s, w, h


def _kernel_digits(s: int, w: int, h: int) -> tuple[bytes | tuple[int, ...], int]:
    """`kernel_entry` of the palindrome whose lower half has the base-2^w
    digits c_i of S = s, as `_kernel_series` gives them (4 * |c_i| < 2^w,
    w a multiple of 8), decoded in C.

    R = (S + 128 * ONES) mod 2^(w*h), ONES = sum of 2^(w*i), has base-2^w
    digits c_i + 128 when every c_i is in [-128, 127], so its bytes past
    the first of each digit are zero.  Otherwise, at the first c_i outside
    (no borrow or carry reaches it), digit i of R is c_i + 128, in
    [256, 2^w), or c_i + 128 + 2^w > 3 * 2^(w-2) > 255 for c_i < -128
    (w = 8 keeps |c_i| < 64), and one of those bytes is not zero.  So when they all
    are, the first bytes are the lower half's bytes.  A kernel of height
    128 or more reads c_i = digit - 2^(w-1) off S + 2^(w-1) * ONES
    instead, whose digits lie in [0, 2^w).
    """
    nb, mask = w // 8, (1 << w * h) - 1  # bytes per digit
    ones = int.from_bytes((b"\x01" + bytes(nb - 1)) * h, "little")
    raw = ((s + 128 * ones) & mask).to_bytes(nb * h, "little")
    digits, rest = raw[::nb], bytearray(raw)
    del rest[::nb]  # the bytes past the first of each digit
    if rest.count(0) == len(rest):
        height = max(digits.translate(_ABS))
        if height < 128:
            return digits + digits[-2::-1], height
    offset = 1 << (w - 1)
    raw = ((s + offset * ones) & mask).to_bytes(nb * h, "little")
    coeffs = [int.from_bytes(raw[i : i + nb], "little") - offset for i in range(0, nb * h, nb)]
    return kernel_entry(coeffs + coeffs[-2::-1])


def cyclo(n: int, cache: CycloCache) -> IntPoly:
    """The nth cyclotomic polynomial, decoded from its kernel's cached
    entry (`_coefficients`) and cached under n alone, one byte per
    coefficient below index 40755.  The result is monic of degree
    totient(n).
    """
    if n < 1:
        raise ValueError(f"index must be a positive integer, got {n}")
    poly = cache.polys.get(n)
    if poly is None:
        poly = cache.polys[n] = IntPoly(_coefficients(n, cache))
    return poly


def _times_binomial(a: list[int], k: int) -> list[int]:
    """Coefficients of a * (t^k - 1): a shifted up by k, minus a."""
    return list(map(sub, [0] * k + a, a + [0] * k))


def _over_binomial(a: list[int], k: int) -> list[int]:
    """Coefficients of the exact quotient a / (t^k - 1), for k >= 1.

    a = q * (t^k - 1) reads a_j = q_(j-k) - q_j coefficientwise, so
    q_j = q_(j-k) - a_j: along each residue class of j mod k the quotient
    is the negated running sum of a.  What is left, a_j - q_(j-k) for the
    top k coefficients, is the remainder; a nonzero one raises
    ArithmeticError.
    """
    qlen = len(a) - k
    if qlen < 1:
        raise ArithmeticError(f"degree {len(a) - 1} is below the divisor's {k}")
    quot = [0] * qlen
    for r in range(min(k, qlen)):
        quot[r::k] = accumulate(map(neg, a[r:qlen:k]))
    carry = [0] * max(0, k - qlen) + quot[max(0, qlen - k) :]
    if a[qlen:] != carry:
        raise ArithmeticError(f"t^{k} - 1 does not divide the polynomial")
    return quot


def cyclo_moebius(n: int) -> IntPoly:
    """Independent oracle: the nth cyclotomic polynomial by Moebius
    inversion of the product identity.

    Multiplies the binomials t^(n/d) - 1 over divisors d with mu(d) = 1,
    then divides exactly by those with mu(d) = -1.  Every intermediate
    quotient is Phi_n times the binomials still to divide, a polynomial,
    so each step stays exact and a remainder raises.  Cache-free, and
    one linear pass of its own per binomial: no `intpoly` arithmetic.
    """
    if n < 1:
        raise ValueError(f"index must be a positive integer, got {n}")
    acc = [1]
    den: list[int] = []
    for d in divisors(n):
        mu = moebius(d)
        if mu == 1:
            acc = _times_binomial(acc, n // d)
        elif mu == -1:
            den.append(n // d)
    for k in den:
        acc = _over_binomial(acc, k)
    return IntPoly(acc)


def eval_cyclo(n: int, q: int, cache: CycloCache) -> int:
    """Exact value of the nth cyclotomic polynomial at the integer q >= 2,
    memoized under (n, q).

    The value comes from the product formula

        Phi_n(q) = prod over d | radical(n) of (q^(n/d) - 1)^mu(d),

    the Moebius inversion of q^n - 1 = prod over d | n of Phi_d(q) (only
    squarefree d have mu(d) != 0, and those divide radical(n)).  For even
    n the squarefree divisors pair up as {d, 2d} with d odd and
    mu(2d) = -mu(d), and each pair's two factors combine into one,
    (q^(n/d) - 1) / (q^(n/(2d)) - 1) = q^(n/(2d)) + 1, so

        Phi_n(q) = prod over odd d | radical(n) of (q^(n/(2d)) + 1)^mu(d),

    half as many factors.  The factors with mu(d) = +1 and with
    mu(d) = -1 are multiplied into two integers and the first is divided
    exactly by the second (q >= 2 keeps every factor nonzero); a remainder
    raises ArithmeticError.  The coefficient tuple is never read.

    The cost is two products of 2^(k-1) big integers each for k distinct
    odd primes, whatever the polynomial's density.  For many primes and
    large q this loses to Horner on the coefficients (n = 4290 at q = 10
    took about 4 times as long).  `compare` calls it at q = 2 for a pair
    whose totients differ by 1 or 2, and for a pair of equal totient
    only at a q <= c that the top coefficients of the difference leave
    undecided, which includes every tie; `ramanujan_compare` only at a
    q < q* that its window leaves undecided, which no adjacent pair of a
    verification up to 100000 has.
    """
    if q < 2:
        raise ValueError(f"the ordering is only defined over q >= 2, got q={q}")
    key = (n, q)
    memo = cache.evals
    val = memo.get(key)
    if val is None:
        primes = [p for p, _ in factorize(n)]
        # exponents n/d (n/(2d)) over the squarefree odd d, split by mu(d)
        if n % 2:
            (plus, minus), one = _moebius_split(n, primes), -1
        else:
            (plus, minus), one = _moebius_split(n // 2, primes[1:]), 1
        val, rem = divmod(prod([q**e + one for e in plus]), prod([q**e + one for e in minus]))
        if rem:
            raise ArithmeticError(f"internal: product formula for index {n} at q={q} is not exact")
        memo[key] = val
    return val


def check_value_bounds(n: int, q: int, cache: CycloCache) -> bool:
    """Exact check that the value at q is wedged between c*q^phi(n) and
    q^phi(n)/c with c = 1 - 1/q, for n >= 2.

    Cleared of denominators this reads
        (q-1) * q^(phi(n)-1) < value  and  (q-1) * value < q^(phi(n)+1),
    both strict.  n = 1 is rejected: there the lower bound is attained
    with equality (q - 1 = (1 - 1/q) * q), so it sits outside the strict
    statement checked here.
    """
    if n < 2:
        raise ValueError(f"bounds are strict only for n >= 2, got n={n}")
    if q < 2:
        raise ValueError(f"need q >= 2, got q={q}")
    phi = totient(n)
    value = eval_cyclo(n, q, cache)
    return (q - 1) * q ** (phi - 1) < value and (q - 1) * value < q ** (phi + 1)


def check_mu_sandwich(m: int, q: int, cache: CycloCache) -> bool:
    """Exact check that q^phi(m) separates the values at m and 2m for odd m.

    Which side each value falls on is decided by the Moebius function of
    the radical of m: +1 puts the value at m below q^phi(m) and the value
    at 2m above; -1 swaps the two.  Both inequalities are strict.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError(f"need odd m >= 1, got m={m}")
    if q < 2:
        raise ValueError(f"need q >= 2, got q={q}")
    mid = q ** totient(m)
    val_m = eval_cyclo(m, q, cache)
    val_2m = eval_cyclo(2 * m, q, cache)
    if moebius(radical(m)) == 1:
        return val_m < mid < val_2m
    return val_2m < mid < val_m
