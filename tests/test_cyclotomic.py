import pytest

from cycorder import cyclotomic
from cycorder.arith import divisors, factorize, moebius, totient
from cycorder.cyclotomic import (
    PACK_WIDTH,
    CycloCache,
    _kernel_digits,
    _kernel_series,
    _moebius_split,
    _over_binomial,
    _times_binomial,
    check_mu_sandwich,
    check_value_bounds,
    cyclo,
    cyclo_moebius,
    eval_cyclo,
    kernel_entry,
    pair_width,
)
from cycorder.intpoly import IntPoly, packed_value
from cycorder.oracle import _horner


@pytest.fixture(scope="module")
def oracle_to_3000() -> dict[int, IntPoly]:
    """The Moebius oracle's polynomial for every n <= 3000, built once."""
    return {n: cyclo_moebius(n) for n in range(1, 3001)}


def test_cyclo_small_values(shared_cache):
    assert cyclo(1, shared_cache).coeffs == (-1, 1)
    assert cyclo(2, shared_cache).coeffs == (1, 1)
    assert cyclo(3, shared_cache).coeffs == (1, 1, 1)
    assert cyclo(4, shared_cache).coeffs == (1, 0, 1)
    assert cyclo(6, shared_cache).coeffs == (1, -1, 1)
    assert cyclo(10, shared_cache).coeffs == (1, -1, 1, -1, 1)
    with pytest.raises(ValueError):
        cyclo(0, shared_cache)


def test_cyclo_moebius_small_values():
    assert cyclo_moebius(1).coeffs == (-1, 1)
    assert cyclo_moebius(2).coeffs == (1, 1)
    assert cyclo_moebius(4).coeffs == (1, 0, 1)
    # (t^12-1)(t^2-1) / ((t^6-1)(t^4-1)), reduced by long division
    assert cyclo_moebius(12).coeffs == (1, 0, -1, 0, 1)


def test_oracle_division_raises_on_a_non_multiple():
    a = _times_binomial([3, -1, 2], 4)
    assert a == [-3, 1, -2, 0, 3, -1, 2]
    assert _over_binomial(a, 4) == [3, -1, 2]
    assert _over_binomial([-1, 0, 1], 1) == [1, 1]
    for coeffs, k in (
        (a[:-1] + [3], 4),  # top coefficient off by one
        ([1, 0, 1], 1),  # t^2 + 1 = (t + 1)(t - 1) + 2
        ([1, 0, 0, 0, 1], 2),  # t^4 + 1 = (t^2 + 1)(t^2 - 1) + 2
        ([0, 1], 2),  # degree below the divisor's
    ):
        with pytest.raises(ArithmeticError):
            _over_binomial(coeffs, k)


def test_eval_cyclo(shared_cache):
    assert eval_cyclo(1, 2, shared_cache) == 1
    assert eval_cyclo(3, 2, shared_cache) == 7
    assert eval_cyclo(6, 2, shared_cache) == 3
    with pytest.raises(ValueError):
        eval_cyclo(5, 1, shared_cache)


def test_eval_cyclo_matches_entry_to_2000(shared_cache):
    """The memoized evaluation (the product formula) equals direct
    evaluation of the entry for n."""
    for n in range(1, 2001):
        cyclo(n, shared_cache)
    fresh = CycloCache()  # an empty memo
    for n in range(1, 2001):
        poly = cyclo(n, shared_cache)
        for q in (2, 3, 7):
            assert eval_cyclo(n, q, fresh) == poly.eval_at(q), (n, q)


def test_eval_cyclo_matches_oracle_horner(oracle_to_3000):
    """The product formula against Horner on the Moebius oracle's
    coefficients, for every n <= 3000 (2310 and 2730 have five primes)
    and 2*3^7 (a long, sparse entry), at small q and at q = 256."""
    cache = CycloCache()
    for n, poly in [*oracle_to_3000.items(), (2 * 3**7, cyclo_moebius(2 * 3**7))]:
        coeffs = poly.coeffs
        for q in (2, 3, 7, 256):
            assert eval_cyclo(n, q, cache) == _horner(coeffs, q), (n, q)


def test_cache_reuse_and_trim():
    cache = CycloCache()
    p1 = cyclo(360, cache)
    assert cyclo(360, cache) is p1
    assert 360 in cache
    eval_cyclo(360, 2, cache)
    cache.packed_entry(360)
    p2 = cyclo(50, cache)
    eval_cyclo(50, 2, cache)
    cache.packed_entry(50)
    assert set(cache.kernels) == {15, 5}  # the kernels of 360 and 50
    cache.trim()
    assert 360 not in cache
    assert 360 not in cache.packed and (360, 2) not in cache.evals
    # every map is emptied, the small index's entries too
    assert 50 not in cache
    assert 50 not in cache.packed and (50, 2) not in cache.evals
    assert len(cache) == 0 and not cache.polys and not cache.packed and not cache.evals
    assert not cache.kernels
    assert cyclo(360, cache) == p1
    assert cyclo(50, cache) == p2


def test_cyclo_stores_only_the_index_and_its_kernel():
    """Each entry is decoded from its kernel (the odd part of the radical)
    in one substitution, with no radical entry on the way: `polys` gets n
    alone and `kernels` the kernel alone, Phi_2 for the powers of two."""
    for n, kernel in ((360, 15), (16, 2), (2 * 3**7, 3)):
        cache = CycloCache()
        assert cyclo(n, cache) == cyclo_moebius(n)
        assert set(cache.polys) == {n}, n
        assert set(cache.kernels) == {kernel}, n


def test_each_kernel_is_built_once_for_both_readers(monkeypatch):
    """`cyclo` and `packed_entry` read one kernel entry: on one cache, the
    121 kernels of the indices up to 300 are built once each."""
    built = []
    build = cyclotomic._kernel_series
    monkeypatch.setattr(cyclotomic, "_kernel_series", lambda k: built.append(k) or build(k))
    cache = CycloCache()
    for n in range(1, 301):
        cyclo(n, cache)
        cache.packed_entry(n)
    assert len(built) == len(set(built)) == 121


def test_moebius_split_matches_divisors_to_3000():
    """The split shared by kernels and values: the d | n with
    mu(n/d) = +1 and -1, and for even n the exponents n/(2d) over the odd
    d | n with mu(d) = +1 and -1 that `eval_cyclo` raises q^e + 1 to."""
    for n in range(1, 3001):
        primes = [p for p, _ in factorize(n)]
        plus, minus = _moebius_split(n, primes)
        assert len(plus) == len(set(plus)) and len(minus) == len(set(minus)), n
        assert set(plus) == {d for d in divisors(n) if moebius(n // d) == 1}, n
        assert set(minus) == {d for d in divisors(n) if moebius(n // d) == -1}, n
        if n % 2 == 0:
            plus, minus = _moebius_split(n // 2, primes[1:])
            odd = [d for d in divisors(n) if d % 2]
            assert set(plus) == {n // (2 * d) for d in odd if moebius(d) == 1}, n
            assert set(minus) == {n // (2 * d) for d in odd if moebius(d) == -1}, n


def test_degree_law_to_2000(shared_cache):
    for n in range(1, 2001):
        assert cyclo(n, shared_cache).degree == totient(n), n


def test_oracle_equivalence_to_3000(shared_cache, oracle_to_3000):
    for n, poly in oracle_to_3000.items():
        assert cyclo(n, shared_cache) == poly, n


def test_packed_entries_match_the_product_formula_to_3000():
    """A third route: each entry's packed value at 2^8, made from its
    kernel's bytes, equals the integer product formula at q = 256 and the
    packing of `cyclo`'s coefficients; the height it inherits from its
    kernel is the entry's own (t -> +-t^e keeps the height)."""
    cache = CycloCache()
    for n in range(1, 3001):
        value, length, height = cache.packed_entry(n)
        coeffs = cyclo(n, cache).coeffs
        assert height < 2 ** (PACK_WIDTH - 2), n  # every entry this small packs at width 8
        assert height == max(map(abs, coeffs)), n
        assert length == len(coeffs) == totient(n) + 1, n
        assert value == packed_value(coeffs, PACK_WIDTH), n
        assert value == eval_cyclo(n, 2**PACK_WIDTH, cache), n
        cache.trim()


def test_wide_packed_entries_match_the_coefficients():
    """Entries packed wider than 8 bits, and entries of a kernel too tall
    for a byte (40755 has height 359), for each substitution: none,
    t -> -t, t -> t^3, t -> -t^2 and the powers of two.  Every value is
    checked against routes that share no code with the decoding: the
    Moebius oracle's coefficients packed at that width (`cyclo` must give
    those coefficients too), and the product formula at q = 2^width below
    40755 (above it, that formula's big-integer division takes seconds per
    value)."""
    cache = CycloCache()
    for n in (1, 2, 16, 105, 210, 315, 420, 40755, 2 * 40755, 3 * 40755, 4 * 40755):
        coeffs = cyclo_moebius(n).coeffs
        assert cyclo(n, cache).coeffs == coeffs, n
        height = max(map(abs, coeffs))
        value, length, kept = cache.packed_entry(n)
        assert (length, kept) == (len(coeffs), height), n
        assert (value is None) == (pair_width(height) > PACK_WIDTH), n
        for width in (16, 24, pair_width(2 * height)):
            wide = cache.packed_entry(n, width)
            assert wide == (packed_value(coeffs, width), length, height), n
            if n < 40755:
                assert wide[0] == eval_cyclo(n, 2**width, cache), (n, width)
        if n == 40755:
            digits, kept = cache.kernels[40755]
            assert type(digits) is tuple and len(digits) == 17281 and kept == 359
            assert all(type(c) is int for c in digits)
        cache.trim()


def test_kernel_entry_digit_widths():
    """A kernel is kept in bytes (coefficient + 128) up to height 127 and
    as its coefficient tuple from 128 on, -128 included (it fits a signed
    byte but not a digit c + 128)."""
    assert kernel_entry((-127, 0, 1)) == (bytes((1, 128, 129)), 127)
    assert kernel_entry([127, -5]) == (bytes((255, 123)), 127)
    assert kernel_entry((-128, 0, 1)) == ((-128, 0, 1), 128)
    assert kernel_entry([1, -359, 7]) == ((1, -359, 7), 359)


def test_tall_kernel_decodes_from_signed_digits():
    """40755, the first kernel of height 128 or more (359), is read off
    its series as signed digits into its coefficient tuple."""
    entry = _kernel_digits(*_kernel_series(40755))
    assert entry == kernel_entry(cyclo_moebius(40755).coeffs)
    assert type(entry[0]) is tuple and entry[1] == 359


def test_kernel_digits_past_a_byte():
    """Wide digits whose first bytes alone would pass for a short kernel's
    (200 reads as 200 - 256 = -56, and -200 borrows) go to the tuple, and
    so does -128, which fits a byte but not a digit c + 128."""
    for half in ([1, 200, 1], [1, -200, 1], [1, -128, 1], [1, -127, 1]):
        s = sum(c << 16 * i for i, c in enumerate(half)) % 2**48
        assert _kernel_digits(s, 16, 3) == kernel_entry(half + half[-2::-1]), half


def test_smallest_kernel_at_each_width_decodes():
    """The first kernel at each digit width the bound assigns below 5000:
    one byte a digit (3), the strided bytes of wider digits (105, 1155,
    1785)."""
    first = {}
    for k in range(3, 5000, 2):
        if all(e == 1 for _, e in factorize(k)):
            first.setdefault(_kernel_series(k)[1], k)
    assert first == {8: 3, 16: 105, 32: 1155, 40: 1785}
    for k in first.values():
        assert _kernel_digits(*_kernel_series(k)) == kernel_entry(cyclo_moebius(k).coeffs), k


def test_width_bound_holds_to_3000(oracle_to_3000):
    """For every kernel up to 3000 the oracle's height h satisfies
    4 * h < 2^w at the width `_kernel_series` proves before its product."""
    for k, poly in oracle_to_3000.items():
        if k > 1 and k % 2 and all(e == 1 for _, e in factorize(k)):
            height = max(map(abs, poly.coeffs))
            assert 4 * height < 2 ** _kernel_series(k)[1], k


def test_six_prime_kernel_builds():
    """255255 = 3*5*7*11*13*17, the first index with six odd primes."""
    n = 3 * 5 * 7 * 11 * 13 * 17
    poly = cyclo(n, CycloCache())
    assert poly.degree == totient(n) == 92160
    assert poly.coeffs == poly.coeffs[::-1]
    assert poly.eval_at(2) == eval_cyclo(n, 2, CycloCache())


def test_product_identity(shared_cache):
    for n in range(1, 201):
        for q in (2, 3, 5, 7):
            prod = 1
            for d in divisors(n):
                prod *= eval_cyclo(d, q, shared_cache)
            assert prod == q**n - 1, (n, q)


def test_palindromic_coefficients(shared_cache):
    # classical: from index 2 on, the coefficient sequence is a palindrome
    for n in range(2, 2001):
        cs = cyclo(n, shared_cache).coeffs
        assert cs == cs[::-1], n


def test_value_bounds_examples(shared_cache):
    # (q-1)*q^(phi-1) < value < q^(phi+1)/(q-1), cleared of denominators
    assert eval_cyclo(2, 2, shared_cache) == 3  # 1 < 3 and 3 < 4
    assert check_value_bounds(2, 2, shared_cache)
    assert eval_cyclo(6, 2, shared_cache) == 3  # 2 < 3 and 3 < 8
    assert check_value_bounds(6, 2, shared_cache)
    assert eval_cyclo(10, 3, shared_cache) == 61  # 54 < 61 and 122 < 243
    assert check_value_bounds(10, 3, shared_cache)


def test_value_bounds_reject_bad_inputs(shared_cache):
    with pytest.raises(ValueError):
        check_value_bounds(1, 2, shared_cache)  # equality at index 1, outside the strict claim
    with pytest.raises(ValueError):
        check_value_bounds(5, 1, shared_cache)


def test_value_bounds_sweep(shared_cache):
    for n in range(2, 501):
        for q in (2, 3, 5):
            assert check_value_bounds(n, q, shared_cache), (n, q)


def test_mu_sandwich_examples(shared_cache):
    assert check_mu_sandwich(1, 2, shared_cache)  # 1 < 2 < 3
    assert check_mu_sandwich(3, 2, shared_cache)  # 3 < 4 < 7, swapped sides
    assert eval_cyclo(15, 2, shared_cache) == 151
    assert eval_cyclo(30, 2, shared_cache) == 331
    assert check_mu_sandwich(15, 2, shared_cache)  # 151 < 256 < 331
    with pytest.raises(ValueError):
        check_mu_sandwich(4, 2, shared_cache)


def test_mu_sandwich_sweep(shared_cache):
    for m in range(1, 1000, 2):
        for q in (2, 3):
            assert check_mu_sandwich(m, q, shared_cache), (m, q)
