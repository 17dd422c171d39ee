"""Acceptance suite: one test per criterion, exact arithmetic throughout,
every tolerance zero.  Each test prints a PASS/FAIL line.

Criterion 3, the range verification at 20000, is the slowest (about
25 s in one process).
"""

import random
import time
from contextlib import contextmanager

from cycorder.arith import divisors, inverse_totient, moebius, radical, totient
from cycorder.cli import main
from cycorder.comparator import Verdict, compare
from cycorder.cyclotomic import (
    check_mu_sandwich,
    check_value_bounds,
    cyclo,
    cyclo_moebius,
    eval_cyclo,
)
from cycorder.oracle import brute_inverse_totient
from cycorder.order import build_chain, check_conjecture2

CHAIN_31 = [1, 2, 6, 4, 3, 10, 12, 8, 5, 14, 18, 9, 7, 15, 20, 24, 16, 30, 22, 11]


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {title}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {title}")


def test_criterion_01_chain_reproduction(capsys):
    with criterion(1, "chain(31) stable prefix reproduces the 20-term sequence"):
        t0 = time.monotonic()
        report = build_chain(31)
        elapsed = time.monotonic() - t0
        assert report.stable_prefix == CHAIN_31
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
        code = main(["chain", "31"])
        out = capsys.readouterr().out
        assert code == 0
        assert [int(x) for x in out.split()] == CHAIN_31


def test_criterion_02_verify_2000(capsys):
    with criterion(2, "verify(2000) reports TOTAL-ORDER in under two minutes, one worker"):
        t0 = time.monotonic()
        code = main(["verify", "2000"])
        elapsed = time.monotonic() - t0
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip().splitlines()[-1] == "VERDICT TOTAL-ORDER"
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"
        report = build_chain(2000, workers=1)
        assert report.incomparable_pairs == []
        assert sorted(report.sequence) == list(range(1, 2001))


def test_criterion_03_verify_20000(capsys):
    with criterion(3, "verify(20000) reports TOTAL-ORDER"):
        t0 = time.monotonic()
        code = main(["verify", "20000"])
        elapsed = time.monotonic() - t0
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip().splitlines()[-1] == "VERDICT TOTAL-ORDER"
        with capsys.disabled():
            print(f"\nverify(20000): {elapsed:.1f} s in one process")


def test_criterion_04_conjecture2(capsys):
    with criterion(4, "successor claim fails only at i=1 (blocker 4), holds for i=2..6"):
        t0 = time.monotonic()
        code = main(["conjecture2", "6"])
        elapsed = time.monotonic() - t0
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == ["i=1 FAILS blockers=[4]"] + [
            f"i={i} HOLDS" for i in range(2, 7)
        ]
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
        reports = check_conjecture2(6)
        assert not reports[0].holds and reports[0].blockers == [4]
        assert [r.holds for r in reports[1:]] == [True] * 5


def test_criterion_05_product_identity(shared_cache):
    with criterion(5, "product of values over divisors equals q^n - 1, n <= 200"):
        for n in range(1, 201):
            for q in (2, 3, 5, 7):
                prod = 1
                for d in divisors(n):
                    prod *= eval_cyclo(d, q, shared_cache)
                assert prod == q**n - 1, (n, q)


def test_criterion_06_degree_law(shared_cache):
    with criterion(6, "degree equals totient for n <= 2000"):
        for n in range(1, 2001):
            assert cyclo(n, shared_cache).degree == totient(n), n


def test_criterion_07_oracle_equivalence(shared_cache):
    with criterion(7, "recursion route equals Moebius route for n <= 1000"):
        for n in range(1, 1001):
            assert cyclo(n, shared_cache) == cyclo_moebius(n), n


def test_criterion_08_value_bounds(shared_cache):
    with criterion(8, "two-sided value bounds hold for 2 <= n <= 500, q in {2,3,5}"):
        for n in range(2, 501):
            for q in (2, 3, 5):
                assert check_value_bounds(n, q, shared_cache), (n, q)


def test_criterion_09_mu_sandwich(shared_cache):
    with criterion(9, "q^phi(m) separates the values at m and 2m for odd m <= 999"):
        for m in range(1, 1000, 2):
            for q in (2, 3):
                assert check_mu_sandwich(m, q, shared_cache), (m, q)


def proved_rule(m: int, n: int) -> Verdict | None:
    """The verdict of the two proved facts, or None when neither applies.

    Totient gap: the index of smaller totient comes first.  Odd double:
    for odd k, k comes before 2k iff mu(rad k) = 1.
    """
    tm, tn = totient(m), totient(n)
    if tm != tn:
        return Verdict.LESS if tm < tn else Verdict.GREATER
    if m % 2 == 1 and n == 2 * m:
        return Verdict.LESS if moebius(radical(m)) == 1 else Verdict.GREATER
    if n % 2 == 1 and m == 2 * n:
        return Verdict.GREATER if moebius(radical(n)) == 1 else Verdict.LESS
    return None


def test_criterion_10_shortcut_soundness(shared_cache):
    with criterion(10, "totient gap and odd double agree with compare, pairs <= 300 plus random"):
        rng = random.Random(20240)
        pairs = [(m, n) for m in range(1, 301) for n in range(1, 301)]
        pairs += [(rng.randint(1, 2000), rng.randint(1, 2000)) for _ in range(1000)]
        gaps = doubles = 0
        for m, n in pairs:
            rule = proved_rule(m, n)
            if rule is not None:
                assert compare(m, n, shared_cache)[0] is rule, (m, n)
                if totient(m) == totient(n):
                    doubles += 1
                else:
                    gaps += 1
        assert (gaps, doubles) == (89229, 150)


def test_criterion_11_equal_totient_difference_structure(shared_cache):
    with criterion(11, "equal-totient differences are a power of t times a palindrome"):
        by_phi = {}
        for x in range(1, 301):
            by_phi.setdefault(totient(x), []).append(x)
        for members in by_phi.values():
            for i, m in enumerate(members):
                for n in members[i + 1 :]:
                    d = cyclo(m, shared_cache) - cyclo(n, shared_cache)
                    assert d.is_self_reciprocal_up_to_power(), (m, n)


def test_criterion_12_inverse_totient():
    with criterion(12, "inverse totient matches the brute scan for v <= 300"):
        for v in range(1, 301):
            assert inverse_totient(v) == brute_inverse_totient(v, 2 * v * v + 10), v
