import random

from cycorder.cyclotomic import cyclo_moebius
from cycorder.intpoly import IntPoly


def rnd_poly(rng, maxdeg=8, bound=9):
    return IntPoly([rng.randint(-bound, bound) for _ in range(rng.randint(0, maxdeg) + 1)])


def test_sub_examples():
    assert (IntPoly([1, 0, 1]) - IntPoly([1, -1, 1])).coeffs == (0, 1)
    p = IntPoly([7, -1, 4])
    assert (p - p).is_zero()
    assert (IntPoly([1, 1, 1]) - IntPoly([1, 0, 1])).coeffs == (0, 1)


def test_eval_examples():
    assert IntPoly([1, 1]).eval_at(2) == 3
    assert IntPoly([1, -1, 1, -1, 1]).eval_at(2) == 11
    assert IntPoly().eval_at(987654321) == 0


def test_split_examples():
    a, b = IntPoly([1, -1, 1]).split_pos_neg()
    assert a.coeffs == (1, 0, 1) and b.coeffs == (0, 1)
    a, b = IntPoly().split_pos_neg()
    assert a.is_zero() and b.is_zero()
    a, b = IntPoly([5, 0, 0, -2]).split_pos_neg()
    assert a.coeffs == (5,) and b.coeffs == (0, 0, 0, 2)


def test_max_abs_examples():
    assert IntPoly([1, -1, 1]).max_abs_coeff() == 1
    assert IntPoly().max_abs_coeff() == 0
    # frozen from the Moebius-product construction for index 105
    assert cyclo_moebius(105).max_abs_coeff() == 2


def test_self_reciprocal_examples():
    assert IntPoly([0, 1]).is_self_reciprocal_up_to_power()
    assert IntPoly([0, 1, 0, 1]).is_self_reciprocal_up_to_power()
    assert not IntPoly([2, 1, 1]).is_self_reciprocal_up_to_power()
    assert IntPoly().is_self_reciprocal_up_to_power()
    assert IntPoly([4]).is_self_reciprocal_up_to_power()


def test_degree_distinguishes_zero():
    assert IntPoly().degree is None
    assert IntPoly([0, 0]).degree is None
    assert IntPoly([7]).degree == 0
    assert IntPoly([0, 0, 3]).degree == 2


def test_normalization_invariant():
    rng = random.Random(17)
    for _ in range(500):
        p, q = rnd_poly(rng), rnd_poly(rng)
        out = p - q
        assert not out.coeffs or out.coeffs[-1] != 0


def test_eval_is_ring_morphism():
    """Evaluation respects the subtraction on which every reference
    difference cyclo(n) - cyclo(m) in the suite relies."""
    rng = random.Random(3141)
    for _ in range(400):
        p, q = rnd_poly(rng), rnd_poly(rng)
        x = rng.randint(-30, 30)
        assert (p - q).eval_at(x) == p.eval_at(x) - q.eval_at(x)


def test_split_round_trip():
    rng = random.Random(99)
    for _ in range(400):
        d = rnd_poly(rng, maxdeg=12, bound=50)
        a, b = d.split_pos_neg()
        assert a - b == d
        assert all(c > 0 for c in a.coeffs if c)
        assert all(c > 0 for c in b.coeffs if c)
        for ca, cb in zip(a.coeffs, b.coeffs):
            assert not (ca and cb)

