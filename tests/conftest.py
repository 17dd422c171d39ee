import pytest

from cycorder import comparator
from cycorder.cyclotomic import CycloCache, kernel_entry
from cycorder.intpoly import IntPoly


@pytest.fixture(scope="session")
def shared_cache() -> CycloCache:
    """One polynomial cache for the whole session; entries are value-deterministic."""
    return CycloCache()


@pytest.fixture
def fake_pair_cache() -> CycloCache:
    """A cache holding, as kernel digits of their own, t^2 under index
    900001, t^2 + t - 3 under 900002, t^2 + 2t - 4 under 900003 and
    t^2 + t - 2 under 900004.

    No incomparable pair or tie is known among real indices, so the
    detection machinery is exercised on these non-cyclotomic stand-ins:
    900001 and 900002 are incomparable, and 900001, 900004, 900003 are
    ordered with all three equal to 4 at q = 2.  Their
    values at q <= 16 go into the evaluation memo, which `eval_cyclo`
    consults before the product formula (that would give the real
    cyclotomic values of those indices).  `compare` reads each sign off
    the kernel digits first, and its exact fallback, which these pairs'
    ties and near-ties reach, reads this memo.
    """
    cache = CycloCache()
    for n, coeffs in (
        (900001, (0, 0, 1)),
        (900002, (-3, 1, 1)),
        (900003, (-4, 2, 1)),
        (900004, (-2, 1, 1)),
    ):
        cache.kernels[n] = kernel_entry(coeffs)
        poly = IntPoly(coeffs)
        cache.evals.update(((n, q), poly.eval_at(q)) for q in range(2, 17))
    return cache


@pytest.fixture
def stand_in_values(monkeypatch) -> CycloCache:
    """A cache whose evaluation memo gives the indices 10, 8, 5 and 12 of
    totient 4 the values at q <= 16 of t^2, t^2 + t - 3, t^2 + 2t - 4 and
    t^2 + t - 2, with every window of `ramanujan_compare` left undecided,
    so that no outcome enters a table's memo.

    A verification decides each sign from Ramanujan's sums, which no
    stand-in can replace, and meets no incomparable pair or tie among
    real indices.  So the real pairs keep their order (10, 12, 8, 5) and
    their q* (4 for every pair named here), and each sign at q < q* falls
    back to these stand-in values: 10 and 8 are incomparable (-1 at
    q = 2, a tie at q = 3), and 10, 12, 5 are ordered with all three
    equal to 4 at q = 2.
    """
    monkeypatch.setattr(comparator, "_sums_sign", lambda a, b, j0, q: 0)
    cache = CycloCache()
    for n, coeffs in ((10, (0, 0, 1)), (8, (-3, 1, 1)), (5, (-4, 2, 1)), (12, (-2, 1, 1))):
        poly = IntPoly(coeffs)
        cache.evals.update(((n, q), poly.eval_at(q)) for q in range(2, 17))
    return cache
