import pytest

from cycorder.cyclotomic import CycloCache
from cycorder.intpoly import IntPoly


@pytest.fixture(scope="session")
def shared_cache() -> CycloCache:
    """One polynomial cache for the whole session; entries are value-deterministic."""
    return CycloCache()


@pytest.fixture
def fake_pair_cache() -> CycloCache:
    """A cache holding t^2 under index 900001 and t^2 + t - 3 under 900002.

    No incomparable pair is known among real indices, so the detection
    machinery is exercised on these non-cyclotomic stand-ins.  Their
    values at q <= 16 go into the evaluation memo, which `eval_cyclo`
    consults before the product formula (that would give the real
    cyclotomic values of those indices).
    """
    cache = CycloCache()
    for n, coeffs in ((900001, (0, 0, 1)), (900002, (-3, 1, 1))):
        poly = cache.polys[n] = IntPoly(coeffs)
        cache.evals.update(((n, q), poly.eval_at(q)) for q in range(2, 17))
    return cache
