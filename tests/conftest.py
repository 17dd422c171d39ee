import pytest

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
