import random

import pytest

from cycorder.arith import totient
from cycorder.comparator import (
    SHORTCUT_ODD_DOUBLE,
    SHORTCUT_PHI_GAP,
    Certificate,
    Verdict,
    certificate_from_record,
    compare,
    compare_fast,
    comparison_record,
    parse_comparison_record,
    record_to_json,
)
from cycorder.cyclotomic import cyclo, eval_cyclo


@pytest.fixture(scope="module")
def verdicts300(shared_cache):
    """Verdict and certificate for every ordered pair m < n <= 300."""
    table = {}
    for m in range(1, 301):
        for n in range(m + 1, 301):
            table[(m, n)] = compare(m, n, shared_cache)
    return table


def test_compare_worked_examples(shared_cache):
    v, _ = compare(1, 2, shared_cache)
    assert v is Verdict.LESS

    v, cert = compare(6, 4, shared_cache)
    assert v is Verdict.LESS
    assert cert.threshold_c == 1
    assert cert.checked_q_max == 1  # finite step empty
    assert cert.leading_sign == 1
    pos, neg = (cyclo(4, shared_cache) - cyclo(6, shared_cache)).split_pos_neg()
    assert pos.coeffs == (0, 1) and neg.is_zero()

    v, _ = compare(7, 7, shared_cache)
    assert v is Verdict.EQUAL

    v, cert = compare(4, 3, shared_cache)
    assert v is Verdict.LESS and cert.threshold_c == 1 and cert.leading_sign == 1

    with pytest.raises(ValueError):
        compare(0, 1, shared_cache)


def test_compare_fast_worked_examples(shared_cache):
    v, tag = compare_fast(3, 10, shared_cache)
    assert v is Verdict.LESS and tag == SHORTCUT_PHI_GAP

    v, tag = compare_fast(9, 18, shared_cache)
    assert v is Verdict.GREATER and tag == SHORTCUT_ODD_DOUBLE
    v, tag = compare_fast(18, 9, shared_cache)
    assert v is Verdict.LESS and tag == SHORTCUT_ODD_DOUBLE

    # same totient, not an odd-double pair: falls through to the full procedure
    v, evidence = compare_fast(5, 8, shared_cache)
    assert v is Verdict.GREATER and isinstance(evidence, Certificate)
    v, evidence = compare_fast(8, 5, shared_cache)
    assert v is Verdict.LESS

    v, tag = compare_fast(1, 2, shared_cache)
    assert v is Verdict.LESS and tag == SHORTCUT_ODD_DOUBLE


def test_mixed_degree_certificate_matches_polynomial_difference(shared_cache):
    """Operands of unequal length, in both orientations: the certificate's
    threshold, leading sign and checked range are those of the IntPoly
    difference."""
    for m in range(1, 121):
        for n in range(1, 121):
            if totient(m) == totient(n):
                continue
            d = cyclo(n, shared_cache) - cyclo(m, shared_cache)
            c = d.max_abs_coeff()
            _, cert = compare(m, n, shared_cache)
            assert cert.threshold_c == c, (m, n)
            assert cert.leading_sign == (1 if d.coeffs[-1] > 0 else -1), (m, n)
            assert cert.checked_q_max == max(c, 1), (m, n)


def test_antisymmetry_and_diagonal(shared_cache, verdicts300):
    for (m, n), (v, _) in verdicts300.items():
        assert v in (Verdict.LESS, Verdict.GREATER), (m, n, v)
        rv, _ = compare(n, m, shared_cache)
        assert rv is v.flipped(), (m, n)
    for m in range(1, 301):
        v, _ = compare(m, m, shared_cache)
        assert v is Verdict.EQUAL


def test_shortcut_soundness_exhaustive(shared_cache, verdicts300):
    for (m, n), (v, _) in verdicts300.items():
        vf, _ = compare_fast(m, n, shared_cache)
        assert vf is v, (m, n)
        vr, _ = compare_fast(n, m, shared_cache)
        assert vr is v.flipped(), (n, m)


def test_shortcut_soundness_random(shared_cache):
    rng = random.Random(8844)
    for _ in range(1000):
        m = rng.randint(1, 2000)
        n = rng.randint(1, 2000)
        vf, _ = compare_fast(m, n, shared_cache)
        vc, _ = compare(m, n, shared_cache)
        assert vf is vc, (m, n)


def test_asymptotic_step_soundness(shared_cache):
    """Past the coefficient threshold the difference takes its leading sign."""
    rng = random.Random(5280)
    by_phi = {}
    for x in range(1, 501):
        by_phi.setdefault(totient(x), []).append(x)
    classes = [v for v in by_phi.values() if len(v) >= 2]
    for _ in range(100):
        cls = rng.choice(classes)
        m, n = rng.sample(cls, 2)
        d = cyclo(n, shared_cache) - cyclo(m, shared_cache)
        c = d.max_abs_coeff()
        lead = 1 if d.coeffs[-1] > 0 else -1
        for q in (c + 1, c + 2, c + 10):
            val = d.eval_at(q)
            assert val != 0 and (1 if val > 0 else -1) == lead, (m, n, q)


def test_sampled_evaluation_consistency(shared_cache, verdicts300):
    for m in range(1, 201):
        for n in range(m + 1, 201):
            v, _ = verdicts300[(m, n)]
            allowed = {0, 1} if v is Verdict.LESS else {0, -1}
            for q in range(2, 51):
                d = eval_cyclo(n, q, shared_cache) - eval_cyclo(m, q, shared_cache)
                s = 0 if d == 0 else (1 if d > 0 else -1)
                assert s in allowed, (m, n, q, v)


def test_equal_totient_difference_structure(shared_cache):
    """Same-totient differences are a power of t times a palindrome."""
    by_phi = {}
    for x in range(1, 301):
        by_phi.setdefault(totient(x), []).append(x)
    for members in by_phi.values():
        for i, m in enumerate(members):
            for n in members[i + 1 :]:
                d = cyclo(m, shared_cache) - cyclo(n, shared_cache)
                assert d.is_self_reciprocal_up_to_power(), (m, n)


def test_transitivity_to_100(verdicts300):
    less = [[False] * 101 for _ in range(101)]
    for m in range(1, 101):
        for n in range(m + 1, 101):
            v, _ = verdicts300[(m, n)]
            if v is Verdict.LESS:
                less[m][n] = True
            else:
                less[n][m] = True
    for a in range(1, 101):
        la = less[a]
        for b in range(1, 101):
            if la[b]:
                lb = less[b]
                for c in range(1, 101):
                    if lb[c]:
                        assert la[c], (a, b, c)


def test_certificate_invariants(verdicts300):
    for (m, n), (v, cert) in verdicts300.items():
        assert cert.threshold_c >= 1
        assert cert.leading_sign in (-1, 1)
        assert cert.checked_q_max == max(cert.threshold_c, 1)
        assert not cert.flip_witnesses  # LESS/GREATER: no sign flip exists
        for q in cert.tie_witnesses:
            assert 2 <= q <= cert.checked_q_max


def test_incomparable_verdict_synthetic(fake_pair_cache):
    """No incomparable pair is known among real indices, so the detection
    machinery is exercised on polynomials injected under fake indices."""
    cache = fake_pair_cache
    a, b = 900001, 900002  # t^2 and t^2 + t - 3
    # difference (b - a) is t - 3: negative at q=2, tie at q=3, positive sign
    # only past the threshold c=3, so the positive witness is q = c+1 = 4
    v, cert = compare(a, b, cache)
    assert v is Verdict.INCOMPARABLE
    assert cert.threshold_c == 3
    assert cert.tie_witnesses == [3]
    assert sorted(cert.flip_witnesses) == [2, 4]
    assert cert.checked_q_max == 4  # extended to expose the asymptotic side
    assert all(2 <= q <= cert.checked_q_max for q in cert.flip_witnesses)

    rec = comparison_record(a, b, v, cert)
    parsed = parse_comparison_record(record_to_json(rec))
    assert parsed["verdict"] == "INCOMPARABLE"
    assert certificate_from_record(parsed)[2] is Verdict.INCOMPARABLE

    # mirrored orientation: negative leading sign, flip on the finite side
    v2, cert2 = compare(b, a, cache)
    assert v2 is Verdict.INCOMPARABLE
    assert cert2.leading_sign == -1
    assert sorted(cert2.flip_witnesses) == [2, 4]


def test_tall_pair_is_read_at_a_wider_packing():
    """Heights summing to 64 or more (no real index below 26565 has them)
    are read off values packed afresh at 16 bits; an entry of height 70
    keeps no 8-bit packed value at all."""
    from cycorder.cyclotomic import CycloCache, kernel_entry
    from cycorder.intpoly import IntPoly

    cache = CycloCache()
    a, b = 900001, 900002
    for n, coeffs in ((a, (3, -70, 0, 1)), (b, (-30, 5, 1, 1))):
        cache.kernels[n] = kernel_entry(coeffs)
        poly = IntPoly(coeffs)
        cache.evals.update(((n, q), poly.eval_at(q)) for q in range(2, 100))
    # difference (b - a) is t^2 + 75t - 33, positive for every q >= 1
    v, cert = compare(a, b, cache)
    assert cache.packed[a] == (None, 4, 70) and cache.packed[b][2] == 30
    assert v is Verdict.LESS
    assert (cert.threshold_c, cert.leading_sign, cert.checked_q_max) == (75, 1, 75)
    assert not cert.tie_witnesses and not cert.flip_witnesses
    v, cert = compare(b, a, cache)
    assert v is Verdict.GREATER and (cert.threshold_c, cert.leading_sign) == (75, -1)


def test_record_round_trip(shared_cache):
    v, cert = compare(6, 4, shared_cache)
    rec = comparison_record(6, 4, v, cert)
    parsed = parse_comparison_record(record_to_json(rec))
    assert parsed == rec
    m, n, v2, cert2 = certificate_from_record(parsed)
    assert (m, n, v2) == (6, 4, v)
    assert cert2.threshold_c == cert.threshold_c
    assert cert2.leading_sign == cert.leading_sign
    assert cert2.checked_q_max == cert.checked_q_max

    v, tag = compare_fast(3, 10, shared_cache)
    rec = comparison_record(3, 10, v, tag)
    parsed = parse_comparison_record(record_to_json(rec))
    assert parsed == rec
    m, n, v2, tag2 = certificate_from_record(parsed)
    assert (m, n, v2, tag2) == (3, 10, v, SHORTCUT_PHI_GAP)

    with pytest.raises(ValueError):
        parse_comparison_record('{"verdict": "LESS"}')
