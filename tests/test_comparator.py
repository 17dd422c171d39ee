import random
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycorder import comparator
from cycorder.arith import divisors, moebius, totient
from cycorder.comparator import (
    Certificate,
    RamanujanSums,
    Verdict,
    _sums_sign,
    _window_sign,
    certificate_from_record,
    compare,
    comparison_record,
    parse_comparison_record,
    ramanujan_compare,
    record_to_json,
)
from cycorder.cyclotomic import CycloCache, cyclo, eval_cyclo, kernel_entry, pair_width
from cycorder.intpoly import IntPoly
from cycorder.oracle import brute_compare
from cycorder.order import build_chain, phi_classes, sort_class


@pytest.fixture(scope="module")
def verdicts300(shared_cache):
    """Verdict and certificate for every ordered pair m < n <= 300."""
    table = {}
    for m in range(1, 301):
        for n in range(m + 1, 301):
            table[(m, n)] = compare(m, n, shared_cache)
    return table


def test_compare_worked_examples(shared_cache):
    v, _ = compare(1, 2, shared_cache)  # the odd double k = 1: mu(1) = 1
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
    """Pairs the totient gap and the odd-double rule decide, and one pair that
    neither decides; each verdict is read from compare, the one routine."""
    # a totient gap: the smaller totient comes first
    v, _ = compare(3, 10, shared_cache)
    assert v is Verdict.LESS

    # odd doubles {k, 2k}: k first iff mu(rad k) = 1
    v, _ = compare(9, 18, shared_cache)
    assert v is Verdict.GREATER
    v, _ = compare(18, 9, shared_cache)
    assert v is Verdict.LESS

    # same totient, not an odd double
    v, _ = compare(5, 8, shared_cache)
    assert v is Verdict.GREATER
    v, _ = compare(8, 5, shared_cache)
    assert v is Verdict.LESS


def test_gap_verdicts_match_the_oracle_to_120(shared_cache):
    """Every ordered pair m, n <= 120 of unequal totient: no exact sign over
    q in [2, 6] goes against the verdict, the certificate lists as many
    ties as the oracle counts, and a tie can only be at q = 2, which is
    evaluated exactly when the totients differ by at most 2."""
    for m in range(1, 121):
        for n in range(m + 1, 121):
            if totient(m) == totient(n):
                continue
            signs = brute_compare(m, n, 6)
            at_2 = brute_compare(m, n, 2)[0] if abs(totient(n) - totient(m)) <= 2 else 0
            # (n, m) has the signs of (m, n) negated
            for a, b, against in ((m, n, -1), (n, m, 1)):
                delta = totient(b) - totient(a)
                v, cert = compare(a, b, shared_cache)
                assert v is (Verdict.LESS if delta > 0 else Verdict.GREATER), (a, b)
                assert signs[against if delta > 0 else -against] == 0, (a, b, signs)
                assert signs[0] == len(cert.tie_witnesses), (a, b, signs)
                assert cert.shortcut_tag == "totient-gap" and cert.threshold_c == 0, (a, b)
                if abs(delta) <= 2:
                    assert cert.checked_q_max == 2, (a, b)
                    assert at_2 == len(cert.tie_witnesses), (a, b)
                else:
                    assert cert.checked_q_max == 1 and not cert.tie_witnesses, (a, b)


def test_gap_worked_examples(shared_cache, eval_calls):
    """phi(2) = 1, phi(6) = 2: Phi_2(2) = Phi_6(2) = 3 ties.  phi(4) = 2,
    phi(5) = 4: q = 2 is evaluated (5 < 31).  phi(3) = 2, phi(7) = 6: the
    gap alone decides every q."""
    v, cert = compare(2, 6, shared_cache)
    assert v is Verdict.LESS
    assert cert == Certificate(0, 1, 2, [2], [], "totient-gap")
    v, cert = compare(6, 2, shared_cache)
    assert v is Verdict.GREATER
    assert cert == Certificate(0, -1, 2, [2], [], "totient-gap")
    assert eval_calls == [(6, 2), (2, 2), (2, 2), (6, 2)]

    eval_calls.clear()
    v, cert = compare(4, 5, shared_cache)
    assert v is Verdict.LESS
    assert cert == Certificate(0, 1, 2, [], [], "totient-gap")
    assert eval_calls == [(5, 2), (4, 2)]

    eval_calls.clear()
    v, cert = compare(3, 7, shared_cache)
    assert v is Verdict.LESS
    assert cert == Certificate(0, 1, 1, [], [], "totient-gap")
    v, cert = compare(7, 3, shared_cache)
    assert v is Verdict.GREATER and cert.leading_sign == -1 and cert.checked_q_max == 1
    assert eval_calls == []


def test_gap_contradicted_at_q2_is_incomparable(fake_pair_cache, eval_calls):
    """Stand-ins of unequal length whose values at q = 2 go against the
    gap: the verdict is INCOMPARABLE, with q = 3 evaluated as the witness
    of the gap's sign.  A stand-in that also goes against it at q = 3,
    where no cyclotomic pair can, raises."""
    cache = fake_pair_cache
    a, b, c = 900001, 900005, 900006  # t^2, t^3 - t^2 - 3, t^3 - t^2 - t - 10
    for n, coeffs in ((b, (-3, 0, -1, 1)), (c, (-10, -1, -1, 1))):
        cache.kernels[n] = kernel_entry(coeffs)
        poly = IntPoly(coeffs)
        cache.evals.update(((n, q), poly.eval_at(q)) for q in range(2, 17))
    # b - a is t^3 - 2t^2 - 3: -3 at q = 2, 6 at q = 3
    v, cert = compare(a, b, cache)
    assert v is Verdict.INCOMPARABLE
    assert cert == Certificate(0, 1, 3, [], [3, 2], "totient-gap")
    assert eval_calls == [(b, 2), (a, 2), (b, 3), (a, 3)]
    rec = parse_comparison_record(record_to_json(comparison_record(a, b, v, cert)))
    assert rec["shortcut_tag"] == "totient-gap"
    assert certificate_from_record(rec) == (a, b, v, cert)

    v, cert = compare(b, a, cache)
    assert v is Verdict.INCOMPARABLE
    assert cert == Certificate(0, -1, 3, [], [2, 3], "totient-gap")

    # c - a is t^3 - 2t^2 - t - 10: negative at q = 2 and at q = 3
    with pytest.raises(ArithmeticError):
        compare(a, c, cache)


def test_gap_pairs_form_no_packed_difference(shared_cache, monkeypatch):
    """No pair of unequal totient reaches `difference_threshold`; a pair of
    equal totient still does."""
    calls = []
    threshold = comparator.difference_threshold

    def counted(*args):
        calls.append(args)
        return threshold(*args)

    monkeypatch.setattr(comparator, "difference_threshold", counted)
    for m in range(1, 121):
        for n in range(1, 121):
            if totient(m) != totient(n):
                compare(m, n, shared_cache)
    assert calls == []
    compare(5, 8, shared_cache)
    assert len(calls) == 1


def test_antisymmetry_and_diagonal(shared_cache, verdicts300):
    for (m, n), (v, _) in verdicts300.items():
        assert v in (Verdict.LESS, Verdict.GREATER), (m, n, v)
        rv, _ = compare(n, m, shared_cache)
        assert rv is v.flipped(), (m, n)
    for m in range(1, 301):
        v, _ = compare(m, m, shared_cache)
        assert v is Verdict.EQUAL


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


def test_coefficient_certificate_invariants(verdicts300):
    for (m, n), (v, cert) in verdicts300.items():
        if totient(m) != totient(n):
            continue
        assert cert.shortcut_tag is None
        assert cert.threshold_c >= 1
        assert cert.leading_sign in (-1, 1)
        assert cert.checked_q_max == max(cert.threshold_c, 1)
        assert not cert.flip_witnesses  # LESS/GREATER: no sign flip exists
        for q in cert.tie_witnesses:
            assert 2 <= q <= cert.checked_q_max


def test_gap_certificate_invariants(verdicts300):
    for (m, n), (v, cert) in verdicts300.items():
        delta = totient(n) - totient(m)
        if not delta:
            continue
        assert cert.shortcut_tag == "totient-gap"
        assert cert.threshold_c == 0
        assert cert.leading_sign == (1 if delta > 0 else -1)
        assert cert.checked_q_max == (2 if abs(delta) <= 2 else 1)
        assert not cert.flip_witnesses
        assert cert.tie_witnesses in ([], [2])
        assert not cert.tie_witnesses or cert.checked_q_max == 2


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
    assert rec["shortcut_tag"] is None and cert2.shortcut_tag is None

    v, cert = compare(2, 6, shared_cache)
    rec = comparison_record(2, 6, v, cert)
    assert record_to_json(rec) == (
        '{"checked_q_max":2,"flip_witnesses":[],"leading_sign":1,"m":2,"n":6,'
        '"shortcut_tag":"totient-gap","threshold_c":0,"tie_witnesses":[2],"verdict":"LESS"}'
    )
    assert certificate_from_record(parse_comparison_record(record_to_json(rec))) == (2, 6, v, cert)

    with pytest.raises(ValueError):
        parse_comparison_record('{"verdict": "LESS"}')


# ---------------------------------------------------------------------------
# the signs at q < stop, shared by every route (`_certify`)
# ---------------------------------------------------------------------------

# stop; the fast test's signs at q = 2, 3, ... (None: no fast test), and the
# exact signs where it reads 0, both in units of the lead; checked_q_max;
# ties; the witnesses against and with the lead's sign (None: no flip)
_CERTIFY_CASES = [
    (2, [], [], 1, [], None),  # nothing below stop
    (5, [1, 1, 1], [], 4, [], None),  # every sign the lead's
    (5, [1, 0, 0], [0, 1], 4, [3], None),  # a tie, and a sign only exact evaluation reads
    (5, [0, 1, -1], [-1], 4, [], (2, 3)),  # against the lead, with it seen below stop
    (4, [-1, 0], [0], 4, [3], (2, 4)),  # against the lead, with it seen only at stop
    (3, None, [-1], 3, [], (2, 3)),  # no fast test, as for the totient gap
]


@pytest.mark.parametrize("lead", (1, -1))
@pytest.mark.parametrize("stop, fast, exact, checked, ties, witnesses", _CERTIFY_CASES)
def test_certify_decides_each_q_below_stop(
    monkeypatch, lead, stop, fast, exact, checked, ties, witnesses
):
    """The verdict, checked_q_max, ties and flips follow from the signs
    below stop and the lead's from stop on; exact evaluation, n's value
    first, runs only where the fast test reads 0."""
    m, n = 11, 13
    reads = [0] * (stop - 2) if fast is None else fast
    undecided = [q for q, sign in enumerate(reads, 2) if not sign]
    differences = dict(zip(undecided, exact))
    calls = []

    def value(k, q, cache):
        calls.append((k, q))
        return lead * differences[q] if k == n else 0

    monkeypatch.setattr(comparator, "eval_cyclo", value)
    sign = None if fast is None else (lambda signs, q: lead * signs[q - 2])
    verdict, got_checked, got_ties, flips = comparator._certify(
        m, n, lead, stop, None, sign, (reads,)
    )

    assert calls == [(k, q) for q in undecided for k in (n, m)]
    assert (got_checked, got_ties) == (checked, ties)
    if witnesses is None:
        assert verdict is (Verdict.LESS if lead > 0 else Verdict.GREATER) and flips == []
    else:
        against, along = witnesses
        assert verdict is Verdict.INCOMPARABLE
        assert flips == ([along, against] if lead > 0 else [against, along])


# ---------------------------------------------------------------------------
# the sign at q <= c from D's top coefficients (`compare` proves the rule)
# ---------------------------------------------------------------------------


def _exact_sign(m, n, q, cache):
    v = eval_cyclo(n, q, cache) - eval_cyclo(m, q, cache)
    return (v > 0) - (v < 0)


@pytest.fixture
def window_log(monkeypatch):
    """Every (q, sign) compare reads off a window, in call order."""
    log = []

    def logged(top, c, q):
        sign = _window_sign(top, c, q)
        log.append((q, sign))
        return sign

    monkeypatch.setattr(comparator, "_window_sign", logged)
    return log


@pytest.fixture
def eval_calls(monkeypatch):
    """Every (n, q) compare evaluates exactly, in call order."""
    calls = []

    def counted(n, q, cache):
        calls.append((n, q))
        return eval_cyclo(n, q, cache)

    monkeypatch.setattr(comparator, "eval_cyclo", counted)
    return calls


@st.composite
def differences(draw):
    """Coefficients of D, t^0 first, nonzero on top, often 0 below it."""
    height = draw(st.integers(2, 12))
    coeff = st.one_of(st.just(0), st.integers(-height, height))
    low = draw(st.lists(coeff, max_size=90))
    return tuple(low) + (draw(st.sampled_from((-1, 1, -height, height))),)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(differences())
@example((-2,) * 10 + (-1,) * 7 + (1,))  # T = 1 at q = 2 in the window of 8; D(2) < 0
@example((-2,) * 20 + (-1,) * 20 + (1,))  # the same for 8 and 16; 32 decides
@example((-2,) * 5 + (-1,) * 70 + (1,))  # no window up to the cap decides
@example((-3, 1))  # t - 3: s = 0, and a tie at q = 3
def test_window_sign_is_exact_or_undecided(coeffs):
    """Whatever the window reads is the sign of D(q); 0 only sends q on to
    exact evaluation."""
    c = max(map(abs, coeffs))
    top = [d + c for d in reversed(coeffs[-comparator._WINDOWS[-1] :])]
    for q in range(2, c + 1):
        value = sum(d * q**i for i, d in enumerate(coeffs))
        assert _window_sign(top, c, q) in (0, (value > 0) - (value < 0)), q


def test_window_signs_match_exact_signs_on_every_pair_to_1000(shared_cache, window_log):
    for cls in phi_classes(1000):
        for i, m in enumerate(cls.members):
            for n in cls.members[i + 1 :]:
                window_log.clear()
                _, cert = compare(m, n, shared_cache)
                assert [q for q, _ in window_log] == list(range(2, cert.threshold_c + 1))
                for q, sign in window_log:
                    assert sign == _exact_sign(m, n, q, shared_cache), (m, n, q)


def test_stand_ins_reach_the_exact_fallback(fake_pair_cache, eval_calls):
    """A tie, and a sign the top coefficients cannot settle, go to exact
    evaluation; the verdicts, ties and flips stay those of the exact
    values."""
    cache = fake_pair_cache
    a, b, c, d = 900001, 900002, 900003, 900004  # t^2, t^2 + t - 3, t^2 + 2t - 4, t^2 + t - 2

    # D = t - 3, c = 3: T = q - 3 is -1 at q = 2 and 0 at q = 3
    v, cert = compare(a, b, cache)
    assert v is Verdict.INCOMPARABLE
    assert (cert.tie_witnesses, sorted(cert.flip_witnesses)) == ([3], [2, 4])
    assert eval_calls == [(b, 2), (a, 2), (b, 3), (a, 3)]

    # D = t - 2, c = 2: the tie at q = 2
    eval_calls.clear()
    for m, n in ((a, d), (d, c)):
        v, cert = compare(m, n, cache)
        assert v is Verdict.LESS and cert.tie_witnesses == [2] and not cert.flip_witnesses
    assert eval_calls == [(d, 2), (a, 2), (c, 2), (d, 2)]

    # D = 2t - 4, c = 4: the tie at q = 2 is evaluated; (q - 1) * |T| = 4
    # decides q = 3 and 6, 12 decide q = 4 off the window
    eval_calls.clear()
    v, cert = compare(a, c, cache)
    assert v is Verdict.LESS and cert.tie_witnesses == [2] and cert.threshold_c == 4
    assert eval_calls == [(c, 2), (a, 2)]


def test_build_chain_2000_evaluates_nothing(eval_calls):
    report = build_chain(2000)
    assert report.pair_count == 1504 and report.max_checked_q >= 2
    assert eval_calls == []


def test_real_tall_pair_is_read_at_width_16(eval_calls):
    """16445 and 26565 (heights 8 and 59) are read off 16-bit digits; the
    window decides all 62 signs, and the record keeps its bytes."""
    cache = CycloCache()
    assert pair_width(cache.packed_entry(16445)[2] + cache.packed_entry(26565)[2]) == 16
    verdict, cert = compare(16445, 26565, cache)
    assert record_to_json(comparison_record(16445, 26565, verdict, cert)) == (
        '{"checked_q_max":63,"flip_witnesses":[],"leading_sign":1,"m":16445,"n":26565,'
        '"shortcut_tag":null,"threshold_c":63,"tie_witnesses":[],"verdict":"LESS"}'
    )
    assert eval_calls == []


# ---------------------------------------------------------------------------
# pairs of equal totient from Ramanujan's sums (`ramanujan_compare` proves
# the rules)
# ---------------------------------------------------------------------------


def _sum_by_definition(n, g):
    """c_n(j) for gcd(n, j) = g: the sum of d * mu(n/d) over d | g."""
    return sum(d * moebius(n // d) for d in divisors(g))


def test_hoelder_form_matches_the_divisor_sum_to_3000():
    """`RamanujanSums` reads c_n(j) off Hoelder's closed form; it equals
    the defining divisor sum for every n <= 3000 and j <= 300."""
    for n in range(1, 3001):
        sums = RamanujanSums(n)
        sums.extend(300)
        by_gcd = {g: _sum_by_definition(n, g) for g in divisors(n)}
        assert sums.terms[:300] == [-by_gcd[gcd(n, j)] for j in range(1, 301)], n
        assert sums.phi == totient(n), n


def test_ramanujan_verdicts_match_compare_to_300(shared_cache):
    """Every ordered pair of distinct indices of equal totient up to 300
    gets compare's verdict, leading sign and ties, and checked_q_max
    max(q* - 1, 1) with q* = floor(2 * j0 / |delta_j0|) + 2, j0 and
    delta_j0 taken from the divisor-sum definition."""
    by_phi = {}
    for x in range(1, 301):
        by_phi.setdefault(totient(x), []).append(x)
    sums = {x: RamanujanSums(x) for x in range(1, 301)}
    pairs = 0
    for members in by_phi.values():
        for m in members:
            for n in members:
                if m == n:
                    continue
                verdict, cert = ramanujan_compare(sums[m], sums[n], shared_cache)
                want, reference = compare(m, n, shared_cache)
                assert verdict is want, (m, n)
                assert cert.leading_sign == reference.leading_sign, (m, n)
                assert cert.tie_witnesses == reference.tie_witnesses, (m, n)
                j0 = 1
                while _sum_by_definition(m, gcd(m, j0)) == _sum_by_definition(n, gcd(n, j0)):
                    j0 += 1
                delta = _sum_by_definition(m, gcd(m, j0)) - _sum_by_definition(n, gcd(n, j0))
                assert cert.leading_sign == (1 if delta > 0 else -1), (m, n)
                assert cert.checked_q_max == max(2 * j0 // abs(delta) + 1, 1), (m, n)
                assert (cert.threshold_c, cert.shortcut_tag) == (0, "ramanujan"), (m, n)
                assert not cert.flip_witnesses, (m, n)
                pairs += 1
    assert pairs == 1468


def test_ramanujan_compare_rejects_what_it_cannot_decide():
    with pytest.raises(ValueError):
        ramanujan_compare(RamanujanSums(5), RamanujanSums(7), CycloCache())  # totients 4, 6
    with pytest.raises(ValueError):
        ramanujan_compare(RamanujanSums(8), RamanujanSums(8), CycloCache())
    # sums of 8 rigged to read as those of 4 agree over a full common
    # period, lcm(4, 8) terms: the search stops there instead of looping
    a, b = RamanujanSums(4), RamanujanSums(8)
    b._table = {g: a._table.get(gcd(4, g), 0) for g in (1, 2, 4, 8)}
    with pytest.raises(ArithmeticError):
        a.first_difference(b)


class _Terms:
    """Stands in for `RamanujanSums` with a fixed list of negated terms."""

    def __init__(self, terms):
        self.terms = terms

    def extend(self, length):
        assert len(self.terms) >= length


@st.composite
def sum_sequences(draw):
    """(j0, [delta_j0, ..., delta_(j0+64)], s): |delta_j| <= 2j, delta_j0
    nonzero, and every delta_j past j0 + 64 equal to 2 * s * j."""
    j0 = draw(st.integers(1, 600))
    deltas = [draw(st.integers(-2 * j, 2 * j)) for j in range(j0, j0 + 65)]
    deltas[0] = deltas[0] or 1
    return j0, tuple(deltas), draw(st.sampled_from((-1, 0, 1)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(sum_sequences())
# delta_j = 2j past j0 = 512, delta_j0 = -1023: the sum is positive at q = 2,
# and the terms up to j0 + 8 read -1.5 / (q - 1), inside the tail bound
@example((512, (-1023,) + tuple(2 * j for j in range(513, 577)), 1))
@example((1, (1,) + tuple(-2 * j for j in range(2, 66)), -1))
@example((3, (-2,) + (0,) * 64, 0))
def test_sums_sign_is_exact_or_undecided(sequence):
    """Whatever a window reads is the sign of the whole infinite sum;
    0 only sends q on to exact evaluation."""
    j0, deltas, s = sequence
    top = j0 + 64
    a, b = _Terms([0] * top), _Terms([0] * (j0 - 1) + list(deltas))
    lam = lcm(*range(j0, top + 1))
    for q in range(2, 9):
        total = 0
        for j, d in enumerate(deltas, j0):
            total = total * q + d * (lam // j)
        # the sum is (total / lam + 2 * s / (q - 1)) * q^(-top)
        exact = (q - 1) * total + 2 * s * lam
        assert _sums_sign(a, b, j0, q) in (0, (exact > 0) - (exact < 0)), q


def test_sums_signs_match_exact_signs_on_adjacent_pairs_to_5000(monkeypatch, eval_calls):
    """Every sign the verify path reads at q < q*, for each adjacent pair
    of the classes up to 5000, is the sign of the exact difference, and
    none is left to the fallback."""
    log = []

    def logged(a, b, j0, q):
        sign = _sums_sign(a, b, j0, q)
        log.append((a.n, b.n, q, sign))
        return sign

    monkeypatch.setattr(comparator, "_sums_sign", logged)
    checked = []
    for cls in phi_classes(5000):
        sort_class(cls, CycloCache(), cert_sink=lambda m, n, v, cert: checked.append((m, n, cert)))
    assert len(checked) == 3855 and eval_calls == []
    signs = {}
    for m, n, q, sign in log:
        signs.setdefault((m, n), []).append((q, sign))
    cache = CycloCache()
    for m, n, cert in checked:
        read = signs.pop((m, n), [])
        assert [q for q, _ in read] == list(range(2, cert.checked_q_max + 1)), (m, n)
        for q, sign in read:
            assert sign == _exact_sign(m, n, q, cache), (m, n, q)
    assert not signs
