import hashlib
import json
import random
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycorder import comparator
from cycorder.arith import divisors, factorize, moebius, totient
from cycorder.comparator import (
    _LANE_BIAS,
    _LAST_ROW_J0,
    _SUMS_BLOCK,
    _WINDOW,
    Certificate,
    RamanujanSums,
    SumsTable,
    Verdict,
    _certify,
    _hoelder_table,
    _row_key,
    _window_sign,
    _window_sum_sign,
    certificate_from_record,
    compare,
    comparison_line,
    comparison_record,
    ramanujan_compare,
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
    rec = json.loads(comparison_line(a, b, v, cert))
    assert rec == comparison_record(a, b, v, cert) and rec["shortcut_tag"] == "totient-gap"
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
    assert comparison_line(a, b, v, cert) == _dumped(rec)
    parsed = json.loads(comparison_line(a, b, v, cert))
    assert parsed == rec and parsed["verdict"] == "INCOMPARABLE"
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


def _dumped(rec):
    """The bytes `comparison_line` must write: the general encoder's."""
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def test_record_round_trip(shared_cache):
    v, cert = compare(6, 4, shared_cache)
    rec = comparison_record(6, 4, v, cert)
    assert comparison_line(6, 4, v, cert) == _dumped(rec)
    parsed = json.loads(comparison_line(6, 4, v, cert))
    assert parsed == rec
    m, n, v2, cert2 = certificate_from_record(parsed)
    assert (m, n, v2) == (6, 4, v)
    assert cert2.threshold_c == cert.threshold_c
    assert cert2.leading_sign == cert.leading_sign
    assert cert2.checked_q_max == cert.checked_q_max
    assert rec["shortcut_tag"] is None and cert2.shortcut_tag is None

    v, cert = compare(2, 6, shared_cache)
    rec = comparison_record(2, 6, v, cert)
    assert comparison_line(2, 6, v, cert) == _dumped(rec) == (
        '{"checked_q_max":2,"flip_witnesses":[],"leading_sign":1,"m":2,"n":6,'
        '"shortcut_tag":"totient-gap","threshold_c":0,"tie_witnesses":[2],"verdict":"LESS"}'
    )
    assert certificate_from_record(json.loads(comparison_line(2, 6, v, cert))) == (2, 6, v, cert)


@pytest.mark.parametrize("verdict", list(Verdict))
@pytest.mark.parametrize(
    "tag",
    [None, "totient-gap", "ramanujan", 'a "quoted" t\u00e4g', "100% %d"],
    ids=["untagged", "totient-gap", "ramanujan", "escaped", "percent"],
)
def test_comparison_line_is_the_general_encoders_line(verdict, tag):
    """`comparison_line`, the one writer of the format, writes for every
    verdict and tag the bytes json.dumps gives the record, with empty and
    non-empty witness lists."""
    for ties, flips in (([], []), ([2], [4, 2]), ([2, 3, 17], []), ([], [3, 10])):
        cert = Certificate(63, -1, 64, ties, flips, tag)
        rec = comparison_record(16445, 26565, verdict, cert)
        line = comparison_line(16445, 26565, verdict, cert)
        assert line == _dumped(rec), (ties, flips)
        parsed = certificate_from_record(json.loads(line))
        assert parsed == (16445, 26565, verdict, cert)


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
    sign = None if fast is None else (lambda q: lead * reads[q - 2])
    verdict, got_checked, got_ties, flips = comparator._certify(m, n, lead, stop, None, sign)

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


# D(2) < 0, but the top 8 coefficients read T = 1 at q = 2, with
# (q - 1) * |T| < c = 2: the window leaves q = 2 to exact evaluation
# (a window of 16, or of 32, would decide it)
_WIDER_WINDOWS_DECIDE = ((-2,) * 10 + (-1,) * 7 + (1,), (-2,) * 20 + (-1,) * 20 + (1,))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(differences())
@example(_WIDER_WINDOWS_DECIDE[0])
@example(_WIDER_WINDOWS_DECIDE[1])
@example((-2,) * 5 + (-1,) * 70 + (1,))  # no window up to 64 terms would decide
@example((-3, 1))  # t - 3: s = 0, and a tie at q = 3
def test_window_sign_is_exact_or_undecided(coeffs):
    """Whatever the window of 8 top coefficients reads is the sign of
    D(q); 0 only sends q on to exact evaluation."""
    c = max(map(abs, coeffs))
    top = [d + c for d in reversed(coeffs[-_WINDOW:])]
    for q in range(2, c + 1):
        value = sum(d * q**i for i, d in enumerate(coeffs))
        assert _window_sign(top, c, q) in (0, (value > 0) - (value < 0)), q
    if coeffs in _WIDER_WINDOWS_DECIDE:
        assert _window_sign(top, c, 2) == 0


def test_window_signs_match_exact_signs_on_every_pair_to_1000(shared_cache, window_log, eval_calls):
    """Every pair of equal totient up to 1000 reads each q in [2, c] off
    its window once, each sign is nonzero and exact, and `compare`
    evaluates nothing."""
    for cls in phi_classes(1000):
        for i, m in enumerate(cls.members):
            for n in cls.members[i + 1 :]:
                window_log.clear()
                _, cert = compare(m, n, shared_cache)
                assert [q for q, _ in window_log] == list(range(2, cert.threshold_c + 1))
                for q, sign in window_log:
                    assert sign == _exact_sign(m, n, q, shared_cache), (m, n, q)
    assert eval_calls == []


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
    assert comparison_line(16445, 26565, verdict, cert) == (
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


def _terms(sums, length):
    """-c_n(1), ..., -c_n(length) as `sums` reads them, one term at a time."""
    return [sums.term(j) for j in range(1, length + 1)]


def test_hoelder_form_matches_the_divisor_sum_to_3000():
    """`RamanujanSums` reads its first 64 terms off the run's sieved rows
    and the rest off Hoelder's closed form; they equal the defining
    divisor sum for every n <= 3000 and j <= 300."""
    table = SumsTable(3000)
    for n in range(1, 3001):
        sums = RamanujanSums(n, table, totient(n))
        by_gcd = {g: _sum_by_definition(n, g) for g in divisors(n)}
        assert _terms(sums, 300) == [-by_gcd[gcd(n, j)] for j in range(1, 301)], n
        assert sums.phi == totient(n), n


def _hoelder_terms(n, length):
    """-c_n(1), ..., -c_n(length) by Hoelder's closed form alone, with n's
    primes from trial division rather than a sieve."""
    table = _hoelder_table(n, totient(n), [p for p, _ in factorize(n)])
    return [table.get(gcd(n, j), 0) for j in range(1, length + 1)]


def _row(table, n):
    """-c_n(1), ..., -c_n(64): n's row of lanes, less the bias."""
    return [lane - _LANE_BIAS for lane in table.lanes[n * _SUMS_BLOCK : (n + 1) * _SUMS_BLOCK]]


def test_sieved_rows_and_their_extension_match_hoelder_form_to_3000():
    """Each sequence reads its first 64 terms off its row, Hoelder's first
    64 terms, with no Hoelder table; the first read past the row, here up
    to 128 terms, builds one and continues the sequence where the row
    ends."""
    table = SumsTable(3000)
    assert _row(table, 0) == [0] * _SUMS_BLOCK
    for n in range(1, 3001):
        sums = RamanujanSums(n, table, totient(n))
        assert _terms(sums, _SUMS_BLOCK) == _row(table, n) == _hoelder_terms(n, _SUMS_BLOCK), n
        assert sums._table is None, n
        assert _terms(sums, 2 * _SUMS_BLOCK) == _hoelder_terms(n, 2 * _SUMS_BLOCK), n
        assert sums._table is not None, n
    for limit in range(1, 12):  # the tables whose primes past limit / 2 start at 2
        table = SumsTable(limit)
        assert [_row(table, n) for n in range(1, limit + 1)] == [
            _hoelder_terms(n, _SUMS_BLOCK) for n in range(1, limit + 1)
        ], limit


def test_every_stored_term_fits_a_signed_byte():
    """The rows are bytes, 64 an index, each lane 64 - c_n(j) in [0, 128],
    both ends reached, and every term keeps |c_n(j)| <= gcd(n, j) <= 64,
    the bound the sieve's lanes and the class sort's row keys rely on."""
    limit = 20000
    table = SumsTable(limit)
    assert type(table.lanes) is bytes and len(table.lanes) == _SUMS_BLOCK * (limit + 1)
    assert (min(table.lanes), max(table.lanes)) == (_LANE_BIAS - _SUMS_BLOCK, _LANE_BIAS + _SUMS_BLOCK)
    for n in range(1, limit + 1):
        row = _row(table, n)
        assert all(abs(t) <= gcd(n, j) for j, t in enumerate(row, 1)), n


def test_sieved_row_of_an_index_past_the_small_primes():
    """100003 is a prime above 10^5, past is_prime's lookup in the
    sieved primes: mu = -1 and c_p(j) = -1 for j < p, so its row reads 1
    throughout; its primes, and those of every other index, come from
    the table's own sieve.  The table sums its rows in blocks of 65536
    indices, and the rows on both sides of the first block's end are
    Hoelder's too."""
    n = 100003
    assert n > 10**5 and factorize(n) == [(n, 1)]
    table = SumsTable(n)
    assert _row(table, n) == _hoelder_terms(n, _SUMS_BLOCK) == [1] * _SUMS_BLOCK
    assert comparator._ROWS_PER_BLOCK == 65536
    for m in (n - 1, *range(65536 - 70, 65536 + 70)):
        assert _row(table, m) == _hoelder_terms(m, _SUMS_BLOCK), m
    sums = RamanujanSums(n, table, totient(n))
    assert sums.phi == n - 1 and _terms(sums, 2 * _SUMS_BLOCK) == _hoelder_terms(n, 2 * _SUMS_BLOCK)


def test_a_wrong_totient_raises_when_the_hoelder_table_is_built():
    """`RamanujanSums` takes phi(n) from its caller and factors n only to
    build its Hoelder table; phi(n) is formed again there from n's primes,
    and a wrong value raises instead of giving wrong terms past the row."""
    table = SumsTable(100)
    for n, wrong in ((90, 25), (97, 97), (64, 16), (1, 2)):
        right = RamanujanSums(n, table, totient(n))
        sums = RamanujanSums(n, table, wrong)
        assert _terms(sums, _SUMS_BLOCK) == _terms(right, _SUMS_BLOCK)  # the row reads no phi
        with pytest.raises(ValueError, match=f"phi\\({n}\\) is {totient(n)}, not {wrong}"):
            sums.term(_SUMS_BLOCK + 1)
        assert _terms(right, _SUMS_BLOCK + 1) == _hoelder_terms(n, _SUMS_BLOCK + 1), n


def test_the_divisor_scan_reads_each_side_at_its_own_gcd():
    """Past equal rows, `first_difference` reads c_n(d) at gcd(n, d).  On
    genuine sums, reading it at d itself, 0 when n does not divide d,
    would give the same j0: if c_m(d) = c_n(d) != 0 at such a divisor d of
    lcm(m, n), then at d / p, for a prime p that divides d more often than
    n, c_n is unchanged and c_m is not, so the sums part before d.  So
    the sums are rigged: m's row made n's and m's terms past it 0.  Then
    j0 is the least divisor d > 64 of lcm(m, n) with c_n(d) != 0, here 80
    for (80, 96) and 72 for (96, 90), neither dividing n."""
    table = SumsTable(96)
    for m, n, j0 in ((80, 96, 80), (96, 90, 72)):
        a, b = RamanujanSums(m, table, totient(m)), RamanujanSums(n, table, totient(n))
        a.row, a._table = b.row, {}
        assert n % j0 and lcm(m, n) % j0 == 0
        assert a.first_difference(b) == j0 == min(
            d for d in divisors(lcm(m, n)) if d > _SUMS_BLOCK and _sum_by_definition(n, gcd(n, d))
        ), (m, n)


def test_ramanujan_verdicts_match_compare_to_300(shared_cache):
    """Every ordered pair of distinct indices of equal totient up to 300
    gets compare's verdict, leading sign and ties, and checked_q_max
    max(q* - 1, 1) with q* = floor(2 * j0 / |delta_j0|) + 2, j0 and
    delta_j0 taken from the divisor-sum definition, where
    `first_difference` finds the same j0, through one memo of outcomes
    shared by all the pairs; each line template completes to the pair's
    `comparison_line`."""
    by_phi = {}
    for x in range(1, 301):
        by_phi.setdefault(totient(x), []).append(x)
    table = SumsTable(300)
    sums = {x: RamanujanSums(x, table, totient(x)) for x in range(1, 301)}
    pairs, outcomes = 0, {}
    for members in by_phi.values():
        for m in members:
            for n in members:
                if m == n:
                    continue
                j0 = 1
                while _sum_by_definition(m, gcd(m, j0)) == _sum_by_definition(n, gcd(n, j0)):
                    j0 += 1
                delta = _sum_by_definition(m, gcd(m, j0)) - _sum_by_definition(n, gcd(n, j0))
                assert sums[m].first_difference(sums[n]) == j0, (m, n)
                verdict, cert, template = ramanujan_compare(sums[m], sums[n], j0, outcomes)
                assert template % (m, n) == comparison_line(m, n, verdict, cert), (m, n)
                want, reference = compare(m, n, shared_cache)
                assert verdict is want, (m, n)
                assert cert.leading_sign == reference.leading_sign, (m, n)
                assert cert.tie_witnesses == reference.tie_witnesses, (m, n)
                assert cert.leading_sign == (1 if delta > 0 else -1), (m, n)
                assert cert.checked_q_max == max(2 * j0 // abs(delta) + 1, 1), (m, n)
                assert (cert.threshold_c, cert.shortcut_tag) == (0, "ramanujan"), (m, n)
                assert not cert.flip_witnesses, (m, n)
                pairs += 1
    assert pairs == 1468


def test_ramanujan_compare_rejects_what_it_cannot_decide():
    table = SumsTable(8)
    with pytest.raises(ValueError):  # totients 4 and 6
        ramanujan_compare(RamanujanSums(5, table, 4), RamanujanSums(7, table, 6), 1, {})
    with pytest.raises(ValueError):
        RamanujanSums(8, table, 4).first_difference(RamanujanSums(8, table, 4))
    # sums of 80 and 96 rigged to one row and to 0 past it agree at every
    # divisor of lcm(80, 96) = 480 above the rows: the scan stops at 480
    # instead of looping
    table = SumsTable(96)
    a, b = RamanujanSums(80, table, 32), RamanujanSums(96, table, 32)
    a._table, b._table, b.row = {}, {}, a.row
    with pytest.raises(ArithmeticError, match="80 and 96 have equal sums"):
        a.first_difference(b)


def _rigged_row(*terms):
    """A row whose terms are `terms`, then 0 up to lane 64."""
    return bytes(_LANE_BIAS + t for t in terms + (0,) * (_SUMS_BLOCK - len(terms)))


def test_only_an_outcome_the_first_window_decides_is_memoised():
    """Rows rigged to delta_1 = 1, so q* = 4: with delta_2 = -8 the first
    window reads a sign against the lead at q = 2 and q = 3, and the
    INCOMPARABLE outcome it decides alone is not stored; with delta_2 = 0
    the LESS outcome is stored under its key and handed, the same
    objects, to the next pair with that key."""
    table = SumsTable(12)
    for second, want in ((-8, Verdict.INCOMPARABLE), (0, Verdict.LESS)):
        a, b = RamanujanSums(5, table, 4), RamanujanSums(8, table, 4)
        a.row, b.row = _rigged_row(), _rigged_row(1, second)
        outcomes = {}
        outcome = ramanujan_compare(a, b, 1, outcomes)
        assert outcome[0] is want and outcome[2] % (5, 8) == comparison_line(5, 8, *outcome[:2])
        if want is Verdict.INCOMPARABLE:
            assert outcome[1].flip_witnesses == [4, 2] and not outcomes
        else:
            assert outcomes == {(1, 1, second) + (0,) * 7: outcome}
            c, d = RamanujanSums(10, table, 4), RamanujanSums(12, table, 4)
            c.row, d.row = a.row, b.row
            assert all(x is y for x, y in zip(ramanujan_compare(c, d, 1, outcomes), outcome))


def test_an_outcome_with_a_sign_the_window_leaves_at_0_is_not_memoised(eval_calls):
    """Rows rigged to delta_1 = 1 and delta_2 = -4, so q* = 4: the window
    sums to 0 at q = 2 and reads the lead's sign at q = 3.  Only q = 2 is
    evaluated exactly, n's value first; Phi_5(2) = 31 > Phi_8(2) = 17
    gives the lead's sign there too, and the LESS outcome, which rests on
    an exact value, is not stored."""
    table = SumsTable(8)
    a, b = RamanujanSums(8, table, 4), RamanujanSums(5, table, 4)
    a.row, b.row = _rigged_row(), _rigged_row(1, -4)
    deltas = (1, -4) + (0,) * (_WINDOW - 1)
    assert [_window_sum_sign(deltas, 1, q) for q in (2, 3)] == [0, 1]
    outcomes = {}
    verdict, cert, _ = ramanujan_compare(a, b, 1, outcomes)
    assert verdict is Verdict.LESS and (cert.checked_q_max, cert.tie_witnesses) == (3, [])
    assert eval_calls == [(5, 2), (8, 2)]
    assert not outcomes


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
    """Whatever the window j0..j0 + 8 reads is the sign of the whole
    infinite sum; 0 only sends q on to exact evaluation.  The memo entry
    each q reads holds the weights (Lambda / j) * q^(J - j) for
    j0 <= j <= J = j0 + 8 and the bound 2 * Lambda, with Lambda a common
    multiple of j0..J, and the window decides exactly when
    (q - 1) * |A| > 2 * Lambda for their dot product A with the deltas."""
    j0, deltas, s = sequence
    top, J = j0 + 64, j0 + _WINDOW
    lam = lcm(*range(j0, top + 1))
    for q in range(2, 9):
        total = 0
        for j, d in enumerate(deltas, j0):
            total = total * q + d * (lam // j)
        # the sum is (total / lam + 2 * s / (q - 1)) * q^(-top)
        exact = (q - 1) * total + 2 * s * lam
        sign = _window_sum_sign(deltas[: _WINDOW + 1], j0, q)
        assert sign in (0, (exact > 0) - (exact < 0)), q
        weights, bound = comparator._window_weights(j0, q)
        lam_w, odd = divmod(bound, 2)
        assert not odd and all(lam_w % j == 0 for j in range(j0, J + 1)), q
        assert weights == tuple(lam_w // j * q ** (J - j) for j in range(j0, J + 1)), q
        a_w = sum(d * w for d, w in zip(deltas, weights))
        assert sign == ((1 if a_w > 0 else -1) if (q - 1) * abs(a_w) > bound else 0), q


def _lane(j):
    """A lane j of a row, 64 - c_n(j) with |c_n(j)| <= j: [0, 128] at j = 64."""
    return st.integers(_LANE_BIAS - j, _LANE_BIAS + j)


@st.composite
def row_pairs(draw):
    """Two distinct rows of 64 lanes, each lane j in [64 - j, 64 + j], as
    bytes, the lesser first, equal before a drawn first difference j0 and
    free after it."""
    lanes = st.tuples(*map(_lane, range(1, _SUMS_BLOCK + 1)))
    a, tail = list(draw(lanes)), draw(lanes)
    j0 = draw(st.integers(1, _SUMS_BLOCK))
    lane = draw(_lane(j0).filter(lambda v: v != a[j0 - 1]))
    b = a[: j0 - 1] + [lane] + list(tail[j0:])
    return tuple(sorted((bytes(a), bytes(b))))


def _lanes_from(j, sign):
    """The lanes 64 + sign * k for k = j..64, each at an end of its range."""
    return [_LANE_BIAS + sign * k for k in range(j, _SUMS_BLOCK + 1)]


def _balanced_digits(w, count):
    """The `count` base-256 digits in [-128, 128) of w, top first."""
    digits = []
    for _ in range(count):
        digit = (w + 128) % 256 - 128
        digits.append(digit)
        w = (w - digit) // 256
    assert w == 0
    return digits[::-1]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(row_pairs())
# delta_1 = 1 with every delta past the window at -2j, the most negative tail,
# which a shift of the difference, (b - a) >> s, reads one low; j0 = 55, whose
# window ends at lane 63 with deltas down to -126 and drops delta_64 = -128;
# and j0 = 56, whose window ends at lane 64 with delta_64 = 128, a balanced
# digit the key cannot give back, so j0 = 56 is past the row route
@example((bytes([64] * 9 + _lanes_from(10, 1)), bytes([65] + [64] * 8 + _lanes_from(10, -1))))
@example((bytes([64] * 55 + _lanes_from(56, 1)), bytes([64] * 54 + [65] + _lanes_from(56, -1))))
@example((bytes([64] * 63 + [0]), bytes([64] * 55 + [65] + [64] * 7 + [128])))
def test_row_key_reads_the_first_difference_and_the_window(pair):
    """For two distinct rows, as big-endian integers, the bit length of
    their XOR gives the first lane where they differ; for j0 <= 55 the
    difference of their two shifts is the window delta_j0..delta_j0+8 as
    a base-256 number, exactly, and its balanced digits give the window
    back, so two different windows never share a key."""
    a, b = pair
    j0, w = _row_key(int.from_bytes(a, "big"), int.from_bytes(b, "big"))
    assert j0 == next(j for j, (x, y) in enumerate(zip(a, b), 1) if x != y)
    if j0 <= _LAST_ROW_J0:
        deltas = [b[j] - a[j] for j in range(j0 - 1, j0 + _WINDOW)]
        assert w == sum(d * 256 ** (j0 + _WINDOW - j) for j, d in enumerate(deltas, j0))
        assert _balanced_digits(w, _WINDOW + 1) == deltas
    assert _row_key(int.from_bytes(a, "big"), int.from_bytes(a, "big"))[0] == _SUMS_BLOCK + 1


def test_two_windows_ending_at_lane_64_share_a_row_key():
    """Why the row route ends at j0 = 55.  Lane 64 reaches both ends of
    [0, 128] (c_384(64) = 64, c_128(64) = -64), so delta_64 can be 128
    or -128, and two distinct windows of j0 = 56, which end at J = 64,
    one with the deltas 0, 128 at J - 1 and J and one with 1, -128, have
    one W: 128 = 256 - 128.  The key (j0, W) would hand the first's
    outcome to the second, so j0 = 56 is past _LAST_ROW_J0."""
    table = SumsTable(384)
    assert (table.lanes[384 * _SUMS_BLOCK + 63], table.lanes[128 * _SUMS_BLOCK + 63]) == (0, 128)
    first = (bytes([64] * 63 + [0]), bytes([64] * 55 + [65] + [64] * 7 + [128]))
    second = (bytes([64] * 63 + [128]), bytes([64] * 55 + [65] + [64] * 6 + [65, 0]))
    windows = [[y - x for x, y in zip(a[55:], b[55:])] for a, b in (first, second)]
    assert windows == [[1] + [0] * 7 + [128], [1] + [0] * 6 + [1, -128]]
    (j0, w), key = (_row_key(int.from_bytes(a, "big"), int.from_bytes(b, "big")) for a, b in (first, second))
    assert key == (j0, w) == (56, 256**8 + 128)
    assert j0 == _LAST_ROW_J0 + 1


def _first_window(a, b):
    """j0 and the deltas delta_j0, ..., delta_J of the first window,
    J = j0 + 8, of the pair of sums (a, b)."""
    j0 = a.first_difference(b)
    return j0, [b.term(j) - a.term(j) for j in range(j0, j0 + _WINDOW + 1)]


def _verified_summaries(range_max, table):
    """The summary `sort_class` gives each class up to range_max with
    `table`, in the order a verification sorts them."""
    return [sort_class(cls, table) for cls in phi_classes(range_max)]


def _adjacent_pairs(summary):
    """The adjacent pairs (m, n) of a summary's members, in order."""
    members = summary["members"]
    return list(zip(members, members[1:]))


def _hash_of(lines):
    """A cert_hash: the sha256 of `lines`, each ending in a newline."""
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def test_sums_signs_match_exact_signs_on_adjacent_pairs_to_5000(eval_calls):
    """A verification of {1..5000} evaluates nothing exactly.  For each of
    its 3,855 adjacent pairs, served by the memo or not, every sign its
    certificate rests on at q < q*, the window's sign at each q, is
    nonzero and is the sign of the exact difference, so `_certify` fed
    those signs gives the outcome it gives with every q evaluated; each
    class's cert_hash covers the lines of those outcomes."""
    table = SumsTable(5000)
    summaries = _verified_summaries(5000, table)
    assert sum(s["pair_count"] for s in summaries) == 3855 and eval_calls == []
    cache = CycloCache()
    for summary in summaries:
        lines = []
        for m, n in _adjacent_pairs(summary):
            a, b = RamanujanSums(m, table, totient(m)), RamanujanSums(n, table, totient(n))
            j0, deltas = _first_window(a, b)
            lead, stop = (1 if deltas[0] > 0 else -1), 2 * j0 // abs(deltas[0]) + 2
            signs = {q: _window_sum_sign(deltas, j0, q) for q in range(2, stop)}
            for q, sign in signs.items():
                assert sign != 0 and sign == _exact_sign(m, n, q, cache), (m, n, q)
            verdict, checked, ties, flips = fed = _certify(m, n, lead, stop, cache, signs.get)
            assert fed == _certify(m, n, lead, stop, cache), (m, n)
            assert checked == stop - 1, (m, n)
            lines.append(comparison_line(m, n, verdict, Certificate(0, lead, checked, ties, flips, "ramanujan")))
        assert summary["cert_hash"] == _hash_of(lines), summary["phi"]


def test_memoised_outcomes_equal_unmemoised_ones_to_5000():
    """Each adjacent pair of a verification of {1..5000} gets, through the
    run's memo, the verdict, certificate and line the unmemoised path
    gives it: `_certify` fed the window's sign at each q, then
    `comparison_line`.  The 3,855 pairs have 447 distinct windows
    (j0, delta_j0..delta_j0+8), each stored by its first pair, under
    (j0, W), the deltas as one base-256 number, when j0 <= 55, where the
    window ends before lane 64 of the rows (419 windows; 372 with 32-term
    rows, up to j0 = 24), and under (j0, *deltas) past that; each
    class's cert_hash covers the stored templates completed with its
    pairs.  Every window reads the lead's sign at each q < q*, so the memo
    holds the same objects, the outcome of (lead, q*), under many keys:
    two of them, LESS with q* = 3 and with q* = 4."""
    table, fresh = SumsTable(5000), SumsTable(5000)
    summaries = _verified_summaries(5000, table)
    cache, keys = CycloCache(), set()
    for summary in summaries:
        lines = []
        for m, n in _adjacent_pairs(summary):
            a, b = RamanujanSums(m, fresh, totient(m)), RamanujanSums(n, fresh, totient(n))
            j0, deltas = _first_window(a, b)
            lead = 1 if deltas[0] > 0 else -1
            stop = 2 * j0 // abs(deltas[0]) + 2
            signs = {q: _window_sum_sign(deltas, j0, q) for q in range(2, stop)}
            want, checked, ties, flips = _certify(m, n, lead, stop, cache, signs.get)
            want_cert = Certificate(0, lead, checked, ties, flips, "ramanujan")
            if j0 <= _LAST_ROW_J0:
                key = (j0, sum(d * 256 ** (_WINDOW - i) for i, d in enumerate(deltas)))
            else:
                key = (j0, *deltas)
            verdict, cert, template = table.outcomes[key]
            assert (verdict, cert) == (want, want_cert), (m, n)
            assert template % (m, n) == comparison_line(m, n, want, want_cert), (m, n)
            lines.append(template % (m, n))
            keys.add(key)
        assert summary["cert_hash"] == _hash_of(lines), summary["phi"]
    assert len(keys) == len(table.outcomes) == 447
    assert sum(len(key) == 2 for key in keys) == 419
    shared = {id(o): o for o in table.outcomes.values()}
    assert sorted((o[0], o[1].checked_q_max + 1) for o in shared.values()) == [(Verdict.LESS, 3), (Verdict.LESS, 4)]
    for o in shared.values():
        assert o is comparator._agreeing_outcome(o[1].leading_sign, o[1].checked_q_max + 1)


def test_shared_outcomes_equal_what_certify_builds_from_exact_values_to_5000():
    """Every adjacent pair of every class up to 5000 has a window that
    reads the lead's sign at each q < q*, and so takes the outcome shared
    by (lead, q*), the same objects for every pair with those two.  That
    outcome is what `_certify` builds for the pair from exact values at
    every q < q*: the same verdict and certificate, and a template that
    completes to the pair's line, which the class's cert_hash covers."""
    table = SumsTable(5000)
    cache, pairs = CycloCache(), 0
    for summary in _verified_summaries(5000, table):
        lines = []
        for m, n in _adjacent_pairs(summary):
            a, b = RamanujanSums(m, table, totient(m)), RamanujanSums(n, table, totient(n))
            j0, deltas = _first_window(a, b)
            lead, stop = (1 if deltas[0] > 0 else -1), 2 * j0 // abs(deltas[0]) + 2
            assert all(_window_sum_sign(deltas, j0, q) == lead for q in range(2, stop)), (m, n)
            shared = comparator._agreeing_outcome(lead, stop)
            assert ramanujan_compare(a, b, j0, {}) is shared, (m, n)
            verdict, checked, ties, flips = _certify(m, n, lead, stop, cache)
            cert = Certificate(0, lead, checked, ties, flips, "ramanujan")
            assert shared[:2] == (verdict, cert), (m, n)
            assert shared[2] % (m, n) == comparison_line(m, n, verdict, cert), (m, n)
            lines.append(shared[2] % (m, n))
            pairs += 1
        assert summary["cert_hash"] == _hash_of(lines), summary["phi"]
    assert pairs == 3855
