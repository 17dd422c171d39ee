import hashlib
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from functools import cmp_to_key
from pathlib import Path

import pytest

import cycorder
from cycorder import comparator, cyclotomic
from cycorder.arith import inverse_totient, totient, totient_table
from cycorder.cli import main
from cycorder.comparator import (
    _LAST_ROW_J0,
    _SUMS_BLOCK,
    RamanujanSums,
    SumsTable,
    Verdict,
    compare,
    comparison_line,
    comparison_record,
    ramanujan_compare,
)
from cycorder.cyclotomic import CycloCache, cyclo
from cycorder.order import (
    CHECKPOINT_VERSION,
    ChainReport,
    CheckpointError,
    CheckpointFile,
    NotLessError,
    PhiClass,
    _totient_floor,
    build_chain,
    check_conjecture2,
    format_bfile,
    format_delimited,
    format_plain,
    phi_classes,
    precedes,
    sort_class,
    stable_prefix_length,
)

A206225_PREFIX = [1, 2, 6, 4, 3, 10, 12, 8, 5, 14, 18, 9, 7, 15, 20, 24, 16, 30, 22, 11]


def test_phi_classes_examples():
    assert [(c.phi_value, c.members) for c in phi_classes(2)] == [(1, [1, 2])]
    assert [(c.phi_value, c.members) for c in phi_classes(6)] == [
        (1, [1, 2]),
        (2, [3, 4, 6]),
        (4, [5]),
    ]
    assert [(c.phi_value, c.members) for c in phi_classes(12)] == [
        (1, [1, 2]),
        (2, [3, 4, 6]),
        (4, [5, 8, 10, 12]),
        (6, [7, 9]),
        (10, [11]),
    ]


def test_phi_classes_partition():
    # reassembly for every range bound up to 2000
    for range_max in range(1, 2001):
        classes = phi_classes(range_max)
        seen = []
        for cls in classes:
            seen.extend(cls.members)
        assert sorted(seen) == list(range(1, range_max + 1)), range_max
    # structural detail on a sample of bounds
    for range_max in (1, 2, 17, 120, 500, 2000):
        classes = phi_classes(range_max)
        last_phi = 0
        for cls in classes:
            assert cls.phi_value > last_phi
            last_phi = cls.phi_value
            assert cls.members == sorted(cls.members)
            assert all(totient(x) == cls.phi_value for x in cls.members)


def _sort_with_evidence(phi_class):
    """The members in the order of the summary `sort_class` returns for
    the class, with (a, b, verdict, cert) for each adjacent pair, which
    that summary is bound to (`_assert_summary_is_bound_to_its_records`):
    its cert_hash covers each pair's line."""
    summary = sort_class(phi_class)
    return summary["members"], _assert_summary_is_bound_to_its_records(summary)


def _incomparable(evidence):
    """The (a, b, cert) of the INCOMPARABLE pairs in sort_class evidence."""
    return [(a, b, cert) for a, b, verdict, cert in evidence if verdict is Verdict.INCOMPARABLE]


def test_sort_class_examples(monkeypatch):
    ordered, evidence = _sort_with_evidence(PhiClass(2, [3, 4, 6]))
    assert ordered == [6, 4, 3]
    assert len(evidence) == 2 and not _incomparable(evidence)
    assert sort_class(PhiClass(4, [5, 8, 10, 12]))["members"] == [10, 12, 8, 5]
    built = []
    monkeypatch.setattr(cycorder.order, "SumsTable", lambda *args: built.append(args))
    ordered, evidence = _sort_with_evidence(PhiClass(10, [11]))
    assert ordered == [11] and not evidence
    assert not built  # a class of one member builds nothing


def test_sort_class_refuses_a_table_that_does_not_cover_the_class(monkeypatch):
    """The class of totient 24 in {1..100} reaches 90: a table sieved to
    89 or to 10 raises ValueError before any pair is keyed, and one
    sieved to 90 sorts it."""
    cls = next(c for c in phi_classes(100) if c.phi_value == 24)
    assert max(cls.members) == 90
    read = []
    row_key = cycorder.order._row_key
    monkeypatch.setattr(cycorder.order, "_row_key", lambda *args: read.append(args) or row_key(*args))
    for limit in (10, 89):
        with pytest.raises(ValueError, match=f"covers indices up to {limit}, not 90"):
            sort_class(cls, SumsTable(limit))
    assert not read
    assert sort_class(cls, SumsTable(90)) == sort_class(cls)


def test_each_run_starts_from_an_empty_memo(monkeypatch):
    """Two verifications of {1..5000} in one process give equal reports.
    Each sorts its classes with its own table, whose memo of pair
    outcomes is empty when its first class is sorted and holds one entry
    per distinct first window, 447, when the run ends."""
    tables, at_start = [], []
    sort = cycorder.order.sort_class

    def recorded(phi_class, table):
        if not tables or tables[-1] is not table:
            tables.append(table)
            at_start.append(len(table.outcomes))
        return sort(phi_class, table)

    monkeypatch.setattr(cycorder.order, "sort_class", recorded)
    first, second = build_chain(5000).to_record(), build_chain(5000).to_record()
    assert first == second
    assert len(tables) == 2 and at_start == [0, 0]
    assert [len(t.outcomes) for t in tables] == [447, 447]


def test_sort_class_sorts_a_tall_class_at_its_wider_packing():
    """Class 10560 below 40000 holds 26565 (height 59) and 16445 (height
    8), whose pair `compare` reads at 16 bits.  The order from Ramanujan's
    sums is the coefficient-tuple order, and every adjacent pair
    certifies LESS."""
    members = [x for x in inverse_totient(10560) if x <= 40000]
    assert len(members) == 96 and {16445, 26565} <= set(members)
    ordered, evidence = _sort_with_evidence(PhiClass(10560, members))
    cache = CycloCache()
    assert ordered == sorted(members, key=lambda n: cyclo(n, cache).coeffs[::-1])
    assert not _incomparable(evidence) and len(evidence) == 95
    assert all(verdict is Verdict.LESS for _, _, verdict, _ in evidence)
    verdict, cert = compare(16445, 26565, CycloCache())
    assert verdict is Verdict.LESS
    assert (cert.threshold_c, cert.leading_sign, cert.checked_q_max) == (63, 1, 63)
    assert not cert.tie_witnesses and not cert.flip_witnesses


def test_sort_class_builds_no_polynomial(monkeypatch):
    """Sorting and certifying reads Ramanujan's sums only: a `CycloCache`
    is made only at a pair's first exact evaluation, and no adjacent pair
    up to 2000 reaches one, so none is made, while the run's memo holds
    its 314 windows."""
    made = []

    class Recorded(CycloCache):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(comparator, "CycloCache", Recorded)
    table = SumsTable(2000)
    for cls in phi_classes(2000):
        sort_class(cls, table)
    assert not made and len(table.outcomes) == 314


def test_build_chain_5000_builds_no_kernel(monkeypatch):
    calls = []
    series = cyclotomic._kernel_series
    monkeypatch.setattr(cyclotomic, "_kernel_series", lambda k: calls.append(k) or series(k))
    assert build_chain(5000).pair_count == 3855
    assert calls == []
    cyclo(105, CycloCache())  # the counter sees a build
    assert calls == [105]


def test_sort_class_adjacent_pairs_are_less(shared_cache):
    for cls in phi_classes(500):
        ordered, evidence = _sort_with_evidence(cls)
        assert not _incomparable(evidence)
        assert sorted(ordered) == cls.members
        for a, b in zip(ordered, ordered[1:]):
            v, _ = compare(a, b, shared_cache)
            assert v is Verdict.LESS, (a, b)


def test_sort_class_order_holds_for_every_pair(shared_cache):
    # the all-pairs reference for the adjacent-pair certificates
    for cls in phi_classes(1000):
        ordered, evidence = _sort_with_evidence(cls)
        assert not _incomparable(evidence)
        assert sorted(ordered) == cls.members
        for i, a in enumerate(ordered):
            for b in ordered[i + 1 :]:
                v, _ = compare(a, b, shared_cache)
                assert v is Verdict.LESS, (a, b)


def _first_difference_order(members, table):
    """members sorted by pairwise `first_difference`: the lexicographic
    order of their negated Ramanujan sums, with no prefix key."""

    def cmp(a, b):
        j = a.first_difference(b)
        return -1 if a.terms[j - 1] < b.terms[j - 1] else 1

    sums = (RamanujanSums(n, table, totient(n)) for n in members)
    return [s.n for s in sorted(sums, key=cmp_to_key(cmp))]


def test_prefix_sort_matches_pairwise_first_differences_to_5000():
    table = SumsTable(5000)
    for cls in phi_classes(5000):
        ordered = sort_class(cls, table)["members"]
        assert ordered == _first_difference_order(cls.members, table), cls.phi_value


def test_prefix_sort_refines_runs_of_equal_prefixes(monkeypatch):
    """256 and 384 (totient 128) first differ at j = 64: their 32-term
    rows tie, and the sort's tie-break parts them, in the order of their
    first difference.  The sort extends both to 64 terms; their pair's
    window then reads up to j = 72."""
    members = inverse_totient(128)
    table = SumsTable(max(members))
    a, b = RamanujanSums(256, table, 128), RamanujanSums(384, table, 128)
    assert a.first_difference(b) == 64
    built, held = [], {}
    compare_sums = comparator.ramanujan_compare

    def recorded(*args):
        built.append(RamanujanSums(*args))
        return built[-1]

    def compared(a, b, memo):
        held.update({s.n: len(s.terms) for s in (a, b)})
        return compare_sums(a, b, memo)

    monkeypatch.setattr(cycorder.order, "RamanujanSums", recorded)
    monkeypatch.setattr(cycorder.order, "ramanujan_compare", compared)
    ordered = sort_class(PhiClass(128, members), table)["members"]
    assert ordered == _first_difference_order(members, table)
    assert held[256] == held[384] == 2 * _SUMS_BLOCK
    assert {s.n: len(s.terms) for s in built if s.n in (256, 384)} == {256: 72, 384: 72}


@pytest.mark.parametrize(
    "phi, limit, pair, case",
    [
        (2520, 5000, (2623, 2627), "run at the start"),
        (128, 5000, (256, 384), "run in the middle"),
        (294, 5000, (343, 686), "run that is the whole class"),
        (5460, 20000, (11218, 11266), "run at the end"),
        (192, 5000, (576, 720), "j0 = 24"),
        (100, 5000, (250, 125), "j0 = 25"),
    ],
)
def test_class_sort_covers_both_routes(phi, limit, pair, case):
    """The class of totient `phi` in {1..limit} has `pair` as adjacent
    members in the case named: a run of two equal rows, whose members the
    sort's tie-break orders by their sums and whose pair goes through
    `ramanujan_compare`, at the class's start, in its middle, as the whole
    class or at its end; or a pair of unequal rows whose first difference
    j0 is 24, the last whose window lies in the rows, or 25, whose window
    leaves them.  The class's order is the order of pairwise first
    differences, and the summary's cert_hash covers each pair's line from
    unmemoised `ramanujan_compare`."""
    members = [x for x in inverse_totient(phi) if x <= limit]
    table = SumsTable(limit)
    summary = sort_class(PhiClass(phi, members), table)
    ordered = summary["members"]
    assert ordered == _first_difference_order(members, table)
    rows = [table.lanes[n * _SUMS_BLOCK : (n + 1) * _SUMS_BLOCK] for n in ordered]
    i = min(map(ordered.index, pair))
    assert {ordered[i], ordered[i + 1]} == set(pair)
    if case.startswith("j0"):
        j0 = next(j for j, (x, y) in enumerate(zip(rows[i], rows[i + 1]), 1) if x != y)
        assert j0 == int(case[-2:]) and _LAST_ROW_J0 == 24
    else:
        assert [k for k, row in enumerate(rows) if row == rows[i]] == [i, i + 1]
        place = {
            "run at the start": i == 0 < len(ordered) - 2,
            "run in the middle": 0 < i < len(ordered) - 2,
            "run that is the whole class": len(ordered) == 2,
            "run at the end": 0 < i == len(ordered) - 2,
        }
        assert place[case]
    _assert_summary_is_bound_to_its_records(summary, table)


def test_build_chain_5000_builds_at_most_18426_hoelder_terms(monkeypatch):
    """Each member of a class of two or more holds its 32-term row of the
    run's table and is extended past it by Hoelder's form only as far as
    the sort and its own pairs' windows read.  With 16-term rows the same
    run built 31,026 terms past them."""
    built = []
    extend = RamanujanSums.extend

    def counted(self, length):
        have = len(self.terms)
        extend(self, length)
        built.append(len(self.terms) - have)

    monkeypatch.setattr(RamanujanSums, "extend", counted)
    assert build_chain(5000).pair_count == 3855
    assert sum(built) <= 18_426 < 31_026


def test_build_chain_2000_builds_hoelder_tables_for_fewer_members_than_it_sorts(monkeypatch):
    """A member's Hoelder table is built by its first extension past its
    row, at most once; 1,769 of the 1,859 members sorted here are never
    read past it (1,481 with 16-term rows).  A member's `RamanujanSums`
    object is built only when its row ties another's in the sort or its
    pair's window leaves the row: exactly 90, one for each such member,
    so the tie-break runs on no pair of rows that differ."""
    built, made = [], []
    hoelder = comparator._hoelder_table
    monkeypatch.setattr(
        comparator, "_hoelder_table", lambda n, *rest: built.append(n) or hoelder(n, *rest)
    )
    init = RamanujanSums.__init__
    monkeypatch.setattr(RamanujanSums, "__init__", lambda self, *args: made.append(args[0]) or init(self, *args))
    assert build_chain(2000).pair_count == 1504
    sorted_members = sum(len(cls.members) for cls in phi_classes(2000) if len(cls.members) > 1)
    assert len(set(built)) == len(built) <= 90 < sorted_members == 1859
    assert len(set(made)) == len(made) == 90


def test_record_writer_matches_json_dumps_on_verify_5000():
    """The lines a verification of {1..5000} hashes, each a template
    completed with the pair's m and n, are the general encoder's bytes for
    the pairs' records: every class's cert_hash is the sha256 of
    json.dumps of its adjacent pairs' records, each ending in a newline,
    over all 3,855 pairs."""
    table, counted = SumsTable(5000), []

    def check(done, total, summary):
        counted.append(len(_assert_summary_is_bound_to_its_records(summary, table)))

    build_chain(5000, progress=check)
    assert sum(counted) == 3855


def test_build_chain_2000_sequence_digest():
    # the digest of the all-pairs code's output
    sequence = build_chain(2000).sequence
    digest = hashlib.sha256(",".join(map(str, sequence)).encode()).hexdigest()
    assert digest == "020689067dafcef27391d6d52e4f66d7297af5af04b7140d8ac247777f3f8afa"


def test_build_chain_small():
    rep = build_chain(6)
    assert rep.sequence.typecode == "I"  # 4 bytes an index, not a list of ints
    assert list(rep.sequence) == [1, 2, 6, 4, 3, 5]
    assert rep.stable_prefix == [1, 2, 6, 4, 3]
    rep = build_chain(1)
    assert list(rep.sequence) == [1]
    # the only class is still missing index 2, so no position is final yet
    assert rep.stable_prefix_len == 0


def test_build_chain_31_matches_sequence_start():
    rep = build_chain(31)
    assert rep.stable_prefix == A206225_PREFIX
    assert not rep.incomparable_pairs
    assert not rep.tie_pairs
    assert rep.pair_count == sum(len(c.members) - 1 for c in phi_classes(31))


def test_stable_prefix_rule():
    for range_max, length in (
        (1, 0),  # 2 shares totient 1
        (2, 2),  # every class complete: no class value is reached above 2
        (6, 5),
        (31, 20),  # the classes below 12 are complete; 36 shares totient 12
        (5000, 2208),
        (20000, 8344),
    ):
        assert stable_prefix_length(phi_classes(range_max), range_max) == length, range_max


def test_stable_prefix_matches_inverse_totient_to_500():
    """The members of the classes before the first one that inverse_totient
    shows an index above range_max has, for every range_max <= 500."""
    largest: dict[int, int] = {}  # totient value -> its largest preimage
    for range_max in range(1, 501):
        classes = phi_classes(range_max)
        expected = 0
        for cls in classes:
            v = cls.phi_value
            if v not in largest:
                largest[v] = inverse_totient(v)[-1]
            if largest[v] > range_max:
                break
            expected += len(cls.members)
        assert stable_prefix_length(classes, range_max) == expected, range_max


def test_stable_prefix_widens_an_undecided_sieve(monkeypatch):
    """A first sieve that finds no class value above 5000 cannot decide:
    the floor above 10000 is below the largest class value, so a second
    sieve, twice as long, runs and gives the right length."""
    classes = phi_classes(5000)
    sieved = []

    def blind_first(limit: int) -> list[int]:
        table = totient_table(limit)
        if not sieved:
            table[5001:] = [limit] * (limit - 5000)  # no class value is this large
        sieved.append(limit)
        return table

    monkeypatch.setattr(cycorder.order, "totient_table", blind_first)
    assert stable_prefix_length(classes, 5000) == 2208
    assert sieved == [10000, 20000]


def test_totient_floor_bounds_every_larger_index():
    """`_totient_floor(limit)` is at most totient(x) for each x in
    (limit, 12000], for every limit <= 3000: the least totient above 29,
    totient(30) = 8, needs the F_{K+1} term."""
    table = totient_table(12000)
    least_above = table[:]  # least_above[x] = min(table[x:])
    for x in range(len(table) - 2, 0, -1):
        least_above[x] = min(table[x], least_above[x + 1])
    for limit in range(1, 3001):
        assert _totient_floor(limit) <= least_above[limit + 1], limit
    assert _totient_floor(29) == 8 == least_above[30]


def test_cross_class_pairs_follow_totient_gap(shared_cache):
    rng = random.Random(31337)
    checked = 0
    while checked < 200:
        m = rng.randint(1, 1000)
        n = rng.randint(1, 1000)
        tm, tn = totient(m), totient(n)
        if tm == tn:
            continue
        v, _ = compare(m, n, shared_cache)
        assert v is (Verdict.LESS if tm < tn else Verdict.GREATER), (m, n)
        checked += 1


def test_chain_determinism_across_workers():
    r1 = build_chain(500, workers=1)
    r4 = build_chain(500, workers=4)
    assert r1 == r4


def test_chain_report_round_trip():
    rep = build_chain(100)
    rec = rep.to_record()
    assert ChainReport.from_record(json.loads(json.dumps(rec))) == rep


def test_precedes_examples(shared_cache):
    rep = precedes(2, 6, shared_cache)
    assert rep.holds and rep.candidates_examined == [1, 3, 4] and not rep.blockers

    rep = precedes(6, 3, shared_cache)
    assert not rep.holds and rep.blockers == [4]

    rep = precedes(18, 9, shared_cache)
    assert rep.holds and rep.candidates_examined == [7, 14]

    with pytest.raises(NotLessError):
        precedes(3, 6, shared_cache)  # 6 comes first
    with pytest.raises(NotLessError):
        precedes(11, 3, shared_cache)  # totient gap the wrong way
    with pytest.raises(ValueError):
        precedes(9, 9, shared_cache)


def test_precedes_blockers_match_full_scan(shared_cache):
    # scanning every index up to 200 finds exactly the blockers the
    # totient-band enumeration reports, confirming the band loses nothing
    for m, n in [(2, 6), (6, 3), (10, 12), (14, 9), (5, 14), (1, 2)]:
        v, _ = compare(m, n, shared_cache)
        if v is not Verdict.LESS:
            m, n = n, m
        rep = precedes(m, n, shared_cache)
        brute = []
        for x in range(1, 201):
            if x in (m, n):
                continue
            v1, _ = compare(m, x, shared_cache)
            v2, _ = compare(x, n, shared_cache)
            if v1 is Verdict.LESS and v2 is Verdict.LESS:
                brute.append(x)
        assert [b for b in rep.blockers if b <= 200] == brute, (m, n)
        assert all(b in rep.candidates_examined for b in rep.blockers)


def test_sort_class_reports_incomparable_as_data(stand_in_values):
    a, b = 10, 8  # t^2 and t^2 + t - 3
    ordered, evidence = _sort_with_evidence(PhiClass(4, [a, b]))
    incomparable = _incomparable(evidence)
    assert len(incomparable) == 1
    assert incomparable[0][0] == a and incomparable[0][1] == b
    assert sorted(ordered) == sorted([a, b])  # still a permutation, order best-effort
    assert len(evidence) == 1


def test_tied_indices_match_an_all_pairs_scan(stand_in_values):
    a, b, c = 10, 12, 5  # t^2, t^2 + t - 2, t^2 + 2t - 4: all 4 at q = 2
    members = sorted((a, b, c))
    table = SumsTable(max(members))
    sums = {x: RamanujanSums(x, table, totient(x)) for x in members}
    scan = set()
    for i, m in enumerate(members):
        for n in members[i + 1 :]:
            v, cert, _ = ramanujan_compare(sums[m], sums[n], {})
            assert v is not Verdict.INCOMPARABLE
            if cert.tie_witnesses:
                scan |= {m, n}
    summary = sort_class(PhiClass(4, members), table)
    assert not table.outcomes  # every window undecided: nothing is memoised
    assert summary["members"] == [a, b, c]
    assert summary["ties"] == [[a, b, 2], [b, c, 2]]
    assert summary["pair_count"] == 2 and not summary["incomparable"]
    assert {x for m, n, _ in summary["ties"] for x in (m, n)} == scan == {a, b, c}


def _assert_summary_is_bound_to_its_records(summary: dict, table: SumsTable | None = None) -> list:
    """Rebuild the certificates of the summary's adjacent pairs with
    `ramanujan_compare`, unmemoised, off `table` (one covering the class
    is built when none is given and the class has a pair): cert_hash is
    the sha256 of their lines from `comparison_line`, each the general
    encoder's bytes for the pair's record, and every other field of the
    summary agrees with the records.  Returns (a, b, verdict, cert) for
    each adjacent pair, in order."""
    members = summary["members"]
    if len(members) > 1 and table is None:
        table = SumsTable(max(members))
    sums = {x: RamanujanSums(x, table, totient(x)) for x in members} if len(members) > 1 else {}
    pairs = [
        (a, b, *ramanujan_compare(sums[a], sums[b], {})[:2])
        for a, b in zip(members, members[1:])
    ]
    records = [comparison_record(*pair) for pair in pairs]
    lines = [comparison_line(*pair) for pair in pairs]
    for r, line in zip(records, lines):
        assert line == json.dumps(r, sort_keys=True, separators=(",", ":"))
    text = "".join(line + "\n" for line in lines)
    assert summary["cert_hash"] == hashlib.sha256(text.encode()).hexdigest()
    assert summary["pair_count"] == len(records) == len(members) - 1
    assert summary["max_checked_q"] == max([0] + [r["checked_q_max"] for r in records])
    assert summary["ties"] == [[r["m"], r["n"], q] for r in records for q in r["tie_witnesses"]]
    assert summary["incomparable"] == [r for r in records if r["verdict"] == Verdict.INCOMPARABLE.value]
    return pairs


def test_class_summaries_are_bound_to_their_hashed_records():
    table = SumsTable(300)
    for cls in phi_classes(300):
        summary = sort_class(cls, table)
        assert summary["phi"] == cls.phi_value and sorted(summary["members"]) == cls.members
        _assert_summary_is_bound_to_its_records(summary)


def test_stand_in_summaries_are_bound_to_their_hashed_records(stand_in_values, monkeypatch):
    """The incomparable class and the tied class of the stand-ins; every
    window is left undecided, so the memo stays empty and each pair's line
    template is built once, and `sort_class` builds a record dict only
    for the incomparable pair."""
    built, recorded = [], []
    template, record = comparator._line_template, cycorder.order.comparison_record
    monkeypatch.setattr(
        comparator, "_line_template", lambda *args: built.append(args[0]) or template(*args)
    )
    monkeypatch.setattr(
        cycorder.order,
        "comparison_record",
        lambda *args: recorded.append(args[:2]) or record(*args),
    )
    a, b, c, d = 10, 8, 5, 12
    table = SumsTable(d)
    for members in ([a, b], [a, c, d]):
        built.clear()
        recorded.clear()
        summary = sort_class(PhiClass(4, members), table)
        assert len(built) == summary["pair_count"] == len(members) - 1 and not table.outcomes
        assert recorded == [(r["m"], r["n"]) for r in summary["incomparable"]]
        _assert_summary_is_bound_to_its_records(summary)
        if members == [a, b]:
            [rec] = summary["incomparable"]
            assert (rec["m"], rec["n"], summary["ties"]) == (a, b, [[a, b, 3]])  # 9 at q = 3
        else:
            assert summary["ties"] == [[a, d, 2], [d, c, 2]] and not summary["incomparable"]


def test_precedes_surfaces_incomparable_distinctly(fake_pair_cache):
    from cycorder.order import IncomparablePairError

    cache = fake_pair_cache
    a, b = 900001, 900002
    with pytest.raises(IncomparablePairError) as exc:
        precedes(a, b, cache)
    assert exc.value.m == a and exc.value.n == b
    assert exc.value.certificate.flip_witnesses


def test_conjecture2_outcomes():
    reports = check_conjecture2(6)
    assert [r.holds for r in reports] == [False, True, True, True, True, True]
    assert reports[0].blockers == [4]
    assert reports[0].m == 6 and reports[0].n == 3
    assert reports[1].m == 18 and reports[1].n == 9 and not reports[1].blockers


def test_checkpoint_resume_and_validation(tmp_path):
    path = str(tmp_path / "verify.ckpt")
    first = build_chain(200, workers=1, checkpoint_path=path)
    lines = Path(path).read_text().splitlines(True)
    assert len(lines) == first.class_count + 1

    resumed = build_chain(200, workers=1, checkpoint_path=path)
    assert resumed == first

    # a truncated file resumes from the surviving prefix
    with open(path, "w") as fh:
        fh.writelines(lines[:4])
    partial = build_chain(200, workers=1, checkpoint_path=path)
    assert partial == first
    assert len(Path(path).read_text().splitlines()) == first.class_count + 1

    # interrupted (half-written) trailing line is tolerated
    with open(path, "w") as fh:
        fh.writelines(lines[:4])
        fh.write(lines[4][: len(lines[4]) // 2])
    assert build_chain(200, workers=1, checkpoint_path=path) == first

    # edited class content breaks the hash chain, whether or not the
    # class still reads as one of the run's
    for field, edited in (('"members":[', '"members":[999,'), ('"max_checked_q":', '"max_checked_q":9')):
        bad = lines[2].replace(field, edited, 1)
        assert bad != lines[2]
        with open(path, "w") as fh:
            fh.writelines([lines[0], lines[1], bad] + lines[3:])
        with pytest.raises(CheckpointError, match="hash chain mismatch at line 3"):
            build_chain(200, workers=1, checkpoint_path=path)

    # range mismatch is rejected
    with open(path, "w") as fh:
        fh.writelines(lines)
    with pytest.raises(CheckpointError):
        build_chain(300, workers=1, checkpoint_path=path)


def _rechained(lines, phi, edit):
    """`lines` of a checkpoint with `edit` applied to the record of the
    class of totient `phi`, and every chain hash recomputed over the
    compact sorted-key bodies, as a writer that meant the edit would."""
    out, prev = [], ""
    for line in lines:
        rec = json.loads(line)
        del rec["chain"]
        if rec.get("phi") == phi and rec["kind"] == "class":
            edit(rec)
        body = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        prev = hashlib.sha256((prev + body).encode()).hexdigest()
        out.append(f'{body[:-1]},"chain":"{prev}"}}\n')
    return out


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(
            lambda rec: rec.update(members=[6, 6, 6]), "class 2 on file is not a class of {1..30}", id="members"
        ),
        pytest.param(
            lambda rec: rec.update(members=[6, 4, 3.0]), "class 2 on file is not a class of {1..30}", id="float"
        ),
        pytest.param(
            lambda rec: rec.update(pair_count=1), "class 2 on file is not a class of {1..30}", id="pair_count"
        ),
        pytest.param(
            lambda rec: rec.update(members=[3, 4, 6]), "class 2 on file is not in asymptotic order", id="order"
        ),
        pytest.param(lambda rec: rec.update(phi=3), "class 3 on file is not a class of {1..30}", id="phi"),
        pytest.param(lambda rec: rec.update(phi=[2]), "class line 3 has phi [2]", id="phi-list"),
        pytest.param(lambda rec: rec.pop("phi"), "class line 3 lacks phi", id="no-phi"),
        pytest.param(
            lambda rec: [rec.pop(f) for f in ("ties", "members")], "class line 3 lacks members, ties", id="no-members"
        ),
        pytest.param(
            lambda rec: rec.update(max_checked_q="3"), "class line 3 has max_checked_q '3'", id="max_checked_q-str"
        ),
        pytest.param(lambda rec: rec.update(ties=[[1]]), "class line 3 has ties [[1]]", id="ties-short"),
        pytest.param(
            lambda rec: rec.update(incomparable=[{"x": 1}]),
            "class line 3 has incomparable [{'x': 1}]",
            id="incomparable-not-a-record",
        ),
        pytest.param(lambda rec: rec.update(cert_hash=5), "class line 3 has cert_hash 5", id="cert_hash-int"),
    ],
)
def test_a_class_line_that_is_not_the_runs_is_refused(tmp_path, capsys, edit, message):
    """A class line of a `verify 30` checkpoint edited and rechained, so
    that its hash chain holds, is refused by the library and by `verify`
    (exit 4) when it lacks a field, or holds one of another type than a
    run writes (a str for an int, a tie that is not [a, b, q], an
    incomparable entry that is no comparison record, a cert_hash that is
    not 64 hex digits), or when its class is not one of the run's:
    another totient, members that are not the class's in some order
    (here [6, 6, 6] for the class {3, 4, 6}, which would report a
    sequence without 3 and 4), or a pair_count other than k - 1; or when
    its members are not in the order the run's own sort of the class
    gives (here [3, 4, 6], whose rows decrease: that order is 6, 4, 3)."""
    path = tmp_path / "verify.ckpt"
    build_chain(30, checkpoint_path=str(path))
    path.write_text("".join(_rechained(path.read_text().splitlines(), 2, edit)))
    crafted = path.read_text()
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: {message}")):
        build_chain(30, checkpoint_path=str(path))
    assert main(["verify", "30", "--checkpoint", str(path), "--format", "structured"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == f"checkpoint error: {path}: {message}\n"
    assert path.read_text() == crafted


def test_a_swap_inside_a_run_of_equal_rows_is_refused(tmp_path, capsys):
    """The class of totient 162 in {1..500} is 326, 486, 243, 163, where
    486 and 243 have equal rows, which the sort parts by the first
    difference of their sums.  A `verify 500` checkpoint whose line for
    that class swaps the two, rechained, has rows that never decrease, so
    only that first difference refuses it, in the library and in `verify`
    (exit 4)."""
    path = tmp_path / "verify.ckpt"
    build_chain(500, checkpoint_path=str(path))
    lines = path.read_text().splitlines()
    [on_file] = [json.loads(line)["members"] for line in lines if '"phi":162,' in line]
    table = SumsTable(500)
    assert on_file == [326, 486, 243, 163]
    assert len({table.lanes[n * _SUMS_BLOCK : (n + 1) * _SUMS_BLOCK] for n in (486, 243)}) == 1
    path.write_text("".join(_rechained(lines, 162, lambda rec: rec.update(members=[326, 243, 486, 163]))))
    crafted, message = path.read_text(), "class 162 on file is not in asymptotic order"
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: {message}")):
        build_chain(500, checkpoint_path=str(path))
    assert main(["verify", "500", "--checkpoint", str(path), "--format", "structured"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == f"checkpoint error: {path}: {message}\n"
    assert path.read_text() == crafted


def test_a_full_resume_builds_each_members_sums_at_most_once(tmp_path, monkeypatch):
    """A resume of a finished `verify 768` checkpoint checks each class on
    file with the run's own sort of the class, which builds a member's
    `RamanujanSums` once for the class, however many of its pairs read
    it.  768 is the least N whose classes hold a run of three equal rows:
    512, 640 and 768, of totient 256, where the middle member is in two
    pairs that only the sums part."""
    path = tmp_path / "verify.ckpt"
    first = build_chain(768, checkpoint_path=str(path))
    table = SumsTable(768)
    assert len({table.lanes[n * _SUMS_BLOCK : (n + 1) * _SUMS_BLOCK] for n in (512, 640, 768)}) == 1
    built = []
    init = RamanujanSums.__init__
    monkeypatch.setattr(RamanujanSums, "__init__", lambda sums, n, *args: built.append(n) or init(sums, n, *args))
    assert build_chain(768, checkpoint_path=str(path)) == first
    assert {512, 640, 768} <= set(built)
    assert len(built) == len(set(built))


def test_a_rechained_checkpoint_left_as_written_resumes(tmp_path):
    """`_rechained` with no edit gives back the file byte for byte, so
    each refusal above is the edit's."""
    path = tmp_path / "verify.ckpt"
    first = build_chain(30, checkpoint_path=str(path))
    intact = path.read_text()
    assert "".join(_rechained(intact.splitlines(), 2, lambda rec: None)) == intact
    assert build_chain(30, checkpoint_path=str(path)) == first


V3_HEADER_OF_VERIFY_30 = (
    '{"chain": "eb7130659694e15cfcd8e1f766cc10fcca6e15319cac17d0ae50972243975a3c", '
    '"kind": "header", "range_max": 30, "version": 3}'
)


def old_header_line(version: int, range_max: int) -> str:
    """A header line as versions 1 to 3 wrote it: json's default separators,
    sorted keys, and a chain over the compact form of the other fields."""
    header = {"kind": "header", "version": version, "range_max": range_max}
    body = json.dumps(header, sort_keys=True, separators=(",", ":"))
    header["chain"] = hashlib.sha256(body.encode()).hexdigest()
    return json.dumps(header, sort_keys=True)


def test_checkpoint_of_another_version_is_refused(tmp_path, capsys):
    """A header of version 1, 2 or 3 with a valid hash, in the spelling an
    older run leaves behind, is refused by version, by the library and by
    `verify` (exit 4)."""
    assert old_header_line(3, 30) == V3_HEADER_OF_VERIFY_30
    path = str(tmp_path / "verify.ckpt")
    for version in (1, 2, 3):
        with open(path, "w") as fh:
            fh.write(old_header_line(version, 30) + "\n")
        message = f"version={version}, wanted {CHECKPOINT_VERSION}"
        with pytest.raises(CheckpointError, match=message):
            CheckpointFile(path, 30)
        assert main(["verify", "30", "--checkpoint", path]) == 4
        assert capsys.readouterr().err == f"checkpoint error: {path}: checkpoint has {message}\n"


def test_checkpoint_is_offered_each_class_once(tmp_path, monkeypatch):
    """Classes reach the checkpoint in ascending order, each offered to
    `append` once, whatever worker count is passed."""
    offered = []
    real_append = CheckpointFile.append

    def append(checkpoint, summary):
        offered.append(summary["phi"])
        real_append(checkpoint, summary)

    monkeypatch.setattr(CheckpointFile, "append", append)
    report = build_chain(200, workers=2, checkpoint_path=str(tmp_path / "verify.ckpt"))
    assert offered == sorted(offered) and len(offered) == report.class_count


def test_checkpoint_torn_tail_survives_two_resumes(tmp_path):
    path = str(tmp_path / "verify.ckpt")
    first = build_chain(60, workers=1, checkpoint_path=path)
    intact = Path(path).read_text()
    lines = intact.splitlines(True)

    # half of line 5, then a complete line 5 whose newline never landed
    for tail in (lines[4][: len(lines[4]) // 2], lines[4][:-1]):
        with open(path, "w") as fh:
            fh.writelines(lines[:4])
            fh.write(tail)
        assert build_chain(60, workers=1, checkpoint_path=path) == first
        assert build_chain(60, workers=1, checkpoint_path=path) == first
        assert Path(path).read_text() == intact


def test_checkpoint_parallel_matches_serial(tmp_path):
    p1 = str(tmp_path / "serial.ckpt")
    p2 = str(tmp_path / "parallel.ckpt")
    r1 = build_chain(300, workers=1, checkpoint_path=p1)
    r2 = build_chain(300, workers=2, checkpoint_path=p2)
    assert r1 == r2
    assert Path(p1).read_text() == Path(p2).read_text()


def test_sequence_formats():
    rep = build_chain(31)
    plain = format_plain(rep).splitlines()
    assert plain == [str(x) for x in A206225_PREFIX]
    bfile = format_bfile(rep).splitlines()
    assert bfile[0] == "1 1" and bfile[2] == "3 6" and len(bfile) == 20
    rows = format_delimited(rep).splitlines()
    assert rows[0] == "position,index,totient,tie_flag"
    assert rows[1] == "1,1,1,0"
    assert rows[3] == "3,6,2,0"
    assert len(rows) == 21


def _start_verify_10000(path: str, err) -> subprocess.Popen:
    """Start `verify 10000 --checkpoint path` in a session of its own, with
    stderr to the file `err`, and return once the checkpoint holds a class
    line and stderr a progress line."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cycorder.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cycorder", "verify", "10000", "--checkpoint", path],
        stdout=subprocess.DEVNULL, stderr=err, env=dict(os.environ, PYTHONPATH=src),
        start_new_session=True,
    )

    def started() -> bool:
        return (
            os.path.exists(path)
            and '"kind":"class"' in Path(path).read_text()
            and "class phi=" in Path(err.name).read_text()
        )

    try:
        deadline = time.monotonic() + 60
        while not started():
            assert proc.poll() is None, "verify ended before its first class line"
            assert time.monotonic() < deadline, "no class line within 60 s"
            time.sleep(0.005)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc


def test_ctrl_c_exits_130_and_keeps_the_checkpoint(tmp_path):
    """SIGINT to the process group of a `verify`, sent once the checkpoint
    holds a class line, ends it with exit 130 within 10 s; the checkpoint
    loads and resumes to the full report.  N = 10000 keeps the run going
    for 0.50 to 0.52 s after its first class line (three runs on a 2-vCPU
    x86-64 host, Python 3.11; N = 5000 gives 0.26 to 0.31 s)."""
    path = str(tmp_path / "verify.ckpt")
    with open(tmp_path / "stderr.txt", "w+") as err:
        proc = _start_verify_10000(path, err)
        try:
            os.killpg(proc.pid, signal.SIGINT)
            code = proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        err.seek(0)
        stderr = err.read()
    assert code == 130, stderr
    assert "interrupted" in stderr
    assert CheckpointFile(path, 10000).completed
    assert build_chain(10000, workers=2, checkpoint_path=path) == build_chain(10000)


def test_sigkill_loses_no_reported_class(tmp_path):
    """SIGKILL, which runs no handler and no `close()`, sent once a
    `verify` has a class line on file: every class whose progress line
    reached stderr is in the checkpoint, because each line is flushed
    before its class is reported, and the checkpoint loads and resumes
    to the full report."""
    path = str(tmp_path / "verify.ckpt")
    with open(tmp_path / "stderr.txt", "w+") as err:
        proc = _start_verify_10000(path, err)
        os.killpg(proc.pid, signal.SIGKILL)
        code = proc.wait(timeout=10)
        err.seek(0)
        stderr = err.read()
    assert code == -signal.SIGKILL, stderr
    reported = {int(phi) for phi in re.findall(r"^class phi=(\d+) .*\)$", stderr, re.M)}
    assert reported
    assert reported <= set(CheckpointFile(path, 10000).completed)
    assert build_chain(10000, checkpoint_path=path) == build_chain(10000)


def _count_fsyncs(monkeypatch) -> list[int]:
    """Record the descriptor of every `os.fsync` the order module makes."""
    syncs: list[int] = []
    real_fsync = os.fsync

    def fsync(fd: int) -> None:
        syncs.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(cycorder.order.os, "fsync", fsync)
    return syncs


def test_checkpoint_syncs_at_most_once_a_second(tmp_path, monkeypatch):
    """496 class lines, written in well under 10 s, take at least one
    fsync (the one in `close()`) and fewer than 10."""
    syncs = _count_fsyncs(monkeypatch)
    report = build_chain(2000, checkpoint_path=str(tmp_path / "verify.ckpt"))
    assert report.class_count == 496
    assert 1 <= len(syncs) < 10


def test_interrupted_build_syncs_and_closes_its_checkpoint(tmp_path, monkeypatch):
    """A KeyboardInterrupt from `progress` at the 10th class leaves the
    checkpoint synced after its 10th line and its handle closed; the
    file loads with 10 classes and resumes to the full report."""
    path = str(tmp_path / "verify.ckpt")
    syncs = _count_fsyncs(monkeypatch)
    opened: list[CheckpointFile] = []

    class Recorded(CheckpointFile):
        def __init__(self, *args):
            super().__init__(*args)
            opened.append(self)

    monkeypatch.setattr(cycorder.order, "CheckpointFile", Recorded)
    synced_before: list[int] = []

    def progress(done: int, total: int, summary: dict) -> None:
        if done == 10:
            synced_before.append(len(syncs))
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        build_chain(2000, checkpoint_path=path, progress=progress)
    [checkpoint] = opened
    assert len(syncs) == synced_before[0] + 1
    assert checkpoint._fh is None
    assert len(CheckpointFile(path, 2000).completed) == 10
    assert build_chain(2000, checkpoint_path=path) == build_chain(2000)
