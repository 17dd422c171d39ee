import json
import os
import random
import subprocess
import sys
import textwrap

import pytest

import cycorder
from cycorder.arith import totient
from cycorder.comparator import Verdict, compare
from cycorder.order import (
    ChainReport,
    CheckpointError,
    CheckpointFile,
    NotLessError,
    PhiClass,
    build_chain,
    check_conjecture2,
    class_is_complete,
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


def test_sort_class_examples(shared_cache):
    evidence = []
    ordered, incomparable = sort_class(
        PhiClass(2, [3, 4, 6]), shared_cache, cert_sink=lambda *e: evidence.append(e)
    )
    assert ordered == [6, 4, 3]
    assert len(evidence) == 3 and not incomparable
    ordered, _ = sort_class(PhiClass(4, [5, 8, 10, 12]), shared_cache)
    assert ordered == [10, 12, 8, 5]
    evidence = []
    ordered, _ = sort_class(
        PhiClass(10, [11]), shared_cache, cert_sink=lambda *e: evidence.append(e)
    )
    assert ordered == [11] and not evidence


def test_sort_class_adjacent_pairs_are_less(shared_cache):
    for cls in phi_classes(500):
        ordered, incomparable = sort_class(cls, shared_cache)
        assert not incomparable
        assert sorted(ordered) == cls.members
        for a, b in zip(ordered, ordered[1:]):
            v, _ = compare(a, b, shared_cache)
            assert v is Verdict.LESS, (a, b)


def test_build_chain_small():
    rep = build_chain(6)
    assert rep.sequence == [1, 2, 6, 4, 3, 5]
    assert rep.stable_prefix == [1, 2, 6, 4, 3]
    rep = build_chain(1)
    assert rep.sequence == [1]
    # the only class is still missing index 2, so no position is final yet
    assert rep.stable_prefix_len == 0


def test_build_chain_31_matches_sequence_start():
    rep = build_chain(31)
    assert rep.stable_prefix == A206225_PREFIX
    assert not rep.incomparable_pairs
    assert not rep.tie_pairs
    assert rep.pair_count == sum(
        len(c.members) * (len(c.members) - 1) // 2 for c in phi_classes(31)
    )


def test_stable_prefix_rule():
    classes = phi_classes(31)
    assert class_is_complete(1, 31) and class_is_complete(8, 31)
    assert not class_is_complete(12, 31)  # 36 shares totient 12
    assert stable_prefix_length(classes, 31) == 20
    assert stable_prefix_length(phi_classes(6), 6) == 5
    assert stable_prefix_length(phi_classes(1), 1) == 0


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


def test_sort_class_reports_incomparable_as_data(fake_pair_cache):
    cache = fake_pair_cache
    a, b = 900001, 900002  # t^2 and t^2 + t - 3
    evidence = []
    ordered, incomparable = sort_class(
        PhiClass(2, [a, b]), cache, cert_sink=lambda *e: evidence.append(e)
    )
    assert len(incomparable) == 1
    assert incomparable[0][0] == a and incomparable[0][1] == b
    assert sorted(ordered) == [a, b]  # still a permutation, order best-effort
    assert len(evidence) == 1


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
    lines = open(path).read().splitlines(True)
    assert len(lines) == first.class_count + 1

    resumed = build_chain(200, workers=1, checkpoint_path=path)
    assert resumed == first

    # a truncated file resumes from the surviving prefix
    with open(path, "w") as fh:
        fh.writelines(lines[:4])
    partial = build_chain(200, workers=1, checkpoint_path=path)
    assert partial == first
    assert len(open(path).read().splitlines()) == first.class_count + 1

    # interrupted (half-written) trailing line is tolerated
    with open(path, "w") as fh:
        fh.writelines(lines[:4])
        fh.write(lines[4][: len(lines[4]) // 2])
    assert build_chain(200, workers=1, checkpoint_path=path) == first

    # edited class content breaks the hash chain
    bad = lines[2].replace('"members": [', '"members": [999, ', 1)
    with open(path, "w") as fh:
        fh.writelines([lines[0], lines[1], bad] + lines[3:])
    with pytest.raises(CheckpointError):
        build_chain(200, workers=1, checkpoint_path=path)

    # range mismatch is rejected
    with open(path, "w") as fh:
        fh.writelines(lines)
    with pytest.raises(CheckpointError):
        build_chain(300, workers=1, checkpoint_path=path)


def test_checkpoint_torn_tail_survives_two_resumes(tmp_path):
    path = str(tmp_path / "verify.ckpt")
    first = build_chain(60, workers=1, checkpoint_path=path)
    intact = open(path).read()
    lines = intact.splitlines(True)

    # half of line 5, then a complete line 5 whose newline never landed
    for tail in (lines[4][: len(lines[4]) // 2], lines[4][:-1]):
        with open(path, "w") as fh:
            fh.writelines(lines[:4])
            fh.write(tail)
        assert build_chain(60, workers=1, checkpoint_path=path) == first
        assert build_chain(60, workers=1, checkpoint_path=path) == first
        assert open(path).read() == intact


def test_checkpoint_parallel_matches_serial(tmp_path):
    p1 = str(tmp_path / "serial.ckpt")
    p2 = str(tmp_path / "parallel.ckpt")
    r1 = build_chain(300, workers=1, checkpoint_path=p1)
    r2 = build_chain(300, workers=2, checkpoint_path=p2)
    assert r1 == r2
    assert open(p1).read() == open(p2).read()


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


def test_dead_worker_ends_the_run_and_keeps_the_checkpoint(tmp_path):
    """A worker process that dies mid-class makes `verify` exit 1 instead
    of waiting forever for its result; the checkpoint stays loadable and
    resumes to the full report."""
    path = str(tmp_path / "verify.ckpt")
    script = textwrap.dedent(
        f"""
        import os
        import sys

        from cycorder import cli, order

        real_task = order._class_task

        def dying_task(args):
            if args[0] == 12:  # the class {{13, 21, 26, 28, 36, 42}}
                os._exit(1)
            return real_task(args)

        order._class_task = dying_task
        sys.exit(cli.main(["-w", "2", "verify", "60", "--checkpoint", {path!r}]))
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cycorder.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
    )
    assert done.returncode == 1, done.stderr
    assert "worker process died" in done.stderr
    checkpoint = CheckpointFile(path, 60)
    assert 12 not in checkpoint.completed
    assert build_chain(60, checkpoint_path=path) == build_chain(60)
