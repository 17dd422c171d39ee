"""The package's four record classes, `Certificate`, `PhiClass`,
`PrecedesReport` and `ChainReport`: plain classes that keep the
constructor, equality, repr and unhashability that their earlier
dataclass form gave, and whose import loads neither `dataclasses` nor
`inspect`."""

import os
import subprocess
import sys
from array import array

import pytest

import cycorder
from cycorder import Certificate, ChainReport, PhiClass, PrecedesReport

# one instance of each class, with the repr its dataclass form printed
PINNED = [
    (
        lambda: Certificate(3, -1, 4, [2], [2, 3], "ramanujan"),
        "Certificate(threshold_c=3, leading_sign=-1, checked_q_max=4, tie_witnesses=[2], "
        "flip_witnesses=[2, 3], shortcut_tag='ramanujan')",
    ),
    (
        lambda: Certificate(0, 1, 2),
        "Certificate(threshold_c=0, leading_sign=1, checked_q_max=2, tie_witnesses=[], "
        "flip_witnesses=[], shortcut_tag=None)",
    ),
    (lambda: PhiClass(4, [5, 8, 10, 12]), "PhiClass(phi_value=4, members=[5, 8, 10, 12])"),
    (
        lambda: PrecedesReport(6, 3, False, [4, 5], [4]),
        "PrecedesReport(m=6, n=3, holds=False, candidates_examined=[4, 5], blockers=[4])",
    ),
    (
        lambda: ChainReport(3, array("I", [1, 2, 3]), 2, 1, [(1, 2, Certificate(0, 1, 2))], [(1, 2, 2)], 2, 2),
        "ChainReport(range_max=3, sequence=array('I', [1, 2, 3]), class_count=2, pair_count=1, "
        "incomparable_pairs=[(1, 2, Certificate(threshold_c=0, leading_sign=1, checked_q_max=2, "
        "tie_witnesses=[], flip_witnesses=[], shortcut_tag=None))], tie_pairs=[(1, 2, 2)], "
        "stable_prefix_len=2, max_checked_q=2)",
    ),
    (
        lambda: ChainReport(1, array("I", [1]), 1, 0),
        "ChainReport(range_max=1, sequence=array('I', [1]), class_count=1, pair_count=0, "
        "incomparable_pairs=[], tie_pairs=[], stable_prefix_len=0, max_checked_q=0)",
    ),
]
IDS = ["certificate", "certificate-defaults", "phi-class", "precedes-report", "chain-report", "chain-report-defaults"]


def test_importing_the_package_and_its_cli_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter that imports cycorder and cycorder.cli adds
    neither module to sys.modules; comparing the modules before and
    after the import keeps a site hook that loads them first from
    hiding one that the package would load."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cycorder.__file__)))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import cycorder, cycorder.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True,
    )
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("make, text", PINNED, ids=IDS)
def test_repr_is_the_dataclass_repr(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make, text", PINNED, ids=IDS)
def test_equal_fields_compare_equal_and_a_tuple_does_not(make, text):
    a, b = make(), make()
    assert a == b and not a != b
    fields = tuple(getattr(a, f) for f in type(a).__slots__)
    assert a != fields and not a == fields
    assert type(a).__eq__(a, fields) is NotImplemented


@pytest.mark.parametrize("make, text", PINNED, ids=IDS)
def test_a_change_in_any_field_breaks_equality(make, text):
    """Each field takes part in ==, the last as much as the first."""
    a = make()
    for f in type(a).__slots__:
        b = make()
        setattr(b, f, object())
        assert a != b, f


@pytest.mark.parametrize("make, text", PINNED, ids=IDS)
def test_instances_are_unhashable(make, text):
    with pytest.raises(TypeError):
        hash(make())


def test_default_lists_are_fresh():
    """Each default list is a new one, as a dataclass field with
    default_factory=list gives: filling one instance's leaves another's
    empty."""
    a, b = Certificate(0, 1, 2), Certificate(0, 1, 2)
    assert a.tie_witnesses is not b.tie_witnesses and a.flip_witnesses is not b.flip_witnesses
    a.tie_witnesses.append(2)
    a.flip_witnesses.append(3)
    assert b == Certificate(0, 1, 2, [], [], None)
    r, s = ChainReport(1, array("I", [1]), 1, 0), ChainReport(1, array("I", [1]), 1, 0)
    assert r.incomparable_pairs is not s.incomparable_pairs and r.tie_pairs is not s.tie_pairs


def test_keywords_and_defaults_are_the_dataclass_ones():
    assert Certificate(threshold_c=1, leading_sign=-1, checked_q_max=2, shortcut_tag="x") == Certificate(
        1, -1, 2, [], [], "x"
    )
    report = ChainReport(range_max=2, sequence=array("I", [1, 2]), class_count=1, pair_count=1, max_checked_q=2)
    assert (report.incomparable_pairs, report.tie_pairs, report.stable_prefix_len) == ([], [], 0)
