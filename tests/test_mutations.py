"""The mutation script's own verdicts (tests/mutations.py, which pytest
does not collect; its directory is on sys.path as this module's)."""

from mutations import COMPARATOR, Mutant, check


def test_a_mutant_that_breaks_the_import_is_not_a_kill(tmp_path):
    """A mutated module that raises on import stops the run before
    pytest starts, and is reported as such, not as killed."""
    broken = Mutant(
        "a module-level name left undefined",
        COMPARATOR,
        "\n_WINDOW = 8\n",
        "\n_WINDOW = EIGHT\n",
        ("tests/test_comparator.py::test_window_sign_is_exact_or_undecided",),
    )
    assert check(broken, tmp_path) == "cycorder.comparator cannot be imported from the copy"
