"""Mutation checks of the proofs' code.

Each row of MUTANTS breaks one step that a docstring proof relies on,
and names tests that must fail on the broken code.  For each row the
script copies src/ to a temporary directory, checks that the row's
snippet occurs exactly once in its file, replaces it, and runs the named
tests with PYTHONPATH on the copy; the copy must be the package that is
imported.  Before any mutant, the named tests must pass on an unchanged
copy.  A mutant survives when its tests all pass.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutations.py

A mutant is killed only when pytest runs and reports a failed test.
The exit status is 0 when every mutant is killed, and 1 when one
survives, a snippet does not occur exactly once, the mutated module
cannot be imported, pytest stops with any other status, or the named
tests do not pass on the unchanged copy.  The file is not a test
module, so pytest does not collect it.  It uses the standard library
only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_NOT_IMPORTED = 64  # the runner's exit status when the module cannot be imported from the copy
# import pytest and the mutated module before pytest starts; a module
# that fails to import, or that comes from anywhere but the copy (an
# installed or cached package), stops the run with _NOT_IMPORTED, so
# that it never reads as pytest's "tests failed"
_RUNNER = (
    "import importlib, os, sys, traceback\n"
    "try:\n"
    "    import pytest\n"
    "    module = importlib.import_module(sys.argv[2])\n"
    "except Exception:\n"
    "    traceback.print_exc()\n"
    f"    sys.exit({_NOT_IMPORTED})\n"
    "src = os.path.join(os.path.abspath(sys.argv[1]), '')\n"
    "if not os.path.abspath(module.__file__).startswith(src):\n"
    "    print(f'imported {sys.argv[2]} from {module.__file__}, not from {sys.argv[1]}', file=sys.stderr)\n"
    f"    sys.exit({_NOT_IMPORTED})\n"
    "sys.exit(pytest.main(sys.argv[3:]))\n"
)


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


ARITH = "cycorder/arith.py"
COMPARATOR = "cycorder/comparator.py"
ORDER = "cycorder/order.py"
T_ARITH = "tests/test_arith.py::"
T_COMPARATOR = "tests/test_comparator.py::"
T_ORDER = "tests/test_order.py::"
T_RECORDS = "tests/test_records.py::"

MUTANTS = (
    Mutant(
        "prime sieve: the power-of-two bound one bit too low",
        ARITH,
        "return _primes_below(1 << n.bit_length())",
        "return _primes_below(1 << (n.bit_length() - 1))",
        (T_ARITH + "test_primes_to_holds_every_prime_up_to_n_and_none_from_2n",),
    ),
    Mutant(
        "window weights: the factor 2 dropped from the tail bound",
        COMPARATOR,
        "for j in range(j0, top + 1)), 2 * lam",
        "for j in range(j0, top + 1)), lam",
        (T_COMPARATOR + "test_sums_sign_is_exact_or_undecided",),
    ),
    Mutant(
        "window of D's top coefficients: >= c loosened to >= c - 1",
        COMPARATOR,
        "    if (q - 1) * abs(total) >= c:\n",
        "    if (q - 1) * abs(total) >= c - 1:\n",
        (T_COMPARATOR + "test_window_sign_is_exact_or_undecided",),
    ),
    Mutant(
        "shared outcome: a sign the window leaves at 0 still takes it, and is stored",
        COMPARATOR,
        "if _window_sum_sign(deltas, j0, q) != lead:",
        "if _window_sum_sign(deltas, j0, q) == -lead:",
        (T_COMPARATOR + "test_an_outcome_with_a_sign_the_window_leaves_at_0_is_not_memoised",),
    ),
    Mutant(
        "shared outcome: a sign against the lead still takes it, and is stored",
        COMPARATOR,
        "if _window_sum_sign(deltas, j0, q) != lead:",
        "if not _window_sum_sign(deltas, j0, q):",
        (T_COMPARATOR + "test_only_an_outcome_the_first_window_decides_is_memoised",),
    ),
    Mutant(
        "memo: the key one delta short",
        COMPARATOR,
        "for j in range(j0, j0 + _WINDOW + 1)])",
        "for j in range(j0, j0 + _WINDOW)])",
        (T_COMPARATOR + "test_memoised_outcomes_equal_unmemoised_ones_to_5000",),
    ),
    Mutant(
        "row key: j0 read one lane off",
        COMPARATOR,
        "_SUMS_BLOCK - (bl - 1) // 8 for bl in",
        "_SUMS_BLOCK - (bl + 7) // 8 for bl in",
        (T_COMPARATOR + "test_row_key_reads_the_first_difference_and_the_window",),
    ),
    Mutant(
        "row key: the difference shifted instead of the two rows",
        COMPARATOR,
        "return j0, (b >> s) - (a >> s)",
        "return j0, (b - a) >> s",
        (T_COMPARATOR + "test_row_key_reads_the_first_difference_and_the_window",),
    ),
    Mutant(
        "row key: s one lane short",
        COMPARATOR,
        "8 * max(0, _SUMS_BLOCK - _WINDOW - j0) for j0",
        "8 * max(0, _SUMS_BLOCK - _WINDOW - j0 - 1) for j0",
        (T_COMPARATOR + "test_row_key_reads_the_first_difference_and_the_window",),
    ),
    Mutant(
        "row route: j0 = 56, whose window ends at lane 64, keyed off the rows",
        COMPARATOR,
        "_LAST_ROW_J0 = _SUMS_BLOCK - _WINDOW - 1\n",
        "_LAST_ROW_J0 = _SUMS_BLOCK - _WINDOW\n",
        (
            T_COMPARATOR + "test_row_key_reads_the_first_difference_and_the_window",
            T_COMPARATOR + "test_two_windows_ending_at_lane_64_share_a_row_key",
        ),
    ),
    Mutant(
        "ramanujan_compare: q* one too low",
        COMPARATOR,
        "stop = 2 * j0 // abs(deltas[0]) + 2  # q*",
        "stop = 2 * j0 // abs(deltas[0]) + 1  # q*",
        (T_COMPARATOR + "test_ramanujan_verdicts_match_compare_to_300",),
    ),
    Mutant(
        "ramanujan_compare: the factor 2 dropped from q*",
        COMPARATOR,
        "stop = 2 * j0 // abs(deltas[0]) + 2  # q*",
        "stop = j0 // abs(deltas[0]) + 2  # q*",
        (T_COMPARATOR + "test_ramanujan_verdicts_match_compare_to_300",),
    ),
    Mutant(
        "_certify: the lead's sign taken where the fast test reads 0",
        COMPARATOR,
        "sign = fast(q) if fast else 0",
        "sign = (fast(q) or lead) if fast else 0",
        (T_COMPARATOR + "test_certify_decides_each_q_below_stop",),
    ),
    Mutant(
        "totient gap: q = 2 left unchecked at a gap of 2",
        COMPARATOR,
        "3 if abs(ln - lm) <= 2 else 2",
        "3 if abs(ln - lm) <= 1 else 2",
        (T_COMPARATOR + "test_gap_verdicts_match_the_oracle_to_120",),
    ),
    Mutant(
        "totient gap: stop moved from 3 to 2, so q = 2 is never checked",
        COMPARATOR,
        "3 if abs(ln - lm) <= 2 else 2",
        "2 if abs(ln - lm) <= 2 else 2",
        (T_COMPARATOR + "test_gap_verdicts_match_the_oracle_to_120",),
    ),
    Mutant(
        "sums sieve: the mu(p^2) = 0 step dropped",
        COMPARATOR,
        'mu[p * p :: p * p] = b"\\x01" * len(range(p * p, size, p * p))',
        "pass",
        (T_COMPARATOR + "test_sieved_rows_and_their_extension_match_hoelder_form_to_3000",),
    ),
    Mutant(
        "sums sieve: the d = j term skipped",
        COMPARATOR,
        "lane = row_sum + sum(",
        "lane = bias * ones + sum(",
        (T_COMPARATOR + "test_sieved_rows_and_their_extension_match_hoelder_form_to_3000",),
    ),
    Mutant(
        "sums sieve: the sign of d * mu(n/d) flipped",
        COMPARATOR,
        "bytes((bias - j, bias, bias + j))",
        "bytes((bias + j, bias, bias - j))",
        (T_COMPARATOR + "test_sieved_rows_and_their_extension_match_hoelder_form_to_3000",),
    ),
    Mutant(
        "sums sieve: a block's first multiple of j taken below the block",
        COMPARATOR,
        "k = max(1, -(-lo // j))",
        "k = max(1, lo // j)",
        (T_COMPARATOR + "test_sieved_row_of_an_index_past_the_small_primes",),
    ),
    Mutant(
        "Hoelder table: the sign flip of mu dropped",
        COMPARATOR,
        "(g // p, -c // (p - 1))",
        "(g // p, c // (p - 1))",
        (T_COMPARATOR + "test_sieved_rows_and_their_extension_match_hoelder_form_to_3000",),
    ),
    Mutant(
        "Hoelder's form: mu(n/g) replaced by mu(g)",
        COMPARATOR,
        "    return table\n",
        "    from .arith import moebius\n    return {g: moebius(g) * moebius(n // g) * c for g, c in table.items()}\n",
        (T_COMPARATOR + "test_hoelder_form_matches_the_divisor_sum_to_3000",),
    ),
    Mutant(
        "first difference: j0 read one too high",
        COMPARATOR,
        "compress(count(1), map(ne",
        "compress(count(2), map(ne",
        (T_COMPARATOR + "test_ramanujan_verdicts_match_compare_to_300",),
    ),
    Mutant(
        "first difference: j0 read one too low",
        COMPARATOR,
        "compress(count(1), map(ne",
        "compress(count(0), map(ne",
        (T_COMPARATOR + "test_ramanujan_verdicts_match_compare_to_300",),
    ),
    Mutant(
        "first difference past the rows: divisors of m scanned instead of lcm(m, n)",
        COMPARATOR,
        "filterfalse(common.__mod__, range(",
        "filterfalse(m.__mod__, range(",
        (T_ORDER + "test_class_sort_matches_pairwise_first_differences_to_5000",),
    ),
    Mutant(
        "first difference past the rows: c_n read at d instead of gcd(n, d)",
        COMPARATOR,
        "terms_n.get(gcd(n, d), 0)",
        "terms_n.get(d, 0)",
        (T_COMPARATOR + "test_the_divisor_scan_reads_each_side_at_its_own_gcd",),
    ),
    Mutant(
        "class sort: the tie-break's sign flipped",
        ORDER,
        "return a.term(j) - b.term(j)",
        "return b.term(j) - a.term(j)",
        (T_ORDER + "test_class_sort_matches_pairwise_first_differences_to_5000",),
    ),
    Mutant(
        "class sort: equal rows given the j0 read off the rows, not the tie-break's",
        ORDER,
        "firsts[a, b] if j0 > _SUMS_BLOCK else j0",
        "j0",
        (
            T_ORDER + "test_class_sort_covers_both_routes[run at the start]",
            T_ORDER + "test_class_sort_covers_both_routes[run in the middle]",
            T_ORDER + "test_class_sort_covers_both_routes[run that is the whole class]",
            T_ORDER + "test_class_sort_covers_both_routes[run at the end]",
        ),
    ),
    Mutant(
        "stable prefix: the F_{K+1} term dropped from _totient_floor",
        ORDER,
        "return min(-(-(limit + 1) * phi // primorial), phi * (p - 1))",
        "return -(-(limit + 1) * phi // primorial)",
        (T_ORDER + "test_totient_floor_bounds_every_larger_index",),
    ),
    Mutant(
        "checkpoint: the chain hash not checked on load",
        ORDER,
        "                if line != expected:\n",
        "                if False:\n",
        (T_ORDER + "test_checkpoint_resume_and_validation",),
    ),
    Mutant(
        "checkpoint: a malformed line before the last taken for a torn tail",
        ORDER,
        "                    if not after:\n",
        "                    if True:\n",
        (T_ORDER + "test_a_malformed_inner_line_is_refused_without_reading_the_file_whole",),
    ),
    Mutant(
        "checkpoint: a resumed class line not compared with the run's own",
        ORDER,
        "                if on_file[i] != _class_body(summary):\n",
        "                if False:\n",
        (
            T_ORDER + "test_a_forged_class_line_is_refused",
            T_ORDER + "test_a_class_line_that_is_not_the_runs_is_refused[order]",
            T_ORDER + "test_a_swap_inside_a_run_of_equal_rows_is_refused",
            T_ORDER + "test_class_lines_out_of_the_runs_order_are_refused[dropped]",
        ),
    ),
    Mutant(
        "checkpoint: more class lines on file than the run has classes",
        ORDER,
        "    if len(on_file) > len(classes):\n",
        "    if False:\n",
        (T_ORDER + "test_class_lines_out_of_the_runs_order_are_refused[duplicated]",),
    ),
    Mutant(
        "checkpoint: an incomparable pair's record written with m and n swapped",
        ORDER,
        "comparison_line(m, n, _INCOMPARABLE, cert) for m, n, cert in",
        "comparison_line(n, m, _INCOMPARABLE, cert) for m, n, cert in",
        (T_ORDER + "test_a_resume_over_an_incomparable_class_line_is_the_run",),
    ),
    Mutant(
        "records: == reads only the first field",
        COMPARATOR,
        "return [getattr(self, f) for f in self.__slots__] == [getattr(other, f) for f in self.__slots__]",
        "return [getattr(self, f) for f in self.__slots__[:1]] == [getattr(other, f) for f in self.__slots__[:1]]",
        (T_RECORDS + "test_a_change_in_any_field_breaks_equality",),
    ),
    Mutant(
        "records: one default list shared by every certificate",
        COMPARATOR,
        "        tie_witnesses: list[int] | None = None,\n",
        "        tie_witnesses: list[int] | None = [],\n",
        (T_RECORDS + "test_default_lists_are_fresh",),
    ),
)


def _copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _run_tests(src: Path, module: str, tests: tuple[str, ...]) -> int:
    """pytest's exit status for `tests` with `module` imported from
    `src` first, or _NOT_IMPORTED; no bytecode or pytest cache is
    written."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-c", _RUNNER, str(src), module, "-q", "-x", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if done.returncode not in (0, 1) and done.stderr:
        print(done.stderr.rstrip(), file=sys.stderr)
    return done.returncode


def check(mutant: Mutant, into: Path) -> str | None:
    """Apply `mutant` to a copy of src/ made under `into` and run its
    tests there: None when they run and fail (the mutant is killed),
    else what went wrong."""
    src = _copy_src(into)
    path = src / mutant.file
    text = path.read_text()
    found = text.count(mutant.snippet)
    if found != 1:
        return f"snippet occurs {found} times in {mutant.file}"
    path.write_text(text.replace(mutant.snippet, mutant.replacement))
    module = mutant.file.removesuffix(".py").replace("/", ".")
    status = _run_tests(src, module, mutant.tests)
    if status == _NOT_IMPORTED:
        return f"{module} cannot be imported from the copy"
    return {0: "SURVIVED", 1: None}.get(status, f"tests did not run (pytest exit {status})")


def main() -> int:
    start, failed = time.monotonic(), []
    with tempfile.TemporaryDirectory(prefix="mutations-") as tmp:
        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        status = _run_tests(_copy_src(Path(tmp) / "unchanged"), "cycorder", tests)
        if status != 0:
            print(f"FAILED: the named tests do not pass on unchanged code (exit {status})")
            return 1
        for i, mutant in enumerate(MUTANTS):
            error = check(mutant, Path(tmp) / str(i))
            print(f"{'killed' if error is None else 'FAILED'}: {mutant.name}" + (f": {error}" if error else ""))
            if error is not None:
                failed.append(mutant.name)
            shutil.rmtree(Path(tmp) / str(i))
    elapsed = time.monotonic() - start
    print(f"{len(MUTANTS) - len(failed)} of {len(MUTANTS)} mutants killed in {elapsed:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
