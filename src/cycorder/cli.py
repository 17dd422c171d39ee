"""Command-line front end.

Results go to standard output, diagnostics and progress to standard
error, and nothing is written to disk except an explicitly given
checkpoint path.  All numbers print as exact decimals.

Exit codes:
    0   success (comparable pair, total order verified, ...)
    1   runtime failure
    2   usage error (argparse, or an input above its size guard)
    3   an INCOMPARABLE pair was found (scriptable counterexample signal)
    4   checkpoint file rejected (hash chain, version or parameter mismatch,
        or class lines that are not the run's first lines, byte for byte)
        or cannot be opened or written
    130 interrupted; checkpointed progress is on disk: each class line is
        flushed as the class finishes, and the file is synced after each
        second of classes and when the run ends, fails or is interrupted
"""

from __future__ import annotations

import argparse
import json
import sys

from .arith import inverse_totient, totient
from .comparator import Verdict, compare, comparison_line
from .cyclotomic import CycloCache, cyclo, eval_cyclo
from .order import (
    CheckpointError,
    IncomparablePairError,
    NotLessError,
    build_chain,
    check_conjecture2,
    format_bfile,
    format_delimited,
    format_plain,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INCOMPARABLE = 3
EXIT_CHECKPOINT = 4

FORMATS = ("plain", "structured", "oeis-bfile", "delimited")

# Size guards, checked before any work: a larger input exits 2 instead of
# running for hours or exhausting memory (times on a 2-vCPU x86-64 host).
# MAX_CYCLO_INDEX bounds `cyclo N`, both indices of `compare M N`, and
# `chain N` and `verify N`, which certify every index up to N from its
# Ramanujan sums (verify 20000: 0.22-0.29 s, 23.0 MB; verify 100000
# --format structured: 0.87-1.14 s, 38.9 MB, of which the sums table's
# 64-byte rows take 6.4 MB).
MAX_CYCLO_INDEX = 100_000  # cyclo N below it < 0.1 s
# cyclo N Q bounds the bits of Phi_N(Q), fewer than (phi(N) + 1) * bit_length(Q).
# At 2^18 the value took at most 0.6 s (N = 90090, 30030) and printing 0.1 s;
# at 2^20 it took up to 7.6 s, and both costs grow about as the square.
MAX_CYCLO_VALUE_BITS = 2**18
MAX_CONJECTURE2_I = 12  # polynomials of degree 2*3^(I-1); I = 12 takes ~1 s
MAX_INVTOT_VALUE = 10**9  # V = 2615348736000 has 4.7 million preimages (36 s)
# phi N divides N by primes sieved on demand to sqrt(N), or to 10^5 at most;
# above (10^5)^2 it trial-divides past them, for hours at the largest N
MAX_PHI_INDEX = 10**10


def _oversized(name: str, value: int, bound: int) -> bool:
    if value <= bound:
        return False
    print(f"usage error: {name} must be <= {bound}, got {value}", file=sys.stderr)
    return True


# str() refuses an int of more digits than sys.get_int_max_str_digits()
# (4300 by default since Python 3.10.7; no limit below 640 can be set)
_STR_CHUNK = 10**600


def _decimal(x: int) -> str:
    """The nonnegative x as an exact decimal string on any Python: x is
    split at 10^k, k about half its digits, until every part that str()
    converts is below _STR_CHUNK."""
    if x < _STR_CHUNK:
        return str(x)
    k = x.bit_length() * 1233 >> 13  # about half its digits: log10(2) ~ 1233/4096
    hi, lo = divmod(x, 10**k)
    return _decimal(hi) + _decimal(lo).zfill(k)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycorder",
        description=(
            "Exact computation and ordering of cyclotomic polynomial values: "
            "compare indices over all integer arguments q >= 2, build and "
            "verify the induced total order, and check successor claims."
        ),
    )
    parser.add_argument(
        "-w", "--workers", type=_positive, default=1,
        help="accepted for compatibility and ignored: chain/verify run in one process",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="progress detail on stderr (repeatable)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("cyclo", help="print a cyclotomic polynomial (and optionally its value)")
    p.add_argument("n", type=_positive)
    p.add_argument("q", type=int, nargs="?", default=None, help="evaluate at this q >= 2")

    p = sub.add_parser("compare", help="decide the order of two indices over all q >= 2")
    p.add_argument("m", type=_positive)
    p.add_argument("n", type=_positive)
    p.add_argument("--certificate", action="store_true", help="print the certificate record")

    p = sub.add_parser("chain", help="emit the stable prefix of the order on {1..N}")
    p.add_argument("range_max", type=_positive)
    p.add_argument("--format", choices=FORMATS, default="plain", dest="fmt")

    p = sub.add_parser("verify", help="verify the total order on {1..N}")
    p.add_argument("range_max", type=_positive)
    p.add_argument("--checkpoint", default=None, help="resume file, written per completed class")
    p.add_argument("--format", choices=("plain", "structured"), default="plain", dest="fmt")

    p = sub.add_parser("conjecture2", help="check that 2*3^i directly precedes 3^i")
    p.add_argument("i_max", type=_positive)

    p = sub.add_parser("invtot", help="list all x with totient(x) = v")
    p.add_argument("v", type=_positive)

    p = sub.add_parser("phi", help="print the totient of n")
    p.add_argument("n", type=_positive)

    return parser


def cmd_cyclo(n: int, q: int | None) -> int:
    if _oversized("N", n, MAX_CYCLO_INDEX):
        return EXIT_USAGE
    if q is not None:
        if q < 2:
            print(f"usage error: q must be >= 2, got {q}", file=sys.stderr)
            return EXIT_USAGE
        bits = (totient(n) + 1) * q.bit_length()
        if _oversized("(phi(N) + 1) * bit_length(Q)", bits, MAX_CYCLO_VALUE_BITS):
            return EXIT_USAGE
    cache = CycloCache()
    poly = cyclo(n, cache)
    print("# coefficients in ascending degree order (constant term first)", file=sys.stderr)
    print(" ".join(str(c) for c in poly.coeffs))
    if q is not None:
        print(_decimal(eval_cyclo(n, q, cache)))
    return EXIT_OK


def cmd_compare(m: int, n: int, emit_certificate: bool) -> int:
    if _oversized("M", m, MAX_CYCLO_INDEX) or _oversized("N", n, MAX_CYCLO_INDEX):
        return EXIT_USAGE
    cache = CycloCache()
    verdict, cert = compare(m, n, cache)
    print(verdict.value)
    if emit_certificate:
        print(comparison_line(m, n, verdict, cert))
    return EXIT_INCOMPARABLE if verdict is Verdict.INCOMPARABLE else EXIT_OK


def _progress_printer(verbosity: int):
    if verbosity < 1:
        return None

    def progress(done: int, total: int, summary: dict) -> None:
        print(
            f"class phi={summary['phi']} size={len(summary['members'])} "
            f"pairs={summary['pair_count']} ({done}/{total})",
            file=sys.stderr,
        )

    return progress


def cmd_chain(range_max: int, fmt: str, workers: int, verbosity: int) -> int:
    if _oversized("N", range_max, MAX_CYCLO_INDEX):
        return EXIT_USAGE
    report = build_chain(range_max, workers, progress=_progress_printer(verbosity))
    if fmt == "plain":
        text = format_plain(report)
    elif fmt == "oeis-bfile":
        text = format_bfile(report)
    elif fmt == "delimited":
        text = format_delimited(report)
    else:
        text = json.dumps(report.to_record(), sort_keys=True)
    if text:
        print(text)
    print(
        f"stable prefix length={report.stable_prefix_len} "
        f"ties={len(report.tie_pairs)} compares={report.pair_count} "
        f"classes={report.class_count}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_verify(range_max: int, workers: int, checkpoint: str | None, fmt: str, verbosity: int) -> int:
    if _oversized("N", range_max, MAX_CYCLO_INDEX):
        return EXIT_USAGE
    progress = _progress_printer(max(verbosity, 1))
    try:
        report = build_chain(
            range_max, workers, checkpoint_path=checkpoint, progress=progress
        )
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    print(
        f"classes={report.class_count} compares={report.pair_count} "
        f"max checked_q={report.max_checked_q} ties={len(report.tie_pairs)}",
        file=sys.stderr,
    )
    for m, n, q in report.tie_pairs:
        print(f"tie: indices {m}, {n} agree at q={q}", file=sys.stderr)
    if fmt == "structured":
        print(json.dumps(report.to_record(), sort_keys=True))
    if report.incomparable_pairs:
        print("VERDICT INCOMPARABLE-PAIRS")
        for m, n, cert in report.incomparable_pairs:
            print(comparison_line(m, n, Verdict.INCOMPARABLE, cert))
        return EXIT_INCOMPARABLE
    print("VERDICT TOTAL-ORDER")
    return EXIT_OK


def cmd_conjecture2(i_max: int) -> int:
    if _oversized("I", i_max, MAX_CONJECTURE2_I):
        return EXIT_USAGE
    try:
        reports = check_conjecture2(i_max)
    except (NotLessError, IncomparablePairError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPARABLE if isinstance(exc, IncomparablePairError) else EXIT_FAILURE
    for i, rep in enumerate(reports, start=1):
        if rep.holds:
            print(f"i={i} HOLDS")
        else:
            blockers = ",".join(str(b) for b in rep.blockers)
            print(f"i={i} FAILS blockers=[{blockers}]")
    return EXIT_OK


def cmd_invtot(v: int) -> int:
    if _oversized("V", v, MAX_INVTOT_VALUE):
        return EXIT_USAGE
    for x in inverse_totient(v):
        print(x)
    return EXIT_OK


def cmd_phi(n: int) -> int:
    if _oversized("N", n, MAX_PHI_INDEX):
        return EXIT_USAGE
    print(totient(n))
    return EXIT_OK


def run(args: argparse.Namespace) -> int:
    if args.subcommand == "cyclo":
        return cmd_cyclo(args.n, args.q)
    if args.subcommand == "compare":
        return cmd_compare(args.m, args.n, args.certificate)
    if args.subcommand == "chain":
        return cmd_chain(args.range_max, args.fmt, args.workers, args.verbose)
    if args.subcommand == "verify":
        return cmd_verify(args.range_max, args.workers, args.checkpoint, args.fmt, args.verbose)
    if args.subcommand == "conjecture2":
        return cmd_conjecture2(args.i_max)
    if args.subcommand == "invtot":
        return cmd_invtot(args.v)
    if args.subcommand == "phi":
        return cmd_phi(args.n)
    raise AssertionError(f"unhandled subcommand {args.subcommand}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except KeyboardInterrupt:
        print("interrupted; checkpointed progress is on disk", file=sys.stderr)
        return 130
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
