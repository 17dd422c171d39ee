"""Total-order construction and verification over ranges of indices.

A totient gap already orders two indices, smaller totient first
(`comparator.compare` proves it), so the range {1..N} splits into
totient classes and only pairs inside one class need a closer look.
Each class is sorted by asymptotic order, which is the lexicographic
order of its members' negated Ramanujan sums (-c_n(1), -c_n(2), ...),
and its k - 1 adjacent pairs are certified from those sums
(`comparator.ramanujan_compare`); by transitivity that verifies
comparability of every pair in the class (proof in `sort_class`).  No
polynomial, kernel or packed value is built.  The sorted classes
concatenate, ascending by totient value, into the full chain.

Classes run in one process in ascending totient order; one loop
records, checkpoints and reports each, and the cache, which holds only
the values an exact fallback evaluated, is emptied after every class.
A class's summary is read off the comparison records its cert_hash
covers; `ChainReport.from_record` builds the report.  The checkpoint
is a hash-chained JSON-lines file, one line per class, flushed as each
class finishes and synced to disk after each second of classes and
when the run ends; loading verifies the chain.

A finite chain can only claim positions in the infinite sequence for
entries whose totient class is already complete below the range bound
(class of value v is complete iff max(inverse_totient(v)) <= range_max);
the report carries that stable prefix length.  Likewise `precedes` is
decided relative to the totient band [totient(m), totient(n)], which is a
complete reduction: any x between m and n in the order must satisfy
totient(m) <= totient(x) <= totient(n), because a totient gap forces the
order the other way (proof in `comparator.compare`).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from array import array
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Iterable

from .arith import inverse_totient, totient, totient_table
from .comparator import (
    Certificate,
    RamanujanSums,
    Verdict,
    certificate_from_record,
    compare,
    comparison_record,
    ramanujan_compare,
    record_to_json,
)
from .cyclotomic import CycloCache

CHECKPOINT_VERSION = 3  # checkpoint line format; a file of another version is refused
CHECKPOINT_SYNC_INTERVAL_S = 1.0  # wall time between two fsyncs of a checkpoint's appends


class OrderingError(Exception):
    """Base class for ordering-specific failures."""


class NotLessError(OrderingError):
    """The requested relation requires m strictly below n, which does not hold."""

    def __init__(self, m: int, n: int, verdict: Verdict):
        super().__init__(f"not ≺-related: compare({m}, {n}) is {verdict.value}")
        self.m, self.n, self.verdict = m, n, verdict


class IncomparablePairError(OrderingError):
    """A comparison needed by the operation came back INCOMPARABLE."""

    def __init__(self, m: int, n: int, certificate: Certificate):
        super().__init__(
            f"indices {m} and {n} are incomparable; "
            f"flip witnesses {certificate.flip_witnesses}"
        )
        self.m, self.n, self.certificate = m, n, certificate


class CheckpointError(Exception):
    """Checkpoint file is unusable: unopenable, hash-chain mismatch or wrong parameters."""


@dataclass
class PhiClass:
    """All indices in range sharing one totient value, ascending."""

    phi_value: int
    members: list[int]


@dataclass
class PrecedesReport:
    """Outcome of an immediate-successor check between two indices."""

    m: int
    n: int
    holds: bool
    candidates_examined: list[int]
    blockers: list[int]


@dataclass
class ChainReport:
    """The verified chain over {1..range_max} with evidence summary.

    When incomparable_pairs is empty, sequence is a permutation of
    1..range_max in which adjacent same-class pairs carry LESS
    certificates and cross-class ordering follows the totient gap, which
    `comparator.compare` proves.  The sequence is kept compact, as an
    `array("I")` (4 bytes an index, where a list of ints takes about 36);
    `stable_prefix` is a list.
    """

    range_max: int
    sequence: array
    class_count: int
    pair_count: int
    incomparable_pairs: list[tuple[int, int, Certificate]] = field(default_factory=list)
    tie_pairs: list[tuple[int, int, int]] = field(default_factory=list)
    stable_prefix_len: int = 0
    max_checked_q: int = 0

    @property
    def stable_prefix(self) -> list[int]:
        return self.sequence[: self.stable_prefix_len].tolist()

    def to_record(self) -> dict:
        return {
            "range_max": self.range_max,
            "sequence": list(self.sequence),
            "class_count": self.class_count,
            "pair_count": self.pair_count,
            "incomparable_pairs": [
                comparison_record(m, n, Verdict.INCOMPARABLE, cert)
                for m, n, cert in self.incomparable_pairs
            ],
            "tie_pairs": [list(t) for t in self.tie_pairs],
            "stable_prefix_len": self.stable_prefix_len,
            "max_checked_q": self.max_checked_q,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "ChainReport":
        parsed = map(certificate_from_record, rec["incomparable_pairs"])
        return cls(
            range_max=rec["range_max"],
            sequence=array("I", rec["sequence"]),
            class_count=rec["class_count"],
            pair_count=rec["pair_count"],
            incomparable_pairs=[(m, n, cert) for m, n, _, cert in parsed],
            tie_pairs=[tuple(t) for t in rec["tie_pairs"]],
            stable_prefix_len=rec["stable_prefix_len"],
            max_checked_q=rec["max_checked_q"],
        )


def phi_classes(range_max: int) -> list[PhiClass]:
    """Partition {1..range_max} into totient classes, ascending by value."""
    if range_max < 1:
        raise ValueError(f"range_max must be >= 1, got {range_max}")
    phi = totient_table(range_max).__getitem__
    # a stable sort keeps each class's members ascending
    ordered = sorted(range(1, range_max + 1), key=phi)
    return [PhiClass(v, list(members)) for v, members in groupby(ordered, key=phi)]


def class_is_complete(phi_value: int, range_max: int) -> bool:
    """Whether no index above range_max shares this totient value."""
    preimages = inverse_totient(phi_value)
    return bool(preimages) and preimages[-1] <= range_max


def stable_prefix_length(classes: Iterable[PhiClass], range_max: int) -> int:
    """Entries before the first incomplete class keep their positions as the
    range grows; everything at or after it may shift."""
    n = 0
    for cls in classes:
        if not class_is_complete(cls.phi_value, range_max):
            break
        n += len(cls.members)
    return n


def sort_class(
    phi_class: PhiClass,
    cache: CycloCache,
    *,
    cert_sink: Callable[[int, int, Verdict, Certificate], None] | None = None,
) -> list[int]:
    """Sort one class by asymptotic order and certify its adjacent pairs.

    Members are sorted by their negated Ramanujan sums, lexicographically
    and lazily (`comparator.RamanujanSums`): that is the asymptotic
    order, a strict total order, since distinct indices have distinct
    polynomials.  Then `ramanujan_compare` runs on the k - 1 adjacent
    pairs (a, b), in order, and each (a, b, verdict, certificate) goes to
    cert_sink when one is given; nothing else keeps the certificates, so
    batch runs stay flat in memory.  Neither step reads a coefficient, so
    the cache receives only the values of an exact fallback.  Returns the
    ordered members; an INCOMPARABLE pair reaches cert_sink as data and is
    never raised.  Any other verdict but LESS contradicts the sort and
    raises ArithmeticError.

    Why k - 1 certificates prove what all k(k-1)/2 pairs would:

    1. LESS means Phi_a(q) <= Phi_b(q) at every integer q >= 2, a
       transitive relation, so LESS certificates on every adjacent pair
       chain to every pair of the class: the class is totally ordered.
    2. a LESS b implies that a precedes b asymptotically, since the
       difference is nonzero and its sign for large q is its leading sign.
       So a total order on the class is contained in the asymptotic
       order and, both being total, equals it.  Hence the class has an
       incomparable pair exactly when some adjacent pair is not LESS, and
       the verdict keeps its meaning.
    3. In a totally ordered class, Phi_a(q) = Phi_c(q) with a before c
       forces Phi_a(q) <= Phi_b(q) <= Phi_c(q) = Phi_a(q) for every b
       between them, so each adjacent pair from a to c ties at q.  The
       set of indices in some tied pair is therefore the set of indices
       in some tied adjacent pair.
    """
    if not phi_class.members:
        raise ValueError("empty totient class")
    ordered = sorted(map(RamanujanSums, phi_class.members))
    for a, b in zip(ordered, ordered[1:]):
        verdict, cert = ramanujan_compare(a, b, cache)
        if cert_sink is not None:
            cert_sink(a.n, b.n, verdict, cert)
        if verdict not in (Verdict.LESS, Verdict.INCOMPARABLE):
            raise ArithmeticError(
                f"internal: sorted neighbours {a.n}, {b.n} compare {verdict.value}"
            )
    return [s.n for s in ordered]


# ---------------------------------------------------------------------------
# per-class summaries (shared by build_chain and the checkpoint file)
# ---------------------------------------------------------------------------


def _finish_class(phi_class: PhiClass, cache: CycloCache) -> dict:
    """Sort and summarize one class, then empty the cache.  The sink
    builds each adjacent pair's `comparison_record` once, hashes its JSON
    line into `cert_hash` and keeps it; the rest of the summary is read
    off those records, so it says nothing the hash does not cover."""
    digest = hashlib.sha256()
    records: list[dict] = []

    def sink(m: int, n: int, verdict: Verdict, cert: Certificate) -> None:
        rec = comparison_record(m, n, verdict, cert)
        digest.update(record_to_json(rec).encode())
        digest.update(b"\n")
        records.append(rec)

    ordered = sort_class(phi_class, cache, cert_sink=sink)
    cache.trim()
    return {
        "phi": phi_class.phi_value,
        "members": ordered,
        "pair_count": len(records),
        "max_checked_q": max((r["checked_q_max"] for r in records), default=0),
        "ties": [[r["m"], r["n"], q] for r in records for q in r["tie_witnesses"]],
        "incomparable": [r for r in records if r["verdict"] == Verdict.INCOMPARABLE.value],
        "cert_hash": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# checkpointing: hash-chained JSON lines, one line per completed class
# ---------------------------------------------------------------------------


def _chain_hash(prev_hex: str, body: dict) -> str:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256((prev_hex + canonical).encode()).hexdigest()


class CheckpointFile:
    """Append-only resume file for long verification runs.

    Line 1 is a header carrying the format version (CHECKPOINT_VERSION)
    and range_max; each further line records one completed class.  Every
    line carries a chain hash over the previous line's hash plus its own
    body, so silent edits or reordering are detected at load time.  A
    malformed trailing line (interrupted write) is discarded and cut from
    the file, so later appends start on a fresh line; a chain mismatch in
    well-formed lines, another version or another range_max raises
    CheckpointError.  Classes are written in ascending totient order, so
    the classes on file are always the lowest ones.

    The first `append` opens one append handle, kept until `close()`;
    an instance used only to load opens none.  Each class line is
    written and flushed at once, so it is in the operating system before
    `build_chain` reports the class.  `os.fsync` runs in an `append`
    that comes CHECKPOINT_SYNC_INTERVAL_S of wall time or more after the
    handle was opened or last synced, and once more in `close()`, which
    `build_chain` calls however its class loop ends.  Why no run loses
    what its resume needs:

    1. Process death (SIGKILL, a crash of the interpreter) loses no
       flushed line: the kernel holds the file's data whether or not the
       process lives, and every reported class was flushed first.
    2. A normal end, an exception and Ctrl-C (KeyboardInterrupt) all
       leave `build_chain` through `close()`, so the file is synced when
       the run returns, fails or exits 130.
    3. An operating-system crash or power loss can drop the lines
       written since the last sync: classes begun and finished within
       CHECKPOINT_SYNC_INTERVAL_S of it, about that much work.  They
       are the highest classes on file, so a file that lost its tail is
       still a prefix of the run, and resuming recomputes them; damage
       anywhere but the final line makes the load fail (exit 4), never
       resume wrongly.
    4. A line cut short by any of these is a malformed final line, which
       `_load` discards and cuts; an edited or reordered line still
       breaks the hash chain.
    """

    def __init__(self, path: str, range_max: int):
        self.path = path
        self.range_max = range_max
        self.completed: dict[int, dict] = {}
        self._last_hash = ""
        self._last_phi = -1
        self._fh = None  # the append handle, opened by the first append
        self._synced_at = 0.0
        if os.path.exists(path) and os.path.getsize(path) > 0:
            self._load()
        else:
            header = {"kind": "header", "version": CHECKPOINT_VERSION, "range_max": range_max}
            header["chain"] = _chain_hash("", header)
            self._last_hash = header["chain"]
            with self._open("w") as fh:
                fh.write(json.dumps(header, sort_keys=True) + "\n")

    def _open(self, mode: str):
        """open(self.path, mode), with an OSError raised as CheckpointError."""
        try:
            return open(self.path, mode, encoding=None if "b" in mode else "utf-8")
        except OSError as exc:
            raise CheckpointError(f"{self.path}: cannot be opened: {exc.strerror or exc}") from exc

    def _load(self) -> None:
        with self._open("rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        parsed: list[dict] = []
        good_end = 0  # byte offset just past the last line kept
        torn = False
        for i, line in enumerate(lines):
            if line.strip():
                try:
                    parsed.append(json.loads(line))
                except ValueError:
                    if i == len(lines) - 1:
                        torn = True  # interrupted final write; drop it
                        break
                    raise CheckpointError(f"{self.path}: malformed line {i + 1}")
            good_end += len(line)
        if not parsed or parsed[0].get("kind") != "header":
            raise CheckpointError(f"{self.path}: missing header line")
        header = parsed[0]
        body = {k: v for k, v in header.items() if k != "chain"}
        if _chain_hash("", body) != header.get("chain"):
            raise CheckpointError(f"{self.path}: header hash mismatch")
        for key, wanted in (("version", CHECKPOINT_VERSION), ("range_max", self.range_max)):
            if header.get(key) != wanted:
                raise CheckpointError(
                    f"{self.path}: checkpoint has {key}={header.get(key)!r}, wanted {wanted}"
                )
        prev = header["chain"]
        for i, rec in enumerate(parsed[1:], start=2):
            body = {k: v for k, v in rec.items() if k != "chain"}
            if _chain_hash(prev, body) != rec.get("chain"):
                raise CheckpointError(f"{self.path}: hash chain mismatch at line {i}")
            prev = rec["chain"]
            if rec.get("kind") == "class":
                self.completed[rec["phi"]] = body
                self._last_phi = rec["phi"]
        self._last_hash = prev
        # the next append must start on a fresh line: cut the torn tail's
        # bytes, or end a complete final line whose newline was never written
        if torn or not lines[-1].endswith(b"\n"):
            with self._open("r+b") as fh:
                fh.truncate(good_end)
                if not torn:
                    fh.seek(good_end)
                    fh.write(b"\n")
                fh.flush()
                os.fsync(fh.fileno())

    def append(self, summary: dict) -> None:
        if summary["phi"] <= self._last_phi:
            return  # already on file
        rec = dict(summary)
        rec["kind"] = "class"
        rec["chain"] = _chain_hash(self._last_hash, rec)
        if self._fh is None:
            self._fh = self._open("a")
            self._synced_at = time.monotonic()
        self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
        self._fh.flush()
        now = time.monotonic()
        if now - self._synced_at >= CHECKPOINT_SYNC_INTERVAL_S:
            os.fsync(self._fh.fileno())
            self._synced_at = now
        self._last_hash = rec["chain"]
        self._last_phi = rec["phi"]
        self.completed[rec["phi"]] = summary

    def close(self) -> None:
        """Sync and close the append handle, if `append` opened one."""
        if self._fh is None:
            return
        try:
            self._fh.flush()
            os.fsync(self._fh.fileno())
        finally:
            self._fh.close()
            self._fh = None


# ---------------------------------------------------------------------------
# chain construction
# ---------------------------------------------------------------------------

ProgressFn = Callable[[int, int, dict], None]


def build_chain(
    range_max: int,
    workers: int = 1,
    *,
    checkpoint_path: str | None = None,
    progress: ProgressFn | None = None,
) -> ChainReport:
    """Sort {1..range_max} into the full chain, verifying comparability.

    Classes run in this process in ascending totient order, and one loop
    records, checkpoints and reports (`progress`) each; the checkpoint is
    synced and closed however the loop ends (`CheckpointFile`).  A later
    call resumes after the last class on file.  The summaries fold, in
    class order, into one report record that `ChainReport.from_record`
    reads.  `workers` is checked (>= 1) and otherwise ignored: the run is
    one process, so any worker count gives the same results.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    classes = phi_classes(range_max)
    checkpoint = CheckpointFile(checkpoint_path, range_max) if checkpoint_path else None
    summaries: dict[int, dict] = dict(checkpoint.completed) if checkpoint else {}

    cache = CycloCache()
    try:
        for cls in classes:
            if cls.phi_value in summaries:
                continue  # on file from an earlier run
            summary = summaries[cls.phi_value] = _finish_class(cls, cache)
            if checkpoint is not None:
                checkpoint.append(summary)
            if progress is not None:
                progress(len(summaries), len(classes), summary)
    finally:
        if checkpoint is not None:
            checkpoint.close()

    done = [summaries[cls.phi_value] for cls in classes]
    record = {
        "range_max": range_max,
        "sequence": [x for s in done for x in s["members"]],
        "class_count": len(done),
        "pair_count": sum(s["pair_count"] for s in done),
        "incomparable_pairs": [r for s in done for r in s["incomparable"]],
        "tie_pairs": [t for s in done for t in s["ties"]],
        "stable_prefix_len": stable_prefix_length(classes, range_max),
        "max_checked_q": max(s["max_checked_q"] for s in done),
    }
    return ChainReport.from_record(record)


# ---------------------------------------------------------------------------
# immediate-successor checking
# ---------------------------------------------------------------------------


def precedes(m: int, n: int, cache: CycloCache) -> PrecedesReport:
    """Check that m comes directly before n: m below n with nothing between.

    Candidates are every index x (other than m, n) whose totient lies in
    [totient(m), totient(n)], a complete reduction: anything outside that
    band is forced to one side of both m and n by its totient alone (the
    totient gap, proved in `comparator.compare`).
    Raises NotLessError when m is not strictly below n, and
    IncomparablePairError if any needed comparison is INCOMPARABLE.
    """
    if m == n:
        raise ValueError("precedes needs two distinct indices")
    verdict, cert = compare(m, n, cache)
    if verdict is Verdict.INCOMPARABLE:
        raise IncomparablePairError(m, n, cert)
    if verdict is not Verdict.LESS:
        raise NotLessError(m, n, verdict)

    candidates: list[int] = []
    for v in range(totient(m), totient(n) + 1):
        candidates.extend(x for x in inverse_totient(v) if x != m and x != n)
    candidates.sort()

    blockers: list[int] = []
    for x in candidates:
        v1, c1 = compare(m, x, cache)
        if v1 is Verdict.INCOMPARABLE:
            raise IncomparablePairError(m, x, c1)
        if v1 is not Verdict.LESS:
            continue
        v2, c2 = compare(x, n, cache)
        if v2 is Verdict.INCOMPARABLE:
            raise IncomparablePairError(x, n, c2)
        if v2 is Verdict.LESS:
            blockers.append(x)

    return PrecedesReport(m, n, not blockers, candidates, blockers)


def check_conjecture2(i_max: int) -> list[PrecedesReport]:
    """Immediate-successor reports for the pairs (2*3^i, 3^i), i = 1..i_max.

    The expected pattern is a single blocker (4) at i = 1 and a clean
    immediate succession for i >= 2; outcomes are computed, not presumed.
    """
    if i_max < 1:
        raise ValueError(f"i_max must be >= 1, got {i_max}")
    cache = CycloCache()
    return [precedes(2 * 3**i, 3**i, cache) for i in range(1, i_max + 1)]


# ---------------------------------------------------------------------------
# sequence output formats (stable prefix only)
# ---------------------------------------------------------------------------


def format_plain(report: ChainReport) -> str:
    """One index per line."""
    return "\n".join(str(x) for x in report.stable_prefix)


def format_bfile(report: ChainReport) -> str:
    """OEIS b-file style: "k a(k)" per line, k starting at 1."""
    return "\n".join(f"{k} {x}" for k, x in enumerate(report.stable_prefix, start=1))


def format_delimited(report: ChainReport) -> str:
    """CSV with columns position, index, totient, tie_flag."""
    tied = {m for m, _, _ in report.tie_pairs} | {n for _, n, _ in report.tie_pairs}
    lines = ["position,index,totient,tie_flag"]
    for k, x in enumerate(report.stable_prefix, start=1):
        lines.append(f"{k},{x},{totient(x)},{1 if x in tied else 0}")
    return "\n".join(lines)
