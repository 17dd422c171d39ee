"""Total-order construction and verification over ranges of indices.

A totient gap already orders two indices (smaller totient first), so the
range {1..N} splits into totient classes and only pairs inside one class
need polynomial comparison.  Each class is sorted by exhaustive pairwise
comparison (the point is to *verify* comparability, so no pair is
skipped) and the sorted classes concatenate, ascending by totient value,
into the full chain.

Classes are independent work units: a worker pool processes them with
per-worker polynomial caches and the aggregation orders results by
totient value, so report content does not depend on scheduling or worker
count.  Progress can be checkpointed per completed class and resumed; the
checkpoint is a hash-chained JSON-lines file and loading verifies the
chain.

A finite chain can only claim positions in the infinite sequence for
entries whose totient class is already complete below the range bound
(class of value v is complete iff max(inverse_totient(v)) <= range_max);
the report carries that stable prefix length.  Likewise `precedes` is
decided relative to the totient band [totient(m), totient(n)], which is a
complete reduction: any x between m and n in the order must satisfy
totient(m) <= totient(x) <= totient(n), because a totient gap forces the
order the other way.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Callable, Iterable

from .arith import inverse_totient, totient
from .comparator import (
    Certificate,
    Verdict,
    certificate_from_record,
    compare,
    comparison_record,
    record_to_json,
)
from .cyclotomic import CycloCache

DEFAULT_TRIM_BOUND = 4096  # worker caches drop entries above this after each class


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
    """Checkpoint file is unusable: hash-chain mismatch or wrong parameters."""


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
    certificates and cross-class ordering follows the totient gap.
    """

    range_max: int
    sequence: list[int]
    class_count: int
    pair_count: int
    incomparable_pairs: list[tuple[int, int, Certificate]] = field(default_factory=list)
    tie_pairs: list[tuple[int, int, int]] = field(default_factory=list)
    stable_prefix_len: int = 0
    max_threshold_c: int = 0

    @property
    def stable_prefix(self) -> list[int]:
        return self.sequence[: self.stable_prefix_len]

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
            "max_threshold_c": self.max_threshold_c,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "ChainReport":
        incomparable = []
        for r in rec["incomparable_pairs"]:
            m, n, _, cert = certificate_from_record(r)
            incomparable.append((m, n, cert))
        return cls(
            range_max=rec["range_max"],
            sequence=list(rec["sequence"]),
            class_count=rec["class_count"],
            pair_count=rec["pair_count"],
            incomparable_pairs=incomparable,
            tie_pairs=[tuple(t) for t in rec["tie_pairs"]],
            stable_prefix_len=rec["stable_prefix_len"],
            max_threshold_c=rec["max_threshold_c"],
        )


def phi_classes(range_max: int) -> list[PhiClass]:
    """Partition {1..range_max} into totient classes, ascending by value."""
    if range_max < 1:
        raise ValueError(f"range_max must be >= 1, got {range_max}")
    buckets: dict[int, list[int]] = {}
    for x in range(1, range_max + 1):
        buckets.setdefault(totient(x), []).append(x)
    return [PhiClass(v, buckets[v]) for v in sorted(buckets)]


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
) -> tuple[list[int], list[tuple[int, int, Certificate]]]:
    """Exhaustively compare one class and return its members in order.

    Runs compare on all k*(k-1)/2 member pairs, in ascending pair order,
    and hands each (m, n, verdict, certificate) to cert_sink when one is
    given; nothing else keeps the certificates, so batch runs stay flat in
    memory.  Returns (ordered_members, incomparable); incomparable pairs
    are reported as data, never raised.
    """
    members = phi_class.members
    k = len(members)
    if k == 0:
        raise ValueError("empty totient class")
    rank = [0] * k
    incomparable: list[tuple[int, int, Certificate]] = []
    for i in range(k):
        mi = members[i]
        for j in range(i + 1, k):
            mj = members[j]
            verdict, cert = compare(mi, mj, cache)
            if cert_sink is not None:
                cert_sink(mi, mj, verdict, cert)
            if verdict is Verdict.LESS:
                rank[j] += 1
            elif verdict is Verdict.GREATER:
                rank[i] += 1
            else:
                incomparable.append((mi, mj, cert))
    ordered = [m for _, m in sorted(zip(rank, members))]
    return ordered, incomparable


# ---------------------------------------------------------------------------
# per-class summaries (shared by the serial path, the worker pool, and the
# checkpoint file)
# ---------------------------------------------------------------------------


def _summarize_class(phi_value: int, members: list[int], cache: CycloCache) -> dict:
    digest = hashlib.sha256()
    ties: list[list[int]] = []
    max_c = 0

    def sink(m: int, n: int, verdict: Verdict, cert: Certificate) -> None:
        nonlocal max_c
        digest.update(record_to_json(comparison_record(m, n, verdict, cert)).encode())
        digest.update(b"\n")
        if cert.threshold_c > max_c:
            max_c = cert.threshold_c
        for q in cert.tie_witnesses:
            ties.append([m, n, q])

    ordered, incomparable = sort_class(
        PhiClass(phi_value, members), cache, cert_sink=sink
    )
    return {
        "phi": phi_value,
        "members": ordered,
        "pair_count": len(members) * (len(members) - 1) // 2,
        "max_threshold_c": max_c,
        "ties": ties,
        "incomparable": [
            comparison_record(m, n, Verdict.INCOMPARABLE, cert)
            for m, n, cert in incomparable
        ],
        "cert_hash": digest.hexdigest(),
    }


_worker_cache: CycloCache | None = None
_worker_trim: int = DEFAULT_TRIM_BOUND


def _init_worker(trim_bound: int) -> None:
    global _worker_cache, _worker_trim
    _worker_cache = CycloCache()
    _worker_trim = trim_bound


def _class_task(args: tuple[int, list[int]]) -> dict:
    phi_value, members = args
    summary = _summarize_class(phi_value, members, _worker_cache)
    _worker_cache.trim(_worker_trim)
    return summary


# ---------------------------------------------------------------------------
# checkpointing: hash-chained JSON lines, one line per completed class
# ---------------------------------------------------------------------------


def _chain_hash(prev_hex: str, body: dict) -> str:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256((prev_hex + canonical).encode()).hexdigest()


class CheckpointFile:
    """Append-only resume file for long verification runs.

    Line 1 is a header carrying range_max; each further line records one
    completed class.  Every line carries a chain hash over the previous
    line's hash plus its own body, so silent edits or reordering are
    detected at load time.  A malformed trailing line (interrupted write)
    is discarded and cut from the file, so later appends start on a fresh
    line; a chain mismatch in well-formed lines raises
    CheckpointError.  Classes are written in ascending totient order, so
    a resumed run re-does at most the classes that finished out of order.
    """

    def __init__(self, path: str, range_max: int):
        self.path = path
        self.range_max = range_max
        self.completed: dict[int, dict] = {}
        self._last_hash = ""
        self._last_phi = -1
        if os.path.exists(path) and os.path.getsize(path) > 0:
            self._load()
        else:
            header = {"kind": "header", "version": 1, "range_max": range_max}
            header["chain"] = _chain_hash("", {k: v for k, v in header.items()})
            self._last_hash = header["chain"]
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(header, sort_keys=True) + "\n")

    def _load(self) -> None:
        with open(self.path, "rb") as fh:
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
        if header.get("range_max") != self.range_max:
            raise CheckpointError(
                f"{self.path}: checkpoint is for range_max={header.get('range_max')}, "
                f"requested {self.range_max}"
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
            with open(self.path, "r+b") as fh:
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
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._last_hash = rec["chain"]
        self._last_phi = rec["phi"]
        self.completed[rec["phi"]] = summary


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
    trim_bound: int = DEFAULT_TRIM_BOUND,
) -> ChainReport:
    """Sort {1..range_max} into the full chain, verifying comparability.

    Classes are distributed over `workers` processes (1 = in-process).
    Report content is identical for any worker count.  With a checkpoint
    path, completed classes are persisted as they finish and a later call
    resumes from them.  A worker process that dies (killed, out of
    memory) raises concurrent.futures.process.BrokenProcessPool; the
    classes finished before it are already on the checkpoint.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    classes = phi_classes(range_max)
    checkpoint = CheckpointFile(checkpoint_path, range_max) if checkpoint_path else None

    summaries: dict[int, dict] = dict(checkpoint.completed) if checkpoint else {}
    todo = [(c.phi_value, c.members) for c in classes if c.phi_value not in summaries]
    done_count = len(summaries)
    total = len(classes)

    def note(summary: dict) -> None:
        nonlocal done_count
        summaries[summary["phi"]] = summary
        done_count += 1
        if progress is not None:
            progress(done_count, total, summary)

    def flush_checkpoint() -> None:
        if checkpoint is None:
            return
        for cls in classes:
            s = summaries.get(cls.phi_value)
            if s is None:
                break
            checkpoint.append(s)

    if workers == 1 or len(todo) <= 1:
        cache = CycloCache()
        for phi_value, members in todo:
            note(_summarize_class(phi_value, members, cache))
            flush_checkpoint()
            cache.trim(trim_bound)
    else:
        # imported here: the pool's modules add about 1.6 MB to every
        # process, and serial runs never need them
        from concurrent.futures import ProcessPoolExecutor, as_completed

        # forked workers start from this process's state; a worker that dies
        # breaks the pool, and the pending results raise BrokenProcessPool
        # instead of waiting forever
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=get_context(),
            initializer=_init_worker,
            initargs=(trim_bound,),
        )
        try:
            for future in as_completed([pool.submit(_class_task, t) for t in todo]):
                note(future.result())
                flush_checkpoint()
        finally:
            pool.shutdown(cancel_futures=True)

    sequence: list[int] = []
    pair_count = 0
    max_c = 0
    ties: list[tuple[int, int, int]] = []
    incomparable: list[tuple[int, int, Certificate]] = []
    for cls in classes:
        s = summaries[cls.phi_value]
        sequence.extend(s["members"])
        pair_count += s["pair_count"]
        max_c = max(max_c, s["max_threshold_c"])
        ties.extend(tuple(t) for t in s["ties"])
        for rec in s["incomparable"]:
            m, n, _, cert = certificate_from_record(rec)
            incomparable.append((m, n, cert))

    return ChainReport(
        range_max=range_max,
        sequence=sequence,
        class_count=total,
        pair_count=pair_count,
        incomparable_pairs=incomparable,
        tie_pairs=ties,
        stable_prefix_len=stable_prefix_length(classes, range_max),
        max_threshold_c=max_c,
    )


# ---------------------------------------------------------------------------
# immediate-successor checking
# ---------------------------------------------------------------------------


def precedes(m: int, n: int, cache: CycloCache) -> PrecedesReport:
    """Check that m comes directly before n: m below n with nothing between.

    Candidates are every index x (other than m, n) whose totient lies in
    [totient(m), totient(n)], a complete reduction: anything outside that
    band is forced to one side of both m and n by its totient alone.
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
    reports = []
    for i in range(1, i_max + 1):
        reports.append(precedes(2 * 3**i, 3**i, cache))
    return reports


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
