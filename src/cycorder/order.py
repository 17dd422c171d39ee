"""Total-order construction and verification over ranges of indices.

A totient gap already orders two indices, smaller totient first
(`comparator.compare` proves it), so the range {1..N} splits into
totient classes and only pairs inside one class need a closer look.
Each class is sorted by asymptotic order, which is the lexicographic
order of its members' negated Ramanujan sums (-c_n(1), -c_n(2), ...):
one sort on their first 32 terms, with each run of equal prefixes sorted
again on twice as many (`sort_class` proves it).  Its k - 1 adjacent
pairs are certified from those sums (`comparator.ramanujan_compare`);
by transitivity that verifies comparability of every pair in the class
(proof in `sort_class`).  No polynomial, kernel or packed value is
built.  One table per run (`comparator.SumsTable`) holds the first 32
sums of every index, sieved from Ramanujan's definition, and a
smallest-prime-factor table; a member's later terms come from Hoelder's
closed form, whose table it builds, factoring the member off that
table, only when a comparison reads past its row.  The table also holds
the run's memo of pair outcomes: a pair whose window of sums,
(j0, delta_j0, ..., delta_j0+8), an earlier pair of the run already had
takes that pair's verdict, certificate and line template, which
`ramanujan_compare` proves sound, instead of reading its signs again.
The sorted classes concatenate, ascending by totient value, into the
full chain.

Classes run in one process in ascending totient order, and one loop
records, checkpoints and reports each.  The run holds no `CycloCache`:
an exact fallback, which no adjacent pair up to 100000 reaches, evaluates
into one of its own that dies with the pair
(`comparator.ramanujan_compare`).
A class's summary is read off the certificates whose lines its
cert_hash covers; `ChainReport.from_record` builds the report.  The
checkpoint is a hash-chained JSON-lines file, one line per class,
flushed as each class finishes and synced to disk after each second of
classes and when the run ends; each line's chain covers its own bytes,
which loading checks.

A finite chain can only claim positions in the infinite sequence for
entries whose totient class is already complete below the range bound
(no index above range_max has its totient); the report carries that
stable prefix length, found from one totient sieve over (range_max,
2 range_max] and a primorial bound on every index beyond it (proof in
`stable_prefix_length`).  Likewise `precedes` is decided relative to the
totient band [totient(m), totient(n)], which is a complete reduction: any
x between m and n in the order must satisfy totient(m) <= totient(x) <=
totient(n), because a totient gap forces the order the other way (proof
in `comparator.compare`).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from array import array
from dataclasses import dataclass, field
from itertools import groupby
from math import lcm
from operator import attrgetter
from typing import Callable, Iterable

from .arith import SMALL_PRIMES, inverse_totient, totient, totient_table
from .comparator import (
    _SUMS_BLOCK,
    Certificate,
    RamanujanSums,
    SumsTable,
    Verdict,
    certificate_from_record,
    compare,
    comparison_record,
    ramanujan_compare,
    record_to_json,
)
from .cyclotomic import CycloCache

CHECKPOINT_VERSION = 4  # checkpoint line format; a file of another version is refused
CHECKPOINT_SYNC_INTERVAL_S = 1.0  # wall time between two fsyncs of a checkpoint's appends
_NEIGHBOUR_VERDICTS = (Verdict.LESS, Verdict.INCOMPARABLE)  # what a sorted adjacent pair may get
_INCOMPARABLE = Verdict.INCOMPARABLE  # the member bound once, as in `comparator`
_TERMS = attrgetter("terms")
_CHAIN_TAIL = len(',"chain":"' + 64 * "0" + '"}')  # what `_line` puts after a body's last field


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


def _totient_floor(limit: int) -> int:
    """A lower bound on totient(x) over every x > limit >= 1.

    Let P_k be the product of the first k primes, F_k = totient(P_k), and
    K the largest k with P_k <= limit.  An x with k distinct primes has
    x >= P_k, and x / totient(x), the product of p / (p - 1) over its
    primes, is at most P_k / F_k: its i-th smallest prime is at least the
    i-th prime, and p / (p - 1) falls as p grows.  So totient(x) >=
    x F_k / P_k.  For x > limit, when k <= K this is at least
    (limit + 1) F_K / P_K, as P_k / F_k grows with k; when k > K it is at
    least P_k F_k / P_k = F_k >= F_{K+1}.  Totients are integers, so the
    bound is the lesser of the two, rounded up.
    """
    primorial = phi = 1
    for p in SMALL_PRIMES:
        if primorial * p > limit:
            return min(-(-(limit + 1) * phi // primorial), phi * (p - 1))
        primorial, phi = primorial * p, phi * (p - 1)
    raise ArithmeticError(f"internal: no primorial above {limit}")


def stable_prefix_length(classes: Iterable[PhiClass], range_max: int) -> int:
    """Entries before the first incomplete class keep their positions as the
    range grows; everything at or after it may shift.

    A class is incomplete when an index above range_max has its totient.
    A sieve up to limit = 2 range_max gives `first`, the least class value
    reached on (range_max, limit], or one past the largest class value if
    none is (as at range_max = 2: totient(x) >= 2 for x >= 3).  If
    `_totient_floor(limit) >= first`, no index above limit reaches a value
    below `first` either, so the classes below `first` are complete and
    the class of `first`, if any, is not: the prefix is their members.
    Otherwise limit doubles; the floor grows without bound, so this ends.
    The first sieve decides at every range_max up to 3000.
    """
    sizes = {cls.phi_value: len(cls.members) for cls in classes}
    limit = 2 * range_max
    while True:
        reached = sizes.keys() & totient_table(limit)[range_max + 1 :]
        first = min(reached, default=max(sizes) + 1)
        if _totient_floor(limit) >= first:
            return sum(size for v, size in sizes.items() if v < first)
        limit *= 2


def _prefix_sorted(run: list[RamanujanSums], size: int) -> list[RamanujanSums]:
    """`run` in the lexicographic order of its members' terms, given that
    each holds exactly `size` terms, so no key is a proper prefix of
    another (`sort_class` proves the order); a run of equal keys is
    extended to twice as many and sorted again."""
    run.sort(key=_TERMS)
    ordered = []
    for _, group in groupby(run, key=_TERMS):
        group = list(group)
        if len(group) > 1:
            a, b = group[0], group[1]
            if size >= lcm(a.n, b.n):  # a full common period: they never differ
                raise ArithmeticError(f"internal: {a.n} and {b.n} have equal sums")
            for s in group:
                s.extend(2 * size)
            group = _prefix_sorted(group, 2 * size)
        ordered += group
    return ordered


def sort_class(
    phi_class: PhiClass,
    table: SumsTable | None = None,
    *,
    cert_sink: Callable[[int, int, Verdict, Certificate, str], None] | None = None,
) -> list[int]:
    """Sort one class by asymptotic order and certify its adjacent pairs.

    Members are sorted by their negated Ramanujan sums, lexicographically
    (`comparator.RamanujanSums`, each started from its row of `table`, a
    `comparator.SumsTable` covering the class, which holds every index's
    first 32 terms, and given the class's totient, so no member is
    factored unless a comparison reads past its row; one table is built
    when none is given, and a table that does not cover the class raises
    ValueError before any sum is built): that is the
    asymptotic order, a strict total order, since distinct indices have
    distinct polynomials.  Then `ramanujan_compare` runs on the k - 1
    adjacent pairs (a, b), in order, with the table's memo of outcomes,
    and each (a, b, verdict, certificate, line template) goes to
    cert_sink when one is given; the pair's line is template % (a, b).
    A certificate from the memo is shared with other pairs and must not
    be mutated.  Nothing else keeps the certificates of pairs the memo
    does not hold, so batch runs stay flat in memory.  Neither step
    reads a coefficient, and no cache is taken: an exact fallback keeps
    its values only for its pair.  A class of one member builds no sums
    at all.  Returns the ordered members; an INCOMPARABLE pair reaches
    cert_sink as data and is never raised.  Any other verdict but LESS
    contradicts the sort and raises ArithmeticError.

    The sort (`_prefix_sorted`) sorts once on every member's first
    L = _SUMS_BLOCK terms, its row of the table, all lists of length L,
    so the comparisons run in C; then each run of members with equal
    prefixes is sorted the same way at 2L terms, and so on.  This gives
    the lexicographic order:

    1. Two members whose L-term prefixes differ have their first
       difference inside them, so comparing the prefixes compares the
       whole sequences: the sort orders every such pair rightly.
    2. Members with equal prefixes stand together: with x before y
       before z in the sorted list, prefix(x) <= prefix(y) <= prefix(z),
       so prefix(x) = prefix(z) forces prefix(y) = prefix(x).  So the
       list is a row of runs, each pair from two different runs rightly
       ordered by 1, and re-sorting each run in its place keeps those
       pairs; by induction on the re-sort, it orders each run's own
       pairs rightly too.
    3. The re-sorts end: a run is re-sorted only while two of its
       members a, b agree on their first L terms, and L doubles each
       time, so it stops before L reaches lcm(a.n, b.n), where distinct
       indices differ (`RamanujanSums`), or raises there.

    Adjacent members of the result differ within the terms both hold, so
    `first_difference` reads each pair's j0 without extending either.

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
    if len(phi_class.members) == 1:
        return list(phi_class.members)  # no pair: no sum is read
    largest = max(phi_class.members)
    if table is None:
        table = SumsTable(largest)
    elif largest > table.limit:
        raise ValueError(f"the sums table covers indices up to {table.limit}, not {largest}")
    phi, outcomes = phi_class.phi_value, table.outcomes
    ordered = _prefix_sorted([RamanujanSums(n, table, phi) for n in phi_class.members], _SUMS_BLOCK)
    for a, b in zip(ordered, ordered[1:]):
        verdict, cert, template = ramanujan_compare(a, b, outcomes)
        if cert_sink is not None:
            cert_sink(a.n, b.n, verdict, cert, template)
        if verdict not in _NEIGHBOUR_VERDICTS:
            raise ArithmeticError(
                f"internal: sorted neighbours {a.n}, {b.n} compare {verdict.value}"
            )
    return [s.n for s in ordered]


# ---------------------------------------------------------------------------
# per-class summaries (shared by build_chain and the checkpoint file)
# ---------------------------------------------------------------------------


def _finish_class(phi_class: PhiClass, table: SumsTable) -> dict:
    """Sort and summarize one class (`sort_class`, with `table`, passed as
    its second positional argument, the form `bench/spans.py`'s `sort`
    wrapper forwards).  The sink writes each adjacent pair's JSON line once,
    as its template % (m, n), which is `comparator.comparison_line`'s
    line, and keeps its certificate; `cert_hash` is the sha256 of the
    class's lines, each ending in a newline, and the rest of the summary
    is read off the same certificates, so it says nothing the hash does
    not cover.  Only an INCOMPARABLE pair gets a record dict."""
    lines: list[str] = []
    pairs: list[tuple[int, int, Verdict, Certificate]] = []

    def sink(m: int, n: int, verdict: Verdict, cert: Certificate, template: str) -> None:
        lines.append(template % (m, n))
        pairs.append((m, n, verdict, cert))

    ordered = sort_class(phi_class, table, cert_sink=sink)
    lines.append("")  # so that the join ends every line in a newline
    return {
        "phi": phi_class.phi_value,
        "members": ordered,
        "pair_count": len(pairs),
        "max_checked_q": max((cert.checked_q_max for *_, cert in pairs), default=0),
        "ties": [[m, n, q] for m, n, _, cert in pairs for q in cert.tie_witnesses],
        "incomparable": [comparison_record(*pair) for pair in pairs if pair[2] is _INCOMPARABLE],
        "cert_hash": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }


# ---------------------------------------------------------------------------
# checkpointing: hash-chained JSON lines, one line per completed class
# ---------------------------------------------------------------------------


def _line(prev_hex: str, body: str) -> tuple[str, str]:
    """(chain, line) for `body`, a JSON object in compact sorted-key form:
    chain is the sha256 of prev_hex + body, and line is body with the
    field "chain": chain appended as its last, `_CHAIN_TAIL` characters."""
    chain = hashlib.sha256((prev_hex + body).encode()).hexdigest()
    return chain, f'{body[:-1]},"chain":"{chain}"}}'


def _class_body(summary: dict) -> str:
    """json.dumps(summary plus "kind": "class", sort_keys=True,
    separators=(",", ":")) for a summary of `_finish_class`'s fields (ints,
    a hex string, lists of ints and comparison records), written field by
    field; the records go through `record_to_json`."""
    return (
        '{"cert_hash":"%s","incomparable":[%s],"kind":"class","max_checked_q":%d,'
        '"members":%s,"pair_count":%d,"phi":%d,"ties":%s}'
        % (
            summary["cert_hash"],
            ",".join(map(record_to_json, summary["incomparable"])),
            summary["max_checked_q"],
            str(summary["members"]).replace(" ", ""),
            summary["pair_count"],
            summary["phi"],
            str(summary["ties"]).replace(" ", ""),
        )
    )


class CheckpointFile:
    """Append-only resume file for long verification runs.

    Line 1 is a header carrying the format version (CHECKPOINT_VERSION)
    and range_max; each further line records one completed class.  Every
    line is a JSON object in compact sorted-key form, the body, followed
    by a last field "chain": the sha256 of the previous line's chain plus
    the body's bytes (`_line`; "" before the header).  One writer makes
    each body (`_class_body`), so the chain covers the bytes on file, and
    `_load` checks it against them, parsing each line once: silent edits
    or reordering are detected at load time.  A malformed trailing line
    (interrupted write) is discarded and cut from the file, so later
    appends start on a fresh line; a well-formed line that is not a JSON
    object or breaks the chain, another version or another range_max
    raises CheckpointError.  Classes are written in ascending totient
    order, so the classes on file are always the lowest ones.

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
            header = '{"kind":"header","range_max":%d,"version":%d}' % (range_max, CHECKPOINT_VERSION)
            self._last_hash, line = _line("", header)
            with self._open("w") as fh:
                fh.write(line + "\n")

    def _open(self, mode: str):
        """open(self.path, mode), with an OSError raised as CheckpointError."""
        try:
            return open(self.path, mode, encoding=None if "b" in mode else "utf-8")
        except OSError as exc:
            raise CheckpointError(f"{self.path}: cannot be opened: {exc.strerror or exc}") from exc

    def _load(self) -> None:
        with self._open("rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        prev = None  # the chain of the last line kept; None until the header
        good_end = 0  # byte offset just past the last line kept
        torn = False
        for i, raw in enumerate(lines, start=1):
            try:
                line = raw.decode().rstrip("\r\n")
                rec = json.loads(line)
            except ValueError:
                if i == len(lines):
                    torn = True  # interrupted final write; drop it
                    break
                raise CheckpointError(f"{self.path}: malformed line {i}")
            if not isinstance(rec, dict):
                raise CheckpointError(f"{self.path}: line {i} is not a JSON object")
            if prev is None:  # the header: its version says how to read the rest
                if rec.get("kind") != "header":
                    raise CheckpointError(f"{self.path}: missing header line")
                for key, wanted in (("version", CHECKPOINT_VERSION), ("range_max", self.range_max)):
                    if rec.get(key) != wanted:
                        raise CheckpointError(
                            f"{self.path}: checkpoint has {key}={rec.get(key)!r}, wanted {wanted}"
                        )
                prev = ""
            prev, expected = _line(prev, line[:-_CHAIN_TAIL] + "}")
            if line != expected:
                raise CheckpointError(f"{self.path}: hash chain mismatch at line {i}")
            del rec["chain"]  # the last field, as the line equals `expected`
            if rec.get("kind") == "class":
                self.completed[rec["phi"]] = rec
                self._last_phi = rec["phi"]
            good_end += len(raw)
        if prev is None:
            raise CheckpointError(f"{self.path}: missing header line")
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
        chain, line = _line(self._last_hash, _class_body(summary))
        if self._fh is None:
            self._fh = self._open("a")
            self._synced_at = time.monotonic()
        self._fh.write(line + "\n")
        self._fh.flush()
        now = time.monotonic()
        if now - self._synced_at >= CHECKPOINT_SYNC_INTERVAL_S:
            os.fsync(self._fh.fileno())
            self._synced_at = now
        self._last_hash = chain
        self._last_phi = summary["phi"]
        self.completed[summary["phi"]] = summary

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
    # before the class loop, so its sieve to 2 range_max is freed before the summaries grow
    stable_len = stable_prefix_length(classes, range_max)
    checkpoint = CheckpointFile(checkpoint_path, range_max) if checkpoint_path else None
    summaries: dict[int, dict] = dict(checkpoint.completed) if checkpoint else {}

    table = SumsTable(range_max)
    try:
        for cls in classes:
            if cls.phi_value in summaries:
                continue  # on file from an earlier run
            summary = summaries[cls.phi_value] = _finish_class(cls, table)
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
        "stable_prefix_len": stable_len,
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
