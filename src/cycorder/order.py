"""Total-order construction and verification over ranges of indices.

A totient gap already orders two indices, smaller totient first
(`comparator.compare` proves it), so the range {1..N} splits into
totient classes and only pairs inside one class need a closer look.
Each class is sorted by asymptotic order, which is the lexicographic
order of its members' negated Ramanujan sums (-c_n(1), -c_n(2), ...),
and its k - 1 adjacent pairs are certified from those sums; by
transitivity that verifies comparability of every pair in the class
(proof in `sort_class`).  No polynomial, kernel or packed value is
built.  One table per run (`comparator.SumsTable`) holds the first 64
sums of every index as a row of biased byte lanes, sieved from
Ramanujan's definition, and a smallest-prime-factor table.
`sort_class`, the one per-class step, sorts a class on its members'
rows, each read once as one big-endian integer, and, in one pass over
its adjacent pairs, reads each pair's window of sums off the two rows'
integers, takes the pair's outcome from the run's memo, which the table
also holds, or decides the window (`comparator.ramanujan_compare` proves
both sound), writes the pair's line and adds it to the class's summary.
A member's sums are built as an object only when its row does not settle
a pair: when its row ties another in the sort, or in a pair whose first
difference lies past lane 55, so that its window reaches lane 64 or
leaves the row.  The object reads each term past the row on its own by
Hoelder's closed form, from a table it builds once, factoring the member
off the smallest-prime-factor table; past two equal rows, the first
difference of two members is the least divisor of the lcm of the two
where their sums differ (`comparator.RamanujanSums`), so only those
divisors are read.  The sorted classes concatenate, ascending by totient
value, into the full chain.

Classes run in one process in ascending totient order, and one loop
sorts, checkpoints and reports each and folds its summary, read off the
certificates whose lines its cert_hash covers, into the report.  The
run holds no `CycloCache`: an exact fallback, which no adjacent pair up
to 100000 reaches, would make one at its first evaluation, for its pair
alone (`comparator._certify`).  The checkpoint is a hash-chained
JSON-lines file, one line per class, flushed as each class finishes and
synced to disk after each second of classes and when the run ends; each
line's chain covers its own bytes, which loading checks, reading the
file one line at a time.  A resume is the run itself: the class lines on
file must be the run's first lines, byte for byte, and the run appends
the rest.  A checkpoint saves no work on resume, and stands as a
cross-check of the run and a record that survives Ctrl-C and the death
of the process.

A finite chain can only claim positions in the infinite sequence for
entries whose totient class is already complete below the range bound
(no index above range_max has its totient); the report carries that
stable prefix length, found from the run's one totient sieve, to
2 range_max, which also gives the classes, and a primorial bound on
every index beyond it (proof in `stable_prefix_length`).  Likewise
`precedes` is decided relative to the totient band
[totient(m), totient(n)], which is a complete reduction: any x between
m and n in the order must satisfy totient(m) <= totient(x) <=
totient(n), because a totient gap forces the order the other way (proof
in `comparator.compare`).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from array import array
from contextlib import suppress
from functools import cmp_to_key
from itertools import groupby
from operator import sub
from typing import Callable, Iterable, Sequence

from .arith import inverse_totient, primes_to, totient, totient_table
from .comparator import (
    _LAST_ROW_J0,
    _SUMS_BLOCK,
    _WINDOW,
    Certificate,
    RamanujanSums,
    SumsTable,
    Verdict,
    _Record,
    _row_key,
    _window_outcome,
    certificate_from_record,
    compare,
    comparison_line,
    comparison_record,
    ramanujan_compare,
)
from .cyclotomic import CycloCache

CHECKPOINT_VERSION = 4  # checkpoint line format; a file of another version is refused
CHECKPOINT_SYNC_INTERVAL_S = 1.0  # wall time between two fsyncs of a checkpoint's appends
_LESS, _INCOMPARABLE = Verdict.LESS, Verdict.INCOMPARABLE  # the members bound once, as in `comparator`
_EMPTY_HASH = hashlib.sha256(b"").hexdigest()  # the cert_hash of a class of one member
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
    """Checkpoint file is unusable: unopenable or unwritable, hash-chain mismatch, wrong parameters or a class not the run's."""


class PhiClass(_Record):
    """All indices in range sharing one totient value, ascending."""

    __slots__ = ("phi_value", "members")

    def __init__(self, phi_value: int, members: list[int]):
        self.phi_value, self.members = phi_value, members


class PrecedesReport(_Record):
    """Outcome of an immediate-successor check between two indices."""

    __slots__ = ("m", "n", "holds", "candidates_examined", "blockers")

    def __init__(self, m: int, n: int, holds: bool, candidates_examined: list[int], blockers: list[int]):
        self.m, self.n, self.holds, self.candidates_examined, self.blockers = m, n, holds, candidates_examined, blockers


class ChainReport(_Record):
    """The verified chain over {1..range_max} with evidence summary.

    When incomparable_pairs is empty, sequence is a permutation of
    1..range_max in which adjacent same-class pairs carry LESS
    certificates and cross-class ordering follows the totient gap, which
    `comparator.compare` proves.  The sequence is kept compact, as an
    `array("I")` (4 bytes an index, where a list of ints takes about 36);
    `stable_prefix` is a list.  incomparable_pairs and tie_pairs are each
    a new empty list when not given.
    """

    __slots__ = (
        "range_max", "sequence", "class_count", "pair_count",
        "incomparable_pairs", "tie_pairs", "stable_prefix_len", "max_checked_q",
    )

    def __init__(
        self,
        range_max: int,
        sequence: array,
        class_count: int,
        pair_count: int,
        incomparable_pairs: list[tuple[int, int, Certificate]] | None = None,
        tie_pairs: list[tuple[int, int, int]] | None = None,
        stable_prefix_len: int = 0,
        max_checked_q: int = 0,
    ):
        self.range_max, self.sequence, self.class_count, self.pair_count = range_max, sequence, class_count, pair_count
        self.incomparable_pairs = [] if incomparable_pairs is None else incomparable_pairs
        self.tie_pairs = [] if tie_pairs is None else tie_pairs
        self.stable_prefix_len, self.max_checked_q = stable_prefix_len, max_checked_q

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


def phi_classes(range_max: int, phi_table: Sequence[int] | None = None) -> list[PhiClass]:
    """Partition {1..range_max} into totient classes, ascending by value.
    `phi_table`, the totients from 0 to range_max or past it, as
    `totient_table` gives them, is sieved when not given."""
    if range_max < 1:
        raise ValueError(f"range_max must be >= 1, got {range_max}")
    phi = (phi_table or totient_table(range_max)).__getitem__
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
    for p in primes_to(127):  # their primorial is above 10^48, past every feasible limit
        if primorial * p > limit:
            return min(-(-(limit + 1) * phi // primorial), phi * (p - 1))
        primorial, phi = primorial * p, phi * (p - 1)
    raise ArithmeticError(f"internal: no primorial above {limit}")


def stable_prefix_length(classes: Iterable[PhiClass], range_max: int, phi_table: Sequence[int] | None = None) -> int:
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
    The first sieve decides at every range_max up to 3000.  `phi_table`,
    the totients from 0 on that `build_chain` shares with `phi_classes`,
    is read instead of a sieve wherever it reaches the limit.
    """
    sizes = {cls.phi_value: len(cls.members) for cls in classes}
    limit = 2 * range_max
    while True:
        phi = phi_table if phi_table is not None and len(phi_table) > limit else totient_table(limit)
        reached = sizes.keys() & phi[range_max + 1 : limit + 1]
        first = min(reached, default=max(sizes) + 1)
        if _totient_floor(limit) >= first:
            return sum(size for v, size in sizes.items() if v < first)
        limit *= 2


def sort_class(phi_class: PhiClass, table: SumsTable | None = None) -> dict:
    """Sort one class by asymptotic order, certify its adjacent pairs and
    summarize them: the one per-class step of a verification.

    `table` is a `comparator.SumsTable` covering the class, which holds
    every index's first 64 Ramanujan sums and the run's memo of pair
    outcomes; one table is built when none is given, and a table that
    does not cover the class raises ValueError before any pair is keyed.
    Returns the class's summary, which `build_chain` folds into its report
    and `CheckpointFile` writes: `phi`; `members`, in asymptotic order;
    `pair_count`, k - 1; `max_checked_q`, the largest checked_q_max of
    the adjacent pairs' certificates (0 for a class of one member);
    `ties`, [a, b, q] for each tie witness q of each adjacent pair
    (a, b); `incomparable`, an (a, b, certificate) triple for each
    INCOMPARABLE adjacent pair (a, b), as `ChainReport.incomparable_pairs`
    holds it; and `cert_hash`, the sha256 of the adjacent pairs' lines,
    in order, each `comparator.comparison_line` of its pair and ending in
    a newline (of empty text for a class of one member), so the summary
    says nothing the hash does not cover.  An INCOMPARABLE pair is data,
    never raised; any other verdict but LESS contradicts the sort and
    raises ArithmeticError.  No coefficient is read, and no cache is
    taken: an exact fallback keeps its values only for its pair.  A class
    of one member reads no row.

    The class sorts once on its members' rows, each read once as one
    big-endian integer, and each run of equal rows again by the tie-break
    -c_a(j) - (-c_b(j)) at the first j where the sums of a and b part
    (`RamanujanSums.first_difference`: the least divisor of lcm(a, b)
    past the rows where they differ), kept in `firsts`.  One loop over
    the k - 1 adjacent pairs then reads each pair's j0 and memo key off
    the two rows' integers (`_row_key`) and takes its outcome (verdict,
    certificate, line template) from the run's memo (`table.outcomes`);
    or, for j0 <= _LAST_ROW_J0, from its window read off the rows
    (`comparator._window_outcome`); or, for j0 > _LAST_ROW_J0, whose
    window ends at lane 64 or past the rows, from
    `comparator.ramanujan_compare` at the j0 read off the rows or, for
    equal rows, the one in `firsts`.  It writes the pair's line,
    template % (a, b), and adds the pair to the summary.  A member's
    `RamanujanSums` object is built only for a run of equal rows or a
    pair with j0 > _LAST_ROW_J0, once: the loop reads the objects the
    sort built.

    Why this is the asymptotic order, and each outcome the pair's:

    1. The rows sort as the sums.  A row holds the lanes 64 - c_n(j),
       j = 1..64, each in [0, 128] (`SumsTable`), as 64 bytes; read as a
       big-endian integer, lane j weighs 256^(64 - j), so two rows'
       integers compare as their first differing lane does, which is the
       lexicographic order of the bytes, and equal integers are equal
       rows.  Adding 64 keeps the order of the terms -c_n(j), so rows
       compare as the 64-term prefixes of the negated sums.
    2. The sort gives the lexicographic order of the whole sequences.
       Two members whose rows differ have their first difference inside
       them, so the rows order them as the sequences do.  Members with
       equal rows are adjacent after the first sort, and the tie-break,
       whose sign is the lexicographic order of the whole sequences, a
       strict total order (two distinct indices of one class always part,
       `RamanujanSums`), orders each run of them.  That order is the
       asymptotic order (`comparator.ramanujan_compare`).
    3. Each pair with j0 > _LAST_ROW_J0 is given its first difference,
       so its outcome is `ramanujan_compare`'s.  Rows that differ hold it
       (step 2).  For equal rows it is in `firsts`: the two members are
       adjacent in the sorted output of their run, and a comparison sort
       of distinct keys compares every two keys adjacent in its output
       (were it not to compare them, swapping the two would leave every
       comparison it made, and so its output, as it was), so the
       tie-break stored their j0.  Were it missing, the lookup would
       raise KeyError rather than read a window at lane 65, where the
       two sums may still agree.
    4. The outcome of each pair with j0 <= _LAST_ROW_J0 is
       `ramanujan_compare`'s.  Its rows differ, so its j0 is the first
       difference of the two sequences, which lies in the rows, and its
       window ends at j0 + 8 <= 63, inside the rows too, so the deltas
       read off the rows are those `ramanujan_compare` would take, and
       (j0, W) names that window alone (`_row_key`, whose proof needs
       the window to end before lane 64).  A memo entry under that key
       was stored by a pair with the same window, whose outcome is this
       pair's (`ramanujan_compare`), and a miss goes through the same
       `_window_outcome`.

    Why k - 1 certificates prove what all k(k-1)/2 pairs would:

    5. LESS means Phi_a(q) <= Phi_b(q) at every integer q >= 2, a
       transitive relation, so LESS certificates on every adjacent pair
       chain to every pair of the class: the class is totally ordered.
    6. a LESS b implies that a precedes b asymptotically, since the
       difference is nonzero and its sign for large q is its leading sign.
       So a total order on the class is contained in the asymptotic
       order and, both being total, equals it.  Hence the class has an
       incomparable pair exactly when some adjacent pair is not LESS, and
       the verdict keeps its meaning.
    7. In a totally ordered class, Phi_a(q) = Phi_c(q) with a before c
       forces Phi_a(q) <= Phi_b(q) <= Phi_c(q) = Phi_a(q) for every b
       between them, so each adjacent pair from a to c ties at q.  The
       set of indices in some tied pair is therefore the set of indices
       in some tied adjacent pair.
    """
    members, phi = phi_class.members, phi_class.phi_value
    if not members:
        raise ValueError("empty totient class")
    summary = {
        "phi": phi,
        "members": list(members),
        "pair_count": len(members) - 1,
        "max_checked_q": 0,
        "ties": [],
        "incomparable": [],
        "cert_hash": _EMPTY_HASH,
    }
    if len(members) == 1:
        return summary  # no pair: no sum is read
    largest = max(members)
    if table is None:
        table = SumsTable(largest)
    elif largest > table.limit:
        raise ValueError(f"the sums table covers indices up to {table.limit}, not {largest}")
    lanes, memo = table.lanes, table.outcomes
    sums, firsts = {}, {}

    def sums_of(x: int) -> RamanujanSums:
        if x not in sums:
            sums[x] = RamanujanSums(x, table, phi)
        return sums[x]

    rows = {n: int.from_bytes(lanes[n * _SUMS_BLOCK : (n + 1) * _SUMS_BLOCK], "big") for n in members}
    ordered = sorted(members, key=rows.__getitem__)
    if len(set(rows.values())) < len(ordered):  # some rows tie: order each run by the sums

        def later(x: int, y: int) -> int:
            a, b = sums_of(x), sums_of(y)
            j = firsts[x, y] = firsts[y, x] = a.first_difference(b)
            return a.term(j) - b.term(j)

        tie_break = cmp_to_key(later)
        ordered = [x for _, run in groupby(ordered, rows.__getitem__) for x in sorted(run, key=tie_break)]
    lines, ties, incomparable, max_checked_q = [], summary["ties"], summary["incomparable"], 0
    a = ordered[0]
    for b in ordered[1:]:
        key = _row_key(rows[a], rows[b])
        j0 = key[0]
        if j0 > _LAST_ROW_J0:  # the window ends at lane 64 or past the row; equal rows take the tie-break's j0
            outcome = ramanujan_compare(sums_of(a), sums_of(b), firsts[a, b] if j0 > _SUMS_BLOCK else j0, memo)
        else:
            outcome = memo.get(key)
            if outcome is None:
                sa, sb = a * _SUMS_BLOCK + j0 - 1, b * _SUMS_BLOCK + j0 - 1
                deltas = tuple(map(sub, lanes[sb : sb + _WINDOW + 1], lanes[sa : sa + _WINDOW + 1]))
                outcome = _window_outcome(a, b, j0, deltas, key, memo)
        verdict, cert, template = outcome
        if verdict is not _LESS:
            if verdict is not _INCOMPARABLE:
                raise ArithmeticError(f"internal: sorted neighbours {a}, {b} compare {verdict.value}")
            incomparable.append((a, b, cert))
        lines.append(template % (a, b))
        if cert.checked_q_max > max_checked_q:
            max_checked_q = cert.checked_q_max
        if cert.tie_witnesses:
            ties += [[a, b, q] for q in cert.tie_witnesses]
        a = b
    lines.append("")  # so that the join ends every line in a newline
    cert_hash = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    summary.update(members=ordered, max_checked_q=max_checked_q, cert_hash=cert_hash)
    return summary


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
    separators=(",", ":")) for a summary of `sort_class`'s fields (ints,
    a hex string, lists of ints and (m, n, certificate) triples), written
    field by field; each triple is written as its pair's record, by
    `comparison_line`."""
    return (
        '{"cert_hash":"%s","incomparable":[%s],"kind":"class","max_checked_q":%d,'
        '"members":%s,"pair_count":%d,"phi":%d,"ties":%s}'
        % (
            summary["cert_hash"],
            ",".join(comparison_line(m, n, _INCOMPARABLE, cert) for m, n, cert in summary["incomparable"]),
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
    `_load` checks it against them, reading the file one line at a time
    and parsing each line once: silent edits or reordering are detected
    at load time.  The loader reads one line ahead, which tells whether
    the line it checks is the final one, and keeps of the file only the
    bodies in `completed`, never its bytes whole.  A malformed final line
    (interrupted write) is discarded and cut from the file, and a
    complete final line that lacks its newline gets one, so later appends
    start on a fresh line; a malformed line before the last, a
    well-formed line that is not a JSON object or breaks the chain,
    another version or another range_max raises CheckpointError.  `completed` holds the body of each line the
    file held after its header when loaded, in file order; `build_chain`
    requires them to be the run's first class lines, byte for byte.
    Classes are written in ascending totient order, so the classes on
    file are always the lowest ones.

    The first `append` opens one append handle, kept until `close()`;
    an instance used only to load opens none.  Each class line is
    written and flushed at once, so it is in the operating system before
    `build_chain` reports the class.  `os.fsync` runs in an `append`
    that comes CHECKPOINT_SYNC_INTERVAL_S of wall time or more after the
    handle was opened or last synced, and once more in `close()`, which
    `build_chain` calls however its class loop ends.  An OSError of any
    write, flush or sync, of the header, of a class line or of the
    load's cut of a torn tail, is raised as CheckpointError ("cannot be
    written"); `close()` closes the handle all the same.  The lines
    flushed before a failing one stay whole on file, and a line cut short
    by it is a torn final line (4. below).  Why no run loses what its
    resume needs:

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
        self.completed: list[str] = []  # the body of each class line loaded, in file order
        self._last_hash = ""
        self._fh = None  # the append handle, opened by the first append
        self._synced_at = 0.0
        if os.path.exists(path) and os.path.getsize(path) > 0:
            self._load()
        else:
            header = '{"kind":"header","range_max":%d,"version":%d}' % (range_max, CHECKPOINT_VERSION)
            self._last_hash, line = _line("", header)
            try:
                with self._open("w") as fh:
                    fh.write(line + "\n")
            except OSError as exc:
                raise self._unwritable(exc) from exc

    def _open(self, mode: str):
        """open(self.path, mode), with an OSError raised as CheckpointError."""
        try:
            return open(self.path, mode, encoding=None if "b" in mode else "utf-8")
        except OSError as exc:
            raise CheckpointError(f"{self.path}: cannot be opened: {exc.strerror or exc}") from exc

    def _unwritable(self, exc: OSError) -> CheckpointError:
        """The CheckpointError raised for `exc`, an OSError of a write, a flush or a sync."""
        return CheckpointError(f"{self.path}: cannot be written: {exc.strerror or exc}")

    def _load(self) -> None:
        prev = None  # the chain of the last line kept; None until the header
        good_end = 0  # byte offset just past the last line kept
        with self._open("rb") as fh:
            # one line of lookahead tells the final line, which alone may be torn
            i, raw, after = 1, fh.readline(), fh.readline()
            while raw:
                try:
                    line = raw.decode().rstrip("\r\n")
                    rec = json.loads(line)
                except ValueError:
                    if not after:
                        break  # interrupted final write; drop it
                    raise CheckpointError(f"{self.path}: malformed line {i}")
                if not isinstance(rec, dict):
                    raise CheckpointError(f"{self.path}: line {i} is not a JSON object")
                body = line[:-_CHAIN_TAIL] + "}"
                if prev is None:  # the header: its version says how to read the rest
                    if rec.get("kind") != "header":
                        raise CheckpointError(f"{self.path}: missing header line")
                    for key, wanted in (("version", CHECKPOINT_VERSION), ("range_max", self.range_max)):
                        if rec.get(key) != wanted:
                            raise CheckpointError(
                                f"{self.path}: checkpoint has {key}={rec.get(key)!r}, wanted {wanted}"
                            )
                    prev = ""
                else:
                    self.completed.append(body)
                prev, expected = _line(prev, body)
                if line != expected:
                    raise CheckpointError(f"{self.path}: hash chain mismatch at line {i}")
                good_end += len(raw)
                i, kept, raw, after = i + 1, raw, after, fh.readline()
        if prev is None:
            raise CheckpointError(f"{self.path}: missing header line")
        self._last_hash = prev
        # the next append must start on a fresh line: cut the torn tail's
        # bytes, or end a complete final line whose newline was never written
        torn = bool(raw)
        if torn or not kept.endswith(b"\n"):
            try:
                with self._open("r+b") as fh:
                    fh.truncate(good_end)
                    if not torn:
                        fh.seek(good_end)
                        fh.write(b"\n")
                    fh.flush()
                    os.fsync(fh.fileno())
            except OSError as exc:
                raise self._unwritable(exc) from exc

    def append(self, summary: dict) -> None:
        chain, line = _line(self._last_hash, _class_body(summary))
        if self._fh is None:
            self._fh = self._open("a")
            self._synced_at = time.monotonic()
        try:
            self._fh.write(line + "\n")
            self._fh.flush()
            now = time.monotonic()
            if now - self._synced_at >= CHECKPOINT_SYNC_INTERVAL_S:
                os.fsync(self._fh.fileno())
                self._synced_at = now
        except OSError as exc:
            raise self._unwritable(exc) from exc
        self._last_hash = chain

    def close(self) -> None:
        """Sync and close the append handle, if `append` opened one; the
        handle is closed whether or not the sync succeeds."""
        fh, self._fh = self._fh, None
        if fh is None:
            return
        try:
            with fh:
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise self._unwritable(exc) from exc


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
    sorts and certifies each (`sort_class`) and folds its summary into the
    report.  With a checkpoint, the class lines on file must be the run's
    first lines, byte for byte: while the loop is on a class whose line is
    on file, that line must be the text `_class_body` writes for the
    run's summary, and a file with more class lines than the run has
    classes is refused, each with CheckpointError.  The hash chain shows
    a line unchanged since it was written, not what wrote it: anyone can
    recompute the chain.  Past the file, the loop appends each class's
    line and then reports the class (`progress`); the checkpoint is
    synced and closed however the loop ends (`CheckpointFile`), and when
    the loop raises, a close that fails too does not replace its error.
    One totient sieve to 2 range_max, held as an `array("I")`, gives both
    the classes and the stable prefix.  `workers` is checked (>= 1) and
    otherwise ignored: the run is one process, so any worker count gives
    the same results.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # an array, not the sieve's list of ints, which would be freed among the
    # classes' objects and leave its memory scattered (at 100000 the list
    # raised peak RSS from 44 to 49 MB)
    phi_table = array("I", totient_table(2 * range_max))
    classes = phi_classes(range_max, phi_table)
    # before the class loop, so the sieve is freed before the report grows
    stable_len = stable_prefix_length(classes, range_max, phi_table)
    del phi_table
    checkpoint = CheckpointFile(checkpoint_path, range_max) if checkpoint_path is not None else None
    on_file = checkpoint.completed if checkpoint is not None else []
    if len(on_file) > len(classes):
        raise CheckpointError(
            f"{checkpoint_path}: {len(on_file)} class lines on file, but {{1..{range_max}}} has {len(classes)} classes"
        )
    table = SumsTable(range_max)
    sequence, pair_count, ties, incomparable, max_checked_q = array("I"), 0, [], [], 0
    try:
        for i, cls in enumerate(classes):
            summary = sort_class(cls, table)
            if i < len(on_file):
                if on_file[i] != _class_body(summary):
                    raise CheckpointError(
                        f"{checkpoint_path}: line {i + 2} is not the run's line for the class of totient {cls.phi_value}"
                    )
            else:
                if checkpoint is not None:
                    checkpoint.append(summary)
                if progress is not None:
                    progress(i + 1, len(classes), summary)
            sequence.extend(summary["members"])
            pair_count += summary["pair_count"]
            ties += map(tuple, summary["ties"])
            incomparable += summary["incomparable"]
            if summary["max_checked_q"] > max_checked_q:
                max_checked_q = summary["max_checked_q"]
    except BaseException:
        if checkpoint is not None:
            with suppress(CheckpointError):  # the loop's error is the one to raise, not a failing close's
                checkpoint.close()
        raise
    if checkpoint is not None:
        checkpoint.close()
    return ChainReport(range_max, sequence, len(classes), pair_count, incomparable, ties, stable_len, max_checked_q)


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
