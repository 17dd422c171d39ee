"""In-memory spans for the traced benchmark run.

A `Tracer` records one span per wrapped call: its name, start, end and the
span that was open when it began.  A span's self time is its duration minus
the part covered by its child spans, so the self times of one process
partition the time its spans cover.

`layer_wrappers` builds the wrappers for the cycorder layers.  They are
installed by `patched` only for the traced phase; the timed phase calls the
unmodified functions.  Wrappers sit at the points where one layer calls
another layer's public function, never inside a function body.

Worker processes that the package's pool forks inherit the installed
wrappers and the tracer.  A worker starts with empty buffers and appends each
finished span tree (its stack is empty again) to `spans-<pid>.tsv` in the
spool directory, because pool workers are terminated without a chance to
report at exit.  `Tracer.merged` reads those files back in the parent.
"""

from __future__ import annotations

import contextlib
import os
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter


@dataclass
class SpanTable:
    """Spans of one process; `parents` index into the same table (-1: root)."""

    pid: int
    names: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                covered[p] += self.ends[i] - self.starts[i]
        return [e - s - c for s, e, c in zip(self.starts, self.ends, covered)]


@dataclass
class Totals:
    """Per span name: number of spans, summed duration and summed self time;
    plus the additive counters and the maxima, over every process."""

    calls: Counter = field(default_factory=Counter)
    wall: Counter = field(default_factory=Counter)
    self_time: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    peaks: dict = field(default_factory=dict)
    processes: int = 0


class Tracer:
    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.origin_pid = os.getpid()
        self._pid = self.origin_pid
        self._spooled = 0  # spans this process has written to its spool file
        self._reset()

    def _reset(self) -> None:
        self.table = SpanTable(self._pid)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}

    def _own(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            # first event in a forked worker: drop the copy of the parent's spans
            self._pid = pid
            self._spooled = 0
            self._reset()

    def begin(self, name: str) -> int:
        self._own()
        t = self.table
        i = len(t.names)
        t.names.append(name)
        t.parents.append(self.stack[-1] if self.stack else -1)
        t.ends.append(0.0)
        self.stack.append(i)
        t.starts.append(perf_counter())
        return i

    def end(self, i: int) -> None:
        self.table.ends[i] = perf_counter()
        self.stack.pop()
        if not self.stack and self._pid != self.origin_pid:
            self._spool()

    def count(self, name: str, value: int = 1) -> None:
        self._own()
        self.counts[name] += value

    def peak(self, name: str, value: int) -> None:
        self._own()
        if name not in self.peaks or value > self.peaks[name]:
            self.peaks[name] = value

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            i = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(i)

        return wrapper

    def _spool(self) -> None:
        t = self.table
        base = self._spooled
        lines = [
            f"S\t{n}\t{s!r}\t{e!r}\t{p + base if p >= 0 else -1}\n"
            for n, s, e, p in zip(t.names, t.starts, t.ends, t.parents)
        ]
        lines += [f"C\t{k}\t{v}\n" for k, v in self.counts.items()]
        lines += [f"P\t{k}\t{v}\n" for k, v in self.peaks.items()]
        path = os.path.join(self.spool_dir, f"spans-{self._pid}.tsv")
        with open(path, "a", encoding="utf-8") as fh:
            fh.writelines(lines)
        self._spooled = base + len(t.names)
        self._reset()

    def _read_spool(self) -> tuple[list[SpanTable], Counter, dict]:
        tables, counts, peaks = [], Counter(), {}
        for entry in sorted(os.listdir(self.spool_dir)):
            if not (entry.startswith("spans-") and entry.endswith(".tsv")):
                continue
            table = SpanTable(int(entry[len("spans-") : -len(".tsv")]))
            with open(os.path.join(self.spool_dir, entry), encoding="utf-8") as fh:
                for line in fh:
                    kind, name, *rest = line.rstrip("\n").split("\t")
                    if kind == "S":
                        table.names.append(name)
                        table.starts.append(float(rest[0]))
                        table.ends.append(float(rest[1]))
                        table.parents.append(int(rest[2]))
                    elif kind == "C":
                        counts[name] += int(rest[0])
                    else:
                        value = int(rest[0])
                        peaks[name] = max(peaks.get(name, value), value)
            tables.append(table)
        return tables, counts, peaks

    def merged(self) -> tuple[list[SpanTable], Totals]:
        """Span tables of this process and of every worker, with totals."""
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans still open")
        worker_tables, counts, peaks = self._read_spool()
        tables = [self.table] + worker_tables
        totals = Totals(processes=len(tables))
        for table in tables:
            for name, s, e, own in zip(table.names, table.starts, table.ends, table.self_times()):
                totals.calls[name] += 1
                totals.wall[name] += e - s
                totals.self_time[name] += own
        counts.update(self.counts)
        for name, value in self.peaks.items():
            peaks[name] = max(peaks.get(name, value), value)
        totals.counts, totals.peaks = counts, peaks
        return tables, totals


def write_spans(path: str, tables: list[SpanTable]) -> None:
    """All spans as tab-separated lines: pid, index, parent, name, start,
    end, self time (seconds on the perf_counter clock)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pid\tindex\tparent\tname\tstart\tend\tself\n")
        for t in tables:
            for i, (name, s, e, p, own) in enumerate(
                zip(t.names, t.starts, t.ends, t.parents, t.self_times())
            ):
                fh.write(f"{t.pid}\t{i}\t{p}\t{name}\t{s!r}\t{e!r}\t{own!r}\n")


@contextlib.contextmanager
def patched(replacements: list[tuple[object, str, object]]):
    """Set each (owner, attribute, value) for the duration, then restore."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


@dataclass
class LayerWrappers:
    """Traced stand-ins for the calls the benchmark itself makes, plus the
    replacements to install where one package layer calls another."""

    cyclo: object
    compare: object
    build_chain: object
    cli_main: object
    replacements: list[tuple[object, str, object]]


def layer_wrappers(tracer: Tracer, mods) -> LayerWrappers:
    """Wrappers for the package modules in `mods` (attributes cyclotomic,
    comparator, order, cli).

    Span names: cyclotomic.construct (a cyclo call that built at least one
    entry), cyclotomic.eval (an eval_cyclo call the memo did not answer),
    cyclotomic.trim, comparator.compare, order.sort_class, order.cert_hash
    (the certificate sink sort_class streams to), order.phi_classes,
    order.stable_prefix, order.checkpoint_append (an append that writes a
    line), order.build_chain, cli.main and cli.progress.  Cache hits get no
    span; their cost stays in the caller's self time and they are counted
    instead.
    """
    cyclotomic, comparator, order, cli = mods.cyclotomic, mods.comparator, mods.order, mods.cli

    def construct(fn):
        def cyclo(n, cache):
            if n in cache:
                return fn(n, cache)
            before = len(cache)
            i = tracer.begin("cyclotomic.construct")
            try:
                return fn(n, cache)
            finally:
                built = len(cache) - before
                tracer.count("cyclotomic.cache_entries", built)
                newest = islice(reversed(cache.polys.values()), built)
                tracer.count("cyclotomic.degree_sum", sum(len(p.coeffs) - 1 for p in newest))
                tracer.end(i)

        return cyclo

    def evaluate(fn):
        def eval_cyclo(n, q, cache):
            if (n, q) in cache.evals:
                tracer.count("comparator.eval_memo_hits")
                return fn(n, q, cache)
            i = tracer.begin("cyclotomic.eval")
            try:
                return fn(n, q, cache)
            finally:
                tracer.end(i)

        return eval_cyclo

    def certify(fn):
        def compare(m, n, cache, **kwargs):
            i = tracer.begin("comparator.compare")
            try:
                verdict, cert = fn(m, n, cache, **kwargs)
                tracer.peak("comparator.max_threshold_c", cert.threshold_c)
                return verdict, cert
            finally:
                tracer.end(i)

        return compare

    def sort(fn):
        def sort_class(phi_class, cache, **kwargs):
            sink = kwargs.get("cert_sink")
            if sink is not None:
                kwargs["cert_sink"] = tracer.timed("order.cert_hash", sink)
            i = tracer.begin("order.sort_class")
            try:
                k = len(phi_class.members)
                tracer.count("order.pairs", k * (k - 1) // 2)
                return fn(phi_class, cache, **kwargs)
            finally:
                tracer.end(i)

        return sort_class

    def persist(fn):
        timed = tracer.timed("order.checkpoint_append", fn)

        def append(checkpoint, summary):
            # build_chain offers every finished class again after each class;
            # those already on file write nothing and get no span
            if summary["phi"] in checkpoint.completed:
                return fn(checkpoint, summary)
            return timed(checkpoint, summary)

        return append

    def chain(fn):
        def build_chain(*args, **kwargs):
            progress = kwargs.get("progress")
            if progress is not None:
                kwargs["progress"] = tracer.timed("cli.progress", progress)
            return tracer.timed("order.build_chain", fn)(*args, **kwargs)

        return build_chain

    replacements = [
        (comparator, "cyclo", construct(comparator.cyclo)),
        (comparator, "eval_cyclo", evaluate(comparator.eval_cyclo)),
        (order, "compare", certify(order.compare)),
        (order, "sort_class", sort(order.sort_class)),
        (order, "phi_classes", tracer.timed("order.phi_classes", order.phi_classes)),
        (order, "stable_prefix_length",
         tracer.timed("order.stable_prefix", order.stable_prefix_length)),
        (order.CheckpointFile, "append", persist(order.CheckpointFile.append)),
        (cli, "build_chain", chain(cli.build_chain)),
        (cyclotomic.CycloCache, "trim", tracer.timed("cyclotomic.trim", cyclotomic.CycloCache.trim)),
    ]
    return LayerWrappers(
        cyclo=construct(cyclotomic.cyclo),
        compare=certify(comparator.compare),
        build_chain=chain(order.build_chain),
        cli_main=tracer.timed("cli.main", cli.main),
        replacements=replacements,
    )
