"""The benchmark's workloads and the metrics they report.

Each workload is one client in a closed loop: the next operation starts
when the previous one has returned.  An operation is one `verify` call (to
a report that is then checked) on the verify workloads and one `compare`
call on compare-2000.  Every operation's output is checked after the timed
region; an operation that raised or failed a check counts as failed.

Set-up is repeated and its median reported as setup_s.  Every repetition
imports the package afresh; compare-2000 also builds its session cache.

A run measures operations until their summed time reaches the requested
seconds, and reports the median over its windows of each window's figures:
a window is one verification, or one replay of compare-2000's fixed block of
calls.  Every time is scaled to a reference host speed (pace.py).  README.md
gives the reason for each workload and the layer each metric belongs to.
"""

from __future__ import annotations

import importlib
import io
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import traceback
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from math import ceil
from time import perf_counter
from types import SimpleNamespace

import checks
import pace
import spans


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]
    view: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def fresh_import(src: str) -> SimpleNamespace:
    """Import the package from `src` as a new process would, dropping any
    copy imported before."""
    for name in [m for m in sys.modules if m == "cycorder" or m.startswith("cycorder.")]:
        del sys.modules[name]
    pkg = importlib.import_module("cycorder")
    if not os.path.abspath(pkg.__file__).startswith(os.path.join(os.path.abspath(src), "")):
        raise RuntimeError(f"imported cycorder from {pkg.__file__}, not from {src}")
    return SimpleNamespace(
        cyclotomic=importlib.import_module("cycorder.cyclotomic"),
        comparator=importlib.import_module("cycorder.comparator"),
        order=importlib.import_module("cycorder.order"),
        cli=importlib.import_module("cycorder.cli"),
    )


def untraced_entry(mods) -> SimpleNamespace:
    """The calls the benchmark makes into the package, unwrapped."""
    return SimpleNamespace(
        cyclo=mods.cyclotomic.cyclo,
        compare=mods.comparator.compare,
        build_chain=mods.order.build_chain,
        cli_main=mods.cli.main,
    )


class PeakRss:
    """Peak resident memory of this process plus its worker processes.

    This process's peak comes from getrusage.  A thread reads the peak
    (VmHWM) of every child process from /proc every interval; a child's
    last reading before it exits stands for its peak.  The sum of
    per-process peaks counts pages shared with the parent once per process.
    """

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.children_kib: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            for pid in _child_pids():
                kib = _vm_hwm_kib(pid)
                if kib > self.children_kib.get(pid, 0):
                    self.children_kib[pid] = kib

    def mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        return (own + sum(self.children_kib.values())) / 1024


def _child_pids() -> list[int]:
    pids = []
    try:
        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/children", encoding="ascii") as fh:
                pids.extend(int(p) for p in fh.read().split())
    except OSError:
        pass  # no procfs, or a thread ended while listing
    return pids


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass  # the child has exited
    return 0


def tail(ordered) -> float:
    """The nearest-rank p99 when at least ten samples lie beyond it;
    otherwise the highest rank that has ten beyond it, but never less than
    the median (the value for fewer than about 20 samples)."""
    n = len(ordered)
    rank = min(ceil(0.99 * n), n - 10)
    if rank <= (n + 1) // 2:
        return statistics.median(ordered)
    return ordered[rank - 1]


def latency_metrics(windows, scaled: bool = True) -> dict[str, tuple[float, str]]:
    """Median, tail and rate of each window of latencies, each reported as
    its median over the windows.  A window is (latencies, scale): the scale
    takes its times to the reference host (see pace.py); with scaled=False
    the times are reported as measured."""
    p50, p99, rate = [], [], []
    for lat, k in windows:
        k = k if scaled else 1.0
        ordered = sorted(lat)
        p50.append(statistics.median(ordered) * k)
        p99.append(tail(ordered) * k)
        rate.append(len(ordered) / sum(ordered) / k)
    return {
        "op_p50_ms": (statistics.median(p50) * 1e3, "ms"),
        "op_p99_ms": (statistics.median(p99) * 1e3, "ms"),
        "ops_per_s": (statistics.median(rate), "1/s"),
    }


def _guarded(op):
    """Run op(); on an exception print its traceback and return None, so
    that the operation counts as failed and the run goes on."""
    try:
        return op()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


# ---------------------------------------------------------------------------
# verify workloads
# ---------------------------------------------------------------------------


@dataclass
class Verify:
    """Verify the total order on {1..range_max}.

    With via_cli, the operation is the command line
    `-w W verify N --checkpoint <fresh file> --format structured`, whose
    stdout is parsed back and checked; otherwise it is the library call
    build_chain(N, workers=W) without a checkpoint.
    """

    range_max: int
    workers: int
    via_cli: bool
    setup_reps: int = 15
    trace_ops: int = 1

    def prepare(self, mods, seed: int, entry) -> None:
        return None

    def _op(self, entry, ckpt: str):
        if not self.via_cli:
            return entry.build_chain(self.range_max, workers=self.workers)
        argv = ["-w", str(self.workers), "verify", str(self.range_max),
                "--checkpoint", ckpt, "--format", "structured"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = entry.cli_main(argv)
        return code, out.getvalue(), ckpt

    def measure(self, state, entry, seconds: float, workdir: str, limit: int | None = None):
        """Run operations until their summed time reaches `seconds`, or
        exactly `limit` of them.  Each operation is a latency window of its
        own, with the host's speed sampled during it."""
        windows, results, total = [], [], 0.0
        while total < seconds if limit is None else len(windows) < limit:
            ckpt = os.path.join(tempfile.mkdtemp(prefix="verify-", dir=workdir), "verify.ckpt")
            with pace.Interval(sampled=True, spread=self.workers > 1) as span:
                result = _guarded(lambda: self._op(entry, ckpt))
            windows.append(([span.seconds], span.scale))
            results.append(result)
            total += span.seconds
        return windows, results

    def check(self, mods, results, phi, seed: int) -> tuple[int, list[str]]:
        failed, problems = 0, []
        for result in results:
            found = ["raised"] if result is None else _guarded(lambda: self._problems(mods, result, phi))
            if found is None:
                found = ["check raised"]
            if found:
                failed += 1
                problems.extend(found)
        return failed, problems

    def _problems(self, mods, result, phi) -> list[str]:
        if not self.via_cli:
            return checks.chain_problems(result, self.range_max, phi)
        code, stdout, ckpt = result
        try:
            found = checks.cli_verify_problems(mods.order, code, stdout, self.range_max, phi)
            classes = len(set(phi[1 : self.range_max + 1]))
            return found or checks.checkpoint_problems(mods.order, ckpt, self.range_max, classes)
        finally:
            shutil.rmtree(os.path.dirname(ckpt), ignore_errors=True)

    def view(self, metrics: dict, windows: list) -> list[str]:
        return [f"verify_s = {metrics['op_p50_ms'][0] / 1e3!r} s  (median of n={len(windows)})"]

    def traced_extras(self, mods, results) -> dict[str, tuple[float, str]]:
        """Checkpoint size and reload time, and the command's stdout size,
        for the traced operation (the last result)."""
        if not self.via_cli or results[-1] is None:
            return {}
        _, stdout, ckpt = results[-1]
        loads = []
        for _ in range(3):
            t0 = perf_counter()
            mods.order.CheckpointFile(ckpt, self.range_max)
            loads.append(perf_counter() - t0)
        return {
            "order.checkpoint_bytes": (os.path.getsize(ckpt), "B"),
            "order.checkpoint_load_s": (statistics.median(loads), "s"),
            "cli.stdout_bytes": (len(stdout.encode()), "B"),
        }


# ---------------------------------------------------------------------------
# compare session
# ---------------------------------------------------------------------------


# share of compare requests drawn from the same-totient-class pairs
SAME_CLASS_SHARE = 0.75
# calls in the replayed compare block; 2,000 leaves 20 calls beyond each
# replay's p99
BLOCK_CALLS = 2000
# calls between two host-speed readings in a replay, about 40 ms of calls
SAMPLE_CALLS = 250


@dataclass
class CompareSession:
    """A long-lived library session answering compare(m, n, cache) calls
    against a cache holding every polynomial for 1..range_max.

    The requests are a seeded block of BLOCK_CALLS pairs: with probability
    SAME_CLASS_SHARE a pair drawn uniformly from the same-totient-class
    pairs of {1..range_max}, otherwise two distinct uniform indices; each
    pair is put in random order.  The block is replayed whole, each replay
    on an empty evaluation memo, so every replay does the same work.
    """

    range_max: int
    oracle_sample: int = 16
    setup_reps: int = 3
    trace_ops: int = 20_000
    workers = 1

    def prepare(self, mods, seed: int, entry):
        cache = mods.cyclotomic.CycloCache()
        for n in range(1, self.range_max + 1):
            entry.cyclo(n, cache)
        phi = checks.totient_table(self.range_max)
        return SimpleNamespace(cache=cache, phi=phi, requests=self.requests(seed, phi))

    def requests(self, seed: int, phi: list[int]) -> list[tuple[int, int]]:
        classes: dict[int, list[int]] = {}
        for x in range(1, self.range_max + 1):
            classes.setdefault(phi[x], []).append(x)
        pairs = [(a, b) for members in classes.values()
                 for i, a in enumerate(members) for b in members[i + 1:]]
        rng = random.Random(seed)
        out = []
        for _ in range(BLOCK_CALLS):
            if rng.random() < SAME_CLASS_SHARE:
                m, n = pairs[rng.randrange(len(pairs))]
            else:
                m = rng.randint(1, self.range_max)
                n = rng.randint(1, self.range_max - 1)
                n += n >= m
            out.append((m, n) if rng.random() < 0.5 else (n, m))
        return out

    def measure(self, state, entry, seconds: float, workdir: str, limit: int | None = None):
        """Replay the request block until the calls' summed time reaches
        `seconds`, or until `limit` calls.  Each replay is a latency window,
        with the host's speed read before it, after it and between calls
        every SAMPLE_CALLS calls.  Results are checked as they arrive,
        outside each call's timed region."""
        cache, compare = state.cache, entry.compare
        windows, log, total, calls = [], checks.CompareLog(state.phi), 0.0, 0
        while total < seconds if limit is None else calls < limit:
            cache.evals.clear()
            lat = array("d")
            with pace.Interval() as span:
                for i, (m, n) in enumerate(state.requests):
                    if i % SAMPLE_CALLS == 0:
                        span.sample()
                    t0 = perf_counter()
                    try:
                        verdict, cert = compare(m, n, cache)
                    except Exception:
                        lat.append(perf_counter() - t0)
                        traceback.print_exc(file=sys.stderr)
                        log.record(m, n, None)
                    else:
                        lat.append(perf_counter() - t0)
                        log.record(m, n, verdict.value, cert.threshold_c, cert.leading_sign)
            windows.append((lat, span.scale))
            total += sum(lat)
            calls += len(lat)
        return windows, [log]

    def check(self, mods, logs, phi, seed: int) -> tuple[int, list[str]]:
        oracle = importlib.import_module("cycorder.oracle")
        failed, problems = 0, []
        for log in logs:
            f, p = log.failures(oracle, mods.cyclotomic, seed, self.oracle_sample)
            failed += f
            problems += p
        return failed, problems

    def view(self, metrics: dict, windows: list) -> list[str]:
        n = f"median of {len(windows)} replays of {len(windows[0][0])} calls"
        return [
            f"compares_per_s = {metrics['ops_per_s'][0]!r} 1/s  ({n})",
            f"compare_p50_us = {metrics['op_p50_ms'][0] * 1e3!r} us  ({n})",
            f"compare_p99_us = {metrics['op_p99_ms'][0] * 1e3!r} us  ({n})",
        ]

    def traced_extras(self, mods, results) -> dict[str, tuple[float, str]]:
        return {}


WORKLOADS = {
    "verify-2000": Verify(2000, workers=1, via_cli=False),
    "verify-5000-w2": Verify(5000, workers=2, via_cli=True),
    "compare-2000": CompareSession(2000),
}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run(spec, seed: int, seconds: float, src: str, workdir: str, trace_path: str | None = None) -> Outcome:
    """Set up, measure and check one workload for its end-to-end metrics;
    with a trace_path, for its per-layer metrics instead.  Scratch files go
    to workdir."""
    phi = checks.totient_table(spec.range_max)
    if trace_path:
        return _run_traced(spec, seed, src, workdir, trace_path, phi)

    setup = []
    for _ in range(spec.setup_reps):
        # drop the previous repetition first, so that one session is alive
        # at a time and the process's peak memory is that of one session
        mods = state = None
        with pace.Interval(sampled=True) as span:
            mods = fresh_import(src)
            state = spec.prepare(mods, seed, untraced_entry(mods))
        setup.append((span.seconds, span.scale))
    with PeakRss() as rss:
        windows, results = spec.measure(state, untraced_entry(mods), seconds, workdir)
    peak = rss.mb()
    failed, problems = spec.check(mods, results, phi, seed)
    metrics = {"setup_s": (statistics.median(t * k for t, k in setup), "s")}
    metrics.update(latency_metrics(windows))
    metrics["peak_rss_mb"] = (peak, "MB")
    unscaled = {"setup_s": (statistics.median(t for t, _ in setup), "s")}
    unscaled.update(latency_metrics(windows, scaled=False))
    scales = [k for _, k in setup + windows]
    view = spec.view(metrics, windows) + [
        f"unscaled {name} = {value!r} {unit}" for name, (value, unit) in unscaled.items()
    ] + [f"host-speed scale: median {statistics.median(scales)!r}, "
         f"range {min(scales)!r}..{max(scales)!r} over {len(scales)} intervals"]
    ops = sum(len(lat) for lat, _ in windows)
    return Outcome(metrics, view, ops, failed, problems)


def _run_traced(spec, seed: int, src: str, workdir: str, trace_path: str, phi) -> Outcome:
    """Run spec.trace_ops operations plainly, then the same operations with
    layer spans; the per-layer metrics come from the second pass and the
    difference of the two passes' scaled times is the tracing overhead.
    The spans go to trace_path."""
    spool = tempfile.mkdtemp(prefix="spool-", dir=workdir)
    tracer = spans.Tracer(spool)
    mods = fresh_import(src)
    traced = spans.layer_wrappers(tracer, mods)
    state = spec.prepare(mods, seed, traced)
    plain_windows, plain_results = spec.measure(state, untraced_entry(mods), 0, workdir, spec.trace_ops)
    with spans.patched(traced.replacements):
        windows, results = spec.measure(state, traced, 0, workdir, spec.trace_ops)
    plain_s = sum(sum(lat) * k for lat, k in plain_windows)
    traced_s = sum(sum(lat) * k for lat, k in windows)
    ops = sum(len(lat) for lat, _ in windows)
    tables, totals = tracer.merged()
    shutil.rmtree(spool, ignore_errors=True)
    spans.write_spans(trace_path, tables)

    metrics = layer_metrics(totals, spec.workers)
    metrics.update(spec.traced_extras(mods, results))
    metrics["trace.overhead_pct"] = ((traced_s - plain_s) / plain_s * 100, "%")
    failed, problems = spec.check(mods, list(plain_results) + list(results), phi, seed)
    view = [f"traced {ops} ops in {traced_s!r} s, untraced {plain_s!r} s (both scaled); "
            f"{totals.processes} processes, {sum(totals.calls.values())} spans"]
    return Outcome(metrics, view, 2 * ops, failed, problems)


def layer_metrics(totals: spans.Totals, workers: int) -> dict[str, tuple[float, str]]:
    own, calls, counts = totals.self_time, totals.calls, totals.counts
    hits, misses = counts["comparator.eval_memo_hits"], calls["cyclotomic.eval"]
    if calls["order.build_chain"]:
        # work done inside build_chain, spread over the workers, against its wall time
        work = sum(v for k, v in own.items() if k not in ("order.build_chain", "cli.main"))
        pool_overhead = totals.wall["order.build_chain"] - work / workers
    else:
        pool_overhead = 0.0
    return {
        "cyclotomic.construct_s": (own["cyclotomic.construct"], "s"),
        "cyclotomic.construct_calls": (calls["cyclotomic.construct"], "count"),
        "cyclotomic.degree_sum": (counts["cyclotomic.degree_sum"], "count"),
        "cyclotomic.cache_entries": (counts["cyclotomic.cache_entries"], "count"),
        "cyclotomic.eval_s": (own["cyclotomic.eval"], "s"),
        "cyclotomic.eval_points": (misses, "count"),
        "cyclotomic.trim_s": (own["cyclotomic.trim"], "s"),
        "comparator.compare_s": (own["comparator.compare"], "s"),
        "comparator.compare_calls": (calls["comparator.compare"], "count"),
        "comparator.max_threshold_c": (totals.peaks.get("comparator.max_threshold_c", 0), "count"),
        "comparator.eval_calls": (hits + misses, "count"),
        "comparator.eval_memo_misses": (misses, "count"),
        "comparator.eval_memo_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "order.phi_classes_s": (own["order.phi_classes"], "s"),
        "order.stable_prefix_s": (own["order.stable_prefix"], "s"),
        "order.sort_class_s": (own["order.sort_class"], "s"),
        "order.classes": (calls["order.sort_class"], "count"),
        "order.pairs": (counts["order.pairs"], "count"),
        "order.cert_hash_s": (own["order.cert_hash"], "s"),
        "order.checkpoint_append_s": (own["order.checkpoint_append"], "s"),
        "order.checkpoint_appends": (calls["order.checkpoint_append"], "count"),
        "order.checkpoint_bytes": (0, "B"),
        "order.checkpoint_load_s": (0.0, "s"),
        "order.pool_overhead_s": (pool_overhead, "s"),
        "cli.format_s": (own["cli.main"] + own["cli.progress"], "s"),
        "cli.stdout_bytes": (0, "B"),
    }
