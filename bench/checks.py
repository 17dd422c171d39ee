"""Output checks for the benchmark, run outside the timed region.

The references here share no code with the package: totients come from a
local sieve, the sequence digests and the A206225 prefix were pinned from
the verified output of the seed commit, and sampled comparison verdicts are
re-derived through `cycorder.oracle` (the Moebius-product construction and a
plain Horner loop).
"""

from __future__ import annotations

import hashlib
import json
import random

# OEIS A206225: the first 20 terms of the order on the indices.
A206225_PREFIX = [1, 2, 6, 4, 3, 10, 12, 8, 5, 14, 18, 9, 7, 15, 20, 24, 16, 30, 22, 11]

# sha256 of the verified sequence on {1..N}, comma-joined in decimal.
SEQUENCE_SHA256 = {
    200: "fd842c11d78414a279493708e4c7bdec9b8bbfc7939437e807c06dcbb668c685",
    2000: "020689067dafcef27391d6d52e4f66d7297af5af04b7140d8ac247777f3f8afa",
    5000: "b83f28c7b1ced7c1764a364b08f3c7f3d1022707507a5acd0ccb872f21aa6c98",
}


def totient_table(limit: int) -> list[int]:
    """phi(0..limit) by sieve."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    return phi


def sequence_sha256(sequence: list[int]) -> str:
    return hashlib.sha256(",".join(map(str, sequence)).encode()).hexdigest()


def chain_problems(report, range_max: int, phi: list[int]) -> list[str]:
    """Why a ChainReport for {1..range_max} is wrong; empty when it is right."""
    problems = []
    if report.incomparable_pairs:
        problems.append(f"verdict is not TOTAL-ORDER: {len(report.incomparable_pairs)} pairs")
    seq = report.sequence
    if sorted(seq) != list(range(1, range_max + 1)):
        problems.append("sequence is not a permutation of 1..N")
    elif any(phi[a] > phi[b] for a, b in zip(seq, seq[1:])):
        problems.append("totients decrease along the sequence")
    if report.stable_prefix[: len(A206225_PREFIX)] != A206225_PREFIX:
        problems.append("stable prefix does not start with the A206225 terms")
    want = SEQUENCE_SHA256.get(range_max)
    if want is None or sequence_sha256(seq) != want:
        problems.append("sequence digest differs from the pinned one")
    return problems


def cli_verify_problems(order, code: int, stdout: str, range_max: int, phi) -> list[str]:
    """Check `verify --format structured` output: exit code, verdict line and
    the report parsed back through ChainReport.from_record."""
    lines = stdout.splitlines()
    if code != 0:
        return [f"exit code {code}"]
    if len(lines) != 2 or lines[-1] != "VERDICT TOTAL-ORDER":
        return [f"unexpected stdout shape: {len(lines)} lines, last {lines[-1:]!r}"]
    report = order.ChainReport.from_record(json.loads(lines[0]))
    if report.range_max != range_max:
        return [f"report is for range_max={report.range_max}"]
    return chain_problems(report, range_max, phi)


def checkpoint_problems(order, path: str, range_max: int, class_count: int) -> list[str]:
    """The finished checkpoint reloads, hash chain intact, with every class."""
    try:
        completed = order.CheckpointFile(path, range_max).completed
    except order.CheckpointError as exc:
        return [f"checkpoint rejected: {exc}"]
    if len(completed) != class_count:
        return [f"checkpoint holds {len(completed)} of {class_count} classes"]
    return []


def oracle_verdict(oracle, cyclotomic, m: int, n: int) -> tuple[str, int, int]:
    """(verdict, threshold_c, leading_sign) for m against n, re-derived from
    the Moebius-product coefficients and brute-force signs over q in [2, c]."""
    pm = cyclotomic.cyclo_moebius(m).coeffs
    pn = cyclotomic.cyclo_moebius(n).coeffs
    size = max(len(pm), len(pn))
    diff = [(pn[i] if i < len(pn) else 0) - (pm[i] if i < len(pm) else 0) for i in range(size)]
    while diff[-1] == 0:
        diff.pop()
    c = max(map(abs, diff))
    lead = 1 if diff[-1] > 0 else -1
    signs = oracle.brute_compare(m, n, max(c, 2))
    if lead > 0 and signs[-1] == 0:
        return "LESS", c, lead
    if lead < 0 and signs[1] == 0:
        return "GREATER", c, lead
    return "INCOMPARABLE", c, lead


class CompareLog:
    """Checks compare results as they arrive, in memory that does not grow
    with the number of calls.

    Cross-class verdicts must follow the totient-gap rule.  Same-class
    verdicts must order the pair and agree for every repeat of it; one
    entry per distinct pair is kept for the oracle sample in `failures`.
    """

    def __init__(self, phi: list[int]):
        self.phi = phi
        self.failed = 0
        self.problems: list[str] = []
        # (smaller, larger) -> [verdict, threshold_c, leading_sign, calls]
        self.same_class: dict[tuple[int, int], list] = {}
        self.bad_pairs: set[tuple[int, int]] = set()

    def _fail(self, calls: int, why: str) -> None:
        self.failed += calls
        if len(self.problems) < 20:
            self.problems.append(why)

    def record(self, m: int, n: int, verdict: str | None, c: int = 0, lead: int = 0) -> None:
        """One call's result; verdict None when the call raised."""
        key = (min(m, n), max(m, n))
        if verdict is not None and m > n:
            # normalise to the (smaller, larger) orientation
            verdict = {"LESS": "GREATER", "GREATER": "LESS"}.get(verdict, verdict)
            lead = -lead
        if self.phi[m] != self.phi[n]:
            want = "LESS" if self.phi[key[0]] < self.phi[key[1]] else "GREATER"
            if verdict != want:
                self._fail(1, f"pair {key}: totient gap says {want}, got {verdict}")
            return
        entry = self.same_class.get(key)
        if entry is None:
            self.same_class[key] = [verdict, c, lead, 1]
            if verdict not in ("LESS", "GREATER"):
                self.bad_pairs.add(key)
                self._fail(1, f"pair {key}: same-class verdict {verdict}")
        elif key in self.bad_pairs:
            self._fail(1, f"pair {key}: repeat of a failed pair")
        elif entry[:3] != [verdict, c, lead]:
            self.bad_pairs.add(key)
            self._fail(entry[3] + 1, f"pair {key}: repeat calls disagree")
        else:
            entry[3] += 1

    def failures(self, oracle, cyclotomic, seed: int, sample: int) -> tuple[int, list[str]]:
        """Failed calls and reasons, after re-deriving a seeded sample of the
        distinct same-class pairs through the oracle."""
        failed, problems = self.failed, list(self.problems)
        good = sorted(k for k in self.same_class if k not in self.bad_pairs)
        for key in random.Random(seed).sample(good, min(sample, len(good))):
            verdict, c, lead, calls = self.same_class[key]
            want = oracle_verdict(oracle, cyclotomic, *key)
            if (verdict, c, lead) != want:
                failed += calls
                problems.append(f"pair {key}: oracle says {want}, got {(verdict, c, lead)}")
        return failed, problems
