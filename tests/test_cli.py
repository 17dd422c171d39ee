import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cycorder
from cycorder.cli import main
from cycorder.comparator import SumsTable, Verdict, compare, comparison_record
from cycorder.cyclotomic import CycloCache
from cycorder.order import (
    ChainReport,
    CheckpointFile,
    PhiClass,
    build_chain,
    sort_class,
)

A206225_PREFIX = [1, 2, 6, 4, 3, 10, 12, 8, 5, 14, 18, 9, 7, 15, 20, 24, 16, 30, 22, 11]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cyclo_prints_ascending_coefficients(capsys):
    code, out, err = run_cli(capsys, "cyclo", "6")
    assert code == 0
    assert out == "1 -1 1\n"
    assert "ascending" in err  # header names the convention

    code, out, _ = run_cli(capsys, "cyclo", "1")
    assert code == 0 and out == "-1 1\n"

    code, out, _ = run_cli(capsys, "cyclo", "6", "2")
    assert code == 0 and out.splitlines() == ["1 -1 1", "3"]


def test_cyclo_rejects_small_q(capsys):
    code, out, err = run_cli(capsys, "cyclo", "6", "1")
    assert code == 2 and "q must be >= 2" in err


def test_compare_verdicts_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "compare", "1", "2")
    assert code == 0 and out == "LESS\n"
    code, out, _ = run_cli(capsys, "compare", "5", "5")
    assert code == 0 and out == "EQUAL\n"
    code, out, _ = run_cli(capsys, "compare", "8", "5")
    assert code == 0 and out == "LESS\n"
    code, out, _ = run_cli(capsys, "compare", "3", "2")
    assert code == 0 and out == "GREATER\n"


def test_compare_certificate_round_trips(capsys):
    code, out, _ = run_cli(capsys, "compare", "6", "4", "--certificate")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "LESS"
    rec = json.loads(lines[1])
    assert rec == comparison_record(6, 4, *compare(6, 4, CycloCache()))
    assert rec["m"] == 6 and rec["n"] == 4
    assert rec["threshold_c"] == 1 and rec["leading_sign"] == 1
    assert rec["checked_q_max"] == 1 and rec["shortcut_tag"] is None

    # unequal totients: the gap decides, and Phi_2(2) = Phi_6(2) = 3 tie
    code, out, _ = run_cli(capsys, "compare", "2", "6", "--certificate")
    assert code == 0 and out.splitlines() == [
        "LESS",
        '{"checked_q_max":2,"flip_witnesses":[],"leading_sign":1,"m":2,"n":6,'
        '"shortcut_tag":"totient-gap","threshold_c":0,"tie_witnesses":[2],"verdict":"LESS"}',
    ]


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "0", "4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compare", "1", "notanumber"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["chain", "5", "--format", "nope"])
    assert exc.value.code == 2


def test_chain_plain_and_summary(capsys):
    code, out, err = run_cli(capsys, "chain", "6")
    assert code == 0
    assert out.splitlines() == ["1", "2", "6", "4", "3"]
    assert "stable prefix length=5" in err

    code, out, _ = run_cli(capsys, "chain", "1")
    assert code == 0 and out == ""


def test_chain_bfile_matches_sequence_prefix(capsys):
    code, out, _ = run_cli(capsys, "chain", "31", "--format", "oeis-bfile")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 20
    assert lines == [f"{k} {x}" for k, x in enumerate(A206225_PREFIX, start=1)]


def test_chain_delimited(capsys):
    code, out, _ = run_cli(capsys, "chain", "6", "--format", "delimited")
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "position,index,totient,tie_flag"
    assert rows[1:] == ["1,1,1,0", "2,2,1,0", "3,6,2,0", "4,4,2,0", "5,3,2,0"]


def test_chain_structured_round_trips(capsys):
    code, out, _ = run_cli(capsys, "chain", "40", "--format", "structured")
    assert code == 0
    rep = ChainReport.from_record(json.loads(out))
    assert rep == build_chain(40)


def test_verify_total_order(capsys):
    code, out, err = run_cli(capsys, "verify", "100")
    assert code == 0
    assert out.strip().splitlines()[-1] == "VERDICT TOTAL-ORDER"
    assert "compares=" in err


def test_verify_structured(capsys):
    code, out, _ = run_cli(capsys, "verify", "60", "--format", "structured")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "VERDICT TOTAL-ORDER"
    rep = ChainReport.from_record(json.loads(lines[0]))
    assert rep.range_max == 60 and not rep.incomparable_pairs


def test_verify_checkpoint_and_corruption(capsys, tmp_path):
    path = str(tmp_path / "v.ckpt")
    code, out, _ = run_cli(capsys, "verify", "80", "--checkpoint", path)
    assert code == 0 and out.strip().splitlines()[-1] == "VERDICT TOTAL-ORDER"

    code, out, _ = run_cli(capsys, "verify", "80", "--checkpoint", path)
    assert code == 0  # resume of a finished run

    lines = Path(path).read_text().splitlines(True)
    edited = lines[1].replace('"pair_count":', '"pair_count":9', 1)
    assert edited != lines[1]
    with open(path, "w") as fh:
        fh.writelines([lines[0], edited] + lines[2:])
    code, out, err = run_cli(capsys, "verify", "80", "--checkpoint", path)
    assert code == 4 and err == f"checkpoint error: {path}: hash chain mismatch at line 2\n"


@pytest.mark.parametrize("line_no", [1, 2])
def test_checkpoint_line_that_is_not_an_object_exits_4(capsys, tmp_path, line_no):
    """A line that parses as JSON but is not an object is refused wherever
    it stands, the final line included: only a line that does not parse
    is dropped as torn."""
    path = tmp_path / "v.ckpt"
    assert run_cli(capsys, "verify", "30", "--checkpoint", str(path))[0] == 0
    lines = path.read_text().splitlines(True)
    lines[line_no - 1] = "[]\n" if line_no == 1 else "[1, 2]\n"
    path.write_text("".join(lines[:line_no]))
    code, out, err = run_cli(capsys, "verify", "30", "--checkpoint", str(path))
    assert code == 4 and out == ""
    assert err == f"checkpoint error: {path}: line {line_no} is not a JSON object\n"


@pytest.mark.parametrize("where", ["in a missing directory", "a directory", "empty"])
def test_unopenable_checkpoint_exits_4_without_a_traceback(tmp_path, where):
    """A checkpoint path that cannot be opened ends the run as any other
    unusable checkpoint does: one `checkpoint error` line and exit 4.  An
    empty path is one too, not a run without a checkpoint."""
    path = {"in a missing directory": tmp_path / "missing" / "v.ckpt", "a directory": tmp_path, "empty": ""}[where]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cycorder.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "cycorder", "verify", "10", "--checkpoint", str(path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 4 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"checkpoint error: {path}: cannot be opened: ")
    assert proc.stderr.count("\n") == 1


def test_verify_progress_lines(capsys):
    code, _, err = run_cli(capsys, "-v", "verify", "20")
    assert code == 0
    assert "class phi=1 size=2" in err


def test_conjecture2_output(capsys):
    code, out, _ = run_cli(capsys, "conjecture2", "1")
    assert code == 0 and out == "i=1 FAILS blockers=[4]\n"
    code, out, _ = run_cli(capsys, "conjecture2", "2")
    assert code == 0 and out.splitlines() == ["i=1 FAILS blockers=[4]", "i=2 HOLDS"]


def test_compare_incomparable_exit_code(capsys, monkeypatch):
    # no real incomparable pair is known; force the verdict to check the
    # scriptable exit code contract
    from cycorder import cli
    from cycorder.comparator import Certificate, Verdict

    cert = Certificate(3, 1, 4, [], [4, 2])
    monkeypatch.setattr(cli, "compare", lambda m, n, cache: (Verdict.INCOMPARABLE, cert))
    code, out, _ = run_cli(capsys, "compare", "7", "9", "--certificate")
    assert code == 3
    lines = out.splitlines()
    assert lines[0] == "INCOMPARABLE"
    assert '"verdict":"INCOMPARABLE"' in lines[1]


def test_invtot_and_phi(capsys):
    code, out, _ = run_cli(capsys, "invtot", "4")
    assert code == 0 and out.splitlines() == ["5", "8", "10", "12"]
    code, out, _ = run_cli(capsys, "invtot", "3")
    assert code == 0 and out == ""
    code, out, _ = run_cli(capsys, "phi", "12")
    assert code == 0 and out == "4\n"


@pytest.mark.parametrize(
    "argv, name, bound, worker",
    [
        (["cyclo", None], "N", "MAX_CYCLO_INDEX", "cyclo"),
        (["compare", "1", None], "N", "MAX_CYCLO_INDEX", "compare"),
        (["compare", None, "1"], "M", "MAX_CYCLO_INDEX", "compare"),
        (["conjecture2", None], "I", "MAX_CONJECTURE2_I", "check_conjecture2"),
        (["invtot", None], "V", "MAX_INVTOT_VALUE", "inverse_totient"),
        (["chain", None], "N", "MAX_CYCLO_INDEX", "build_chain"),
        (["-w", "2", "verify", None], "N", "MAX_CYCLO_INDEX", "build_chain"),
        (["phi", None], "N", "MAX_PHI_INDEX", "totient"),
    ],
    ids=["cyclo", "compare-n", "compare-m", "conjecture2", "invtot", "chain", "verify", "phi"],
)
def test_size_guard_exits_2_before_any_work(capsys, monkeypatch, argv, name, bound, worker):
    """The oversized value stands where argv holds None."""
    from cycorder import cli

    limit = getattr(cli, bound)

    def must_not_run(*args):
        raise AssertionError(f"{worker} ran on an oversized input")

    monkeypatch.setattr(cli, worker, must_not_run)
    code, out, err = run_cli(capsys, *(str(limit + 1) if a is None else a for a in argv))
    assert code == 2 and out == ""
    assert f"{name} must be <= {limit}, got {limit + 1}" in err


def test_value_size_guard_exits_2_before_evaluating(capsys, monkeypatch):
    from cycorder import cli

    def must_not_run(*args):
        raise AssertionError("eval_cyclo ran on an oversized value")

    monkeypatch.setattr(cli, "eval_cyclo", must_not_run)
    code, out, err = run_cli(capsys, "cyclo", "100000", str(10**300))
    assert code == 2 and out == ""
    bits = (40000 + 1) * (10**300).bit_length()
    assert f"(phi(N) + 1) * bit_length(Q) must be <= {cli.MAX_CYCLO_VALUE_BITS}, got {bits}" in err


def test_cyclo_prints_a_value_above_the_str_digit_limit(capsys):
    """Phi_100000(2) has 12,042 digits, above str()'s default 4,300."""
    from cycorder.cyclotomic import CycloCache, eval_cyclo

    code, out, _ = run_cli(capsys, "cyclo", "100000", "2")
    value = eval_cyclo(100000, 2, CycloCache())
    digits = out.splitlines()[1]
    assert code == 0 and len(digits) == 12042
    # read back 500 digits at a time: int(digits) meets the same limit
    parsed = 0
    for i in range(0, len(digits), 500):
        chunk = digits[i : i + 500]
        parsed = parsed * 10 ** len(chunk) + int(chunk)
    assert parsed == value


def test_verify_stderr_is_the_same_for_any_worker_count(capsys):
    """Progress lines come one per class in ascending totient order, so
    two workers print byte for byte what one prints."""
    serial = run_cli(capsys, "-w", "1", "verify", "300")
    assert run_cli(capsys, "-w", "2", "verify", "300") == serial
    phis = [int(line.split()[1][4:]) for line in serial[2].splitlines()
            if line.startswith("class phi=")]
    assert phis == sorted(set(phis)) and len(phis) > 1


def test_workers_flag(capsys):
    code, out, _ = run_cli(capsys, "-w", "2", "chain", "60")
    assert code == 0
    serial = build_chain(60)
    assert out.splitlines() == [str(x) for x in serial.stable_prefix]


def test_verify_5000_structured_output_and_checkpoint_bytes(capsys, tmp_path):
    """`verify 5000 --format structured --checkpoint F` writes these exact
    bytes.  F's class lines carry every `cert_hash`, so the digests pin
    the sequence, the verdicts and every certificate record."""
    path = tmp_path / "v.ckpt"
    code, out, err = run_cli(capsys, "verify", "5000", "--format", "structured",
                             "--checkpoint", str(path))
    assert code == 0
    digests = [hashlib.sha256(data).hexdigest()
               for data in (out.encode(), path.read_bytes(), err.encode())]
    assert digests == [
        "d8c5d3e311d8ab7693dde418496686ff60d95157e734b030318860b806d6b349",
        "f1780799131972523473cbed2a26d2c4121184890b73a5d85272ae401893bbd2",
        "f5d77c8992a606e334c690b6efcb8f894a259c5c7a64d73ea6e637389f45334b",
    ]
    assert_lines_are_compact_and_chained(path.read_bytes())


def assert_lines_are_compact_and_chained(data: bytes) -> None:
    """Each checkpoint line is the compact sorted-key JSON of what it
    parses to without its chain, followed by "chain" as its last field,
    and each chain is the sha256 of the previous chain (none before the
    header) plus those bytes.  Uses only hashlib and json."""
    prev = b""
    for line in data.splitlines():
        rec = json.loads(line)
        chain = rec.pop("chain")
        body = json.dumps(rec, sort_keys=True, separators=(",", ":")).encode()
        assert line == body[:-1] + b',"chain":"' + chain.encode() + b'"}'
        assert chain == hashlib.sha256(prev + body).hexdigest()
        prev = chain.encode()


def test_stand_in_checkpoint_lines_are_the_general_encoders(stand_in_values, tmp_path):
    """The tied class of the stand-ins and the incomparable one, whose
    records the line carries, are written in the same format; both
    lines resume."""
    table = SumsTable(12)
    for members in ([10, 8], [10, 5, 12]):
        summary = sort_class(PhiClass(4, members), table)
        assert not table.outcomes  # every window undecided: nothing is memoised
        assert summary["ties"] and bool(summary["incomparable"]) == (members == [10, 8])
        path = str(tmp_path / f"{len(members)}.ckpt")
        checkpoint = CheckpointFile(path, 12)
        checkpoint.append(summary)
        checkpoint.close()
        assert_lines_are_compact_and_chained(Path(path).read_bytes())
        records = [comparison_record(m, n, Verdict.INCOMPARABLE, cert) for m, n, cert in summary["incomparable"]]
        assert [json.loads(body) for body in CheckpointFile(path, 12).completed] == [
            dict(summary, kind="class", incomparable=records)
        ]
