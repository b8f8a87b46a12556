"""Tests for the command-line interface: flags, exit codes, output formats."""

import json
import time

import pytest

from fpp.cli import main
from fpp.perms import FactoradicLabeling, labeling_to_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_six_query_all(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--alg", "six-query", "--n", "3",
        "--labeling", "factoradic", "--y", "all",
    )
    assert code == 0
    assert "queries=6" in out
    assert "RESULT: PASS (6/6)" in out


def test_run_reference_switch(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--alg", "switch", "--n", "4",
        "--y", "all",
    )
    assert code == 0
    assert "queries=4" in out
    assert "RESULT: PASS (24/24)" in out


def test_run_sim_switch_sample(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--alg", "sim-switch", "--n", "4",
        "--y", "sample:5",
    )
    assert code == 0
    assert "queries=16" in out


def test_run_sqrt_sample(capsys):
    # n=5: nhat=3, khat=2, so (3 + 4*2 - 4) * 5 = 35 queries
    code, out, _ = run_cli(
        capsys, "run", "--alg", "sqrt", "--n", "5",
        "--y", "sample:5",
    )
    assert code == 0
    assert "queries=35" in out


def test_run_structured_output(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--alg", "six-query", "--n", "3",
        "--y", "2", "--format", "structured",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["query_count"] == 6
    assert payload["counts_match"] is True
    assert payload["reports"][0]["solved_y"] == 2
    assert payload["reports"][0]["passed"] is True
    # the embedded report round-trips through the report schema
    from fpp.algorithms import VerificationReport

    report = VerificationReport.from_json(json.dumps(payload["reports"][0]))
    assert report.solved_y == 2
    assert json.loads(report.to_json()) == payload["reports"][0]


@pytest.mark.parametrize("alg", ["nlogn", "sim-switch"])
@pytest.mark.parametrize("n", ["13", "5000", "1000000"])
def test_run_large_n_exits2_before_any_work(capsys, alg, n):
    # the int64 readout bounds n at 12; past it, run builds no circuit and
    # forms no n!, which at n=1000000 alone would take seconds
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "run", "--alg", alg, "--n", n, "--y", "0")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"error: n={n}: the int64 readout needs n!^2 < 2^63, so n <= 12\n"


def test_run_incompatible_flags_exit2(capsys):
    cases = [
        (["run", "--alg", "six-query", "--n", "4"], "six-query requires --n 3"),
        (["run", "--alg", "superperm", "--n", "5"], "superperm requires --n 3 or --n 4"),
        (["run", "--alg", "switch", "--n", "1"], "--n must be at least 2"),
        (["dense", "--alg", "switch", "--n", "3"], "invalid choice: 'switch'"),
    ]
    for argv, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_run_refuses_the_removed_parallel_flag(capsys):
    # every control state is swept in one process; there is no worker count
    with pytest.raises(SystemExit) as exc:
        main(["run", "--alg", "sqrt", "--n", "4", "--y", "all", "--parallel", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --parallel 1" in captured.err


@pytest.mark.parametrize("flag, value", [
    ("--y", "foo"),
    ("--y", "sample:x"),
    ("--labeling", "enumerate-index:x"),
    ("--labeling", "file:{bad_file}"),
])
def test_run_malformed_integer_exit2(tmp_path, capsys, flag, value):
    bad_file = tmp_path / "bad.txt"
    bad_file.write_text("0 2 1 0\n1 2 x 1\n")
    code, out, err = run_cli(
        capsys, "run", "--alg", "six-query", "--n", "3",
        flag, value.format(bad_file=bad_file),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_run_nlogn_reduced_needs_4_or_8(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--alg", "nlogn-reduced", "--n", "5"])
    assert exc.value.code == 2


def test_run_six_query_enumerated_labeling(capsys):
    # the six-query circuit is built for whichever labeling is requested
    code, out, _ = run_cli(
        capsys, "run", "--alg", "six-query", "--n", "3",
        "--labeling", "enumerate-index:1", "--y", "all",
    )
    assert code == 0


def test_run_nlogn_wrong_labeling_exit1(capsys):
    # nlogn realizes the factoradic pairwise phases only; any other labeling
    # fails verification (except at y=0) and the run exits 1
    code, out, _ = run_cli(
        capsys, "run", "--alg", "nlogn", "--n", "3",
        "--labeling", "enumerate-index:1", "--y", "all",
    )
    assert code == 1
    assert "RESULT: FAIL" in out


def test_run_missing_labeling_file(capsys):
    code, out, err = run_cli(
        capsys, "run", "--alg", "six-query", "--n", "3",
        "--labeling", "file:/nonexistent",
    )
    assert code == 2
    assert out == ""
    assert "error: cannot read labeling file '/nonexistent'" in err


def test_run_binary_labeling_file(tmp_path, capsys):
    path = tmp_path / "labeling.bin"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run_cli(
        capsys, "run", "--alg", "six-query", "--n", "3",
        "--labeling", f"file:{path}",
    )
    assert code == 2
    assert out == ""
    assert "is not UTF-8 text" in err


def test_run_labeling_file_mixed_word_lengths(tmp_path, capsys):
    path = tmp_path / "mixed.txt"
    path.write_text("0 1 0\n1 2 1 0\n")
    code, out, err = run_cli(
        capsys, "run", "--alg", "sim-switch", "--n", "2",
        "--labeling", f"file:{path}",
    )
    assert code == 2
    assert out == ""
    assert "error: line 2: word has 3 symbols, but line 1 has 2" in err


def test_run_labeling_file_repeated_x(tmp_path, capsys):
    # the last line for x=1 used to replace the first one without a word
    path = tmp_path / "repeated.txt"
    path.write_text("0 1 0\n1 1 0\n1 0 1\n")
    code, out, err = run_cli(
        capsys, "run", "--alg", "sim-switch", "--n", "2",
        "--labeling", f"file:{path}", "--y", "all",
    )
    assert code == 2
    assert out == ""
    assert "error: line 3: x=1 already given on line 2" in err


def test_dense_unsupported_n_exits_before_sweep(capsys, monkeypatch):
    import fpp.cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("phase_profile must not run for an unsupported n")

    monkeypatch.setattr(fpp.cli, "phase_profile", no_sweep)
    code, out, err = run_cli(capsys, "dense", "--alg", "sim-switch", "--n", "8", "--y", "1")
    assert code == 2
    assert out == ""
    assert (
        "error: dense promise unitaries have up to (n!)^(n-1) rows; "
        "n=8 is unsupported (n <= 4)" in err
    )


def test_run_labeling_file(tmp_path, capsys):
    path = tmp_path / "fac3.txt"
    path.write_text(labeling_to_text(FactoradicLabeling(3)))
    code, out, _ = run_cli(
        capsys, "run", "--alg", "six-query", "--n", "3",
        "--labeling", f"file:{path}", "--y", "all",
    )
    assert code == 0
    assert "RESULT: PASS" in out


def test_queries_table(capsys):
    code, out, _ = run_cli(capsys, "queries", "--n-max", "12")
    assert code == 0
    lines = out.splitlines()
    row4 = next(l for l in lines if l.startswith("4 "))
    fields = row4.split()
    assert fields[1] == "4"      # switch
    assert fields[2] == "16"     # simulation
    assert fields[3] == "18"     # nlogn
    assert fields[5] == "24"     # sqrt formula for n=4
    row3 = next(l for l in lines if l.startswith("3 "))
    assert "six-query=6" in row3
    assert "bounds hold" in lines[-1]


def test_queries_golden(capsys):
    import pathlib

    code, out, _ = run_cli(capsys, "queries", "--n-max", "8")
    assert code == 0
    golden = pathlib.Path(__file__).parent / "golden" / "queries_n8.txt"
    assert out == golden.read_text()


def test_queries_rejects_bad_nmax(capsys):
    code, _, err = run_cli(capsys, "queries", "--n-max", "1")
    assert code == 2


def test_enumerate_labelings(capsys):
    code, out, _ = run_cli(capsys, "enumerate-labelings")
    assert code == 0
    assert "24 valid labelings" in out


def test_enumerate_dump_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "enumerate-labelings", "--dump", "5")
    assert code == 0
    path = tmp_path / "lab5.txt"
    path.write_text(out)
    code2, out2, _ = run_cli(
        capsys, "run", "--alg", "six-query", "--n", "3",
        "--labeling", f"file:{path}", "--y", "all",
    )
    assert code2 == 0
    assert "RESULT: PASS" in out2


def test_export_six_query_stable(capsys):
    code1, out1, _ = run_cli(capsys, "export", "--alg", "six-query", "--n", "3")
    code2, out2, _ = run_cli(capsys, "export", "--alg", "six-query", "--n", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("circuit family=six-query n=3")


def test_export_switch_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "export", "--alg", "switch", "--n", "3")
    assert code == 2
    assert "error" in err


def test_dense_n2(capsys):
    code, out, _ = run_cli(
        capsys, "dense", "--alg", "sim-switch", "--n", "2", "--y", "1",
    )
    assert code == 0
    assert "y=1: measured=1" in out
    assert "RESULT: PASS" in out


def test_dense_n3_six_query(capsys):
    code, out, _ = run_cli(
        capsys, "dense", "--alg", "six-query", "--n", "3", "--y", "sample:2",
    )
    assert code == 0
    assert "RESULT: PASS" in out


def test_run_nlogn8_documented_example(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--alg", "nlogn", "--n", "8",
        "--y", "sample:10",
    )
    assert code == 0
    assert "queries=56" in out
    assert "RESULT: PASS (10/10)" in out


def test_run_prints_nonlinear_witness_once_under_residuals(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--alg", "nlogn", "--n", "3",
        "--labeling", "enumerate-index:1", "--y", "all",
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[1] == "residuals x-independent: yes"
    assert lines[2] == "phase not linear: p(2)=5, but 2*p(1)=0 mod 6"
    assert sum(line.startswith("phase not linear") for line in lines) == 1
    _, out, _ = run_cli(capsys, "run", "--alg", "nlogn", "--n", "3")
    assert "phase not linear" not in out


def _readout_profiles():
    from math import factorial

    import numpy as np

    from fpp.algorithms import PhaseProfile

    def profile(n, exponents, failure=None):
        return PhaseProfile(
            n=n, modulus=factorial(n), family="f", labeling_name="l", query_count=0,
            expected_queries=None, exponents=exponents, residuals={},
            residuals_ok=failure is None, failure=failure,
        )

    x = np.arange(40320)
    return [
        profile(2, [0, 1]),
        profile(3, [0, 5, 4, 3, 2, 1]),  # slope 5: only y=0 and y=3 read back
        profile(4, (x[:24] * 7 + 12 * (x[:24] % 2)) % 24),  # period 2
        profile(5, (), failure="x=1: failed"),
        profile(8, x),
        profile(8, (x * 3 + 20160 * (x % 2)) % 40320),  # 5-digit numbers and None
    ]


def test_readout_lines_match_per_y_format(capsys, monkeypatch):
    import random

    from fpp import cli
    from fpp.algorithms import solve_profile

    monkeypatch.setattr(cli, "_READOUT_BLOCK", 7)  # many blocks, a short last one
    rng = random.Random(5)
    for profile in _readout_profiles():
        m = profile.modulus
        for ys in (range(m), [0], sorted(rng.sample(range(m), min(m, 40))), range(m // 2, m)):
            passes = cli._print_readout(profile, ys)
            reports = [solve_profile(profile, y) for y in ys]
            expected = "".join(
                f"y={r.y}: solved={r.solved_y} {'PASS' if r.passed else 'FAIL'}\n" for r in reports
            )
            assert capsys.readouterr().out == expected
            assert passes == sum(r.passed for r in reports)
