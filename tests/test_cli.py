"""Command-line flows, run in-process through main(argv)."""

import json

import numpy as np
import pytest

from blockydecomp import cli
from blockydecomp.cli import main
from blockydecomp.formats import dump_matrix, load_decomposition
from blockydecomp.partition import GreedyPartition


@pytest.fixture
def corner(tmp_path):
    p = tmp_path / "corner.txt"
    dump_matrix([[1, 0], [1, 1]], p)
    return str(p)


def test_gamma2_prints_bracket(corner, capsys):
    assert main(["gamma2", "--input", corner]) == 0
    out = capsys.readouterr().out
    assert "lower bound: 1.15470054 via dual" in out  # 2/sqrt(3) = 1.1547005384
    assert "upper bound: 1.1547" in out and "certifying" in out


def test_gamma2_writes_factorization(corner, tmp_path, capsys):
    fpath = tmp_path / "fac.json"
    assert main(["gamma2", "--input", corner, "--out", str(fpath)]) == 0
    data = json.loads(fpath.read_text())
    assert set(data) >= {"U", "V", "gamma", "residual"}


def test_decompose_verify_loop(corner, tmp_path, capsys):
    fac = tmp_path / "fac.json"
    main(["gamma2", "--input", corner, "--out", str(fac)])
    dpath, rpath = tmp_path / "d.json", tmp_path / "r.json"
    code = main(
        [
            "decompose",
            "--input", corner,
            "--factorization", str(fac),
            "--out", str(dpath),
            "--report", str(rpath),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "decomposed exactly into 2 signed blocky terms" in out
    report = json.loads(rpath.read_text())
    assert set(report) == {
        "levels",
        "totalTerms",
        "gammaSquaredTrajectory",
        "epsTrajectory",
        "boundFit",
    }
    assert report["totalTerms"] == 2
    s = load_decomposition(dpath)
    assert np.array_equal(s.evaluate(), [[1, 0], [1, 1]])
    assert main(["verify", "--input", corner, "--decomp", str(dpath)]) == 0
    assert "ok: 2 terms" in capsys.readouterr().out


def test_decompose_gamma_gate(corner, tmp_path, capsys):
    code = main(
        [
            "decompose",
            "--input", corner,
            "--gamma", "1.0",
            "--out", str(tmp_path / "d.json"),
            "--report", str(tmp_path / "r.json"),
        ]
    )
    assert code == 2
    assert "exceeds the requested bound" in capsys.readouterr().err


def test_decompose_gamma_gate_runs_before_decomposing(corner, tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("decompose ran although the gate refuses")

    monkeypatch.setattr(cli, "decompose", refuse)
    dpath, rpath = tmp_path / "d.json", tmp_path / "r.json"
    code = main(
        ["decompose", "--input", corner, "--gamma", "1.0", "--out", str(dpath), "--report", str(rpath)]
    )
    assert code == 2
    assert "exceeds the requested bound" in capsys.readouterr().err
    assert not dpath.exists() and not rpath.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["gamma2", "--tol", "nan"],
        ["gamma2", "--tol", "-1"],
        ["decompose", "--tol", "0"],
        ["suite", "--seed", "-1"],
    ],
)
def test_invalid_run_flags_are_clean_errors(corner, tmp_path, capsys, flags):
    command, *rest = flags
    paths = {
        "gamma2": ["--input", corner],
        "decompose": ["--input", corner, "--out", str(tmp_path / "d.json"), "--report", str(tmp_path / "r.json")],
        "suite": [],
    }
    assert main([command, *paths[command], *rest]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_suite_rejects_invalid_run_flags(capsys):
    assert main(["suite", "--select", "1", "--tol", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: tol")


@pytest.mark.parametrize(
    "flags",
    [
        ["gamma2", "--max-iter", "5"],
        ["gamma2", "--budget", "5"],
        ["decompose", "--max-iter", "5"],
        ["decompose", "--budget", "5"],
        ["decompose", "--force"],
        ["suite", "--max-iter", "5"],
        ["suite", "--budget", "5"],
        ["partition", "--check-bound"],
    ],
)
def test_removed_flags_are_refused(corner, tmp_path, capsys, flags):
    # The solver's SVD cap and the recursion budget are constants, a looser
    # certificate is accepted through --tol, and partition always checks
    # its density cap.  argparse refuses an unknown flag, and main returns 2.
    command, *rest = flags
    paths = {
        "gamma2": ["--input", corner],
        "decompose": ["--input", corner, "--out", str(tmp_path / "d.json"), "--report", str(tmp_path / "r.json")],
        "suite": ["--select", "1"],
        "partition": ["--input", corner],
    }
    assert main([command, *paths[command], *rest]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"unrecognized arguments: {rest[0]}" in captured.err
    assert not (tmp_path / "d.json").exists()


@pytest.mark.parametrize("argv", [["--help"], ["suite", "--help"]])
def test_help_returns_0(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: blockydecomp")


def test_budget_exhaustion_is_a_clean_error(tmp_path, capsys):
    p = tmp_path / "sign.txt"
    dump_matrix([[1, -1, 1], [-1, 1, 1]], p)
    assert main(["ldim", "--input", str(p), "--budget", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "budget" in err
    assert main(["ldim-alpha", "--input", str(p), "--alpha", "1.0", "--budget", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", [["ldim"], ["ldim-alpha", "--alpha", "0.5"]])
def test_ldim_budget_below_one_is_refused(tmp_path, capsys, command):
    # ldim-alpha answers one column without recursing, so there only the
    # flag check refuses the budget.
    p = tmp_path / "column.txt"
    p.write_text("2 1 real\n1.0\n-1.0\n")
    assert main([command[0], "--input", str(p), *command[1:], "--budget", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--budget: must be an integer >= 1, got 0" in captured.err


def test_oracle_rejects_unrepresentable_int_entries(tmp_path, capsys):
    p = tmp_path / "huge.txt"
    p.write_text("1 2 int\n1e30 1\n")
    assert main(["oracle", "--input", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error:")


_MATRIX_JSON = {"rows": 2, "cols": 1, "kind": "int", "entries": [[1], [0]]}


@pytest.mark.parametrize("command", ["oracle", "partition", "gamma2", "ldim"])
@pytest.mark.parametrize(
    "text",
    [
        json.dumps({**_MATRIX_JSON, "rows": 2.7, "cols": True}),
        json.dumps({**_MATRIX_JSON, "rows": None}),
        json.dumps({**_MATRIX_JSON, "rows": [2]}),
        "2 1 int\n1\nx\n",
    ],
    ids=["float-rows-bool-cols", "null-rows", "list-rows", "bad-token"],
)
def test_malformed_matrix_file_exits_2_naming_it(tmp_path, capsys, command, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    assert main([command, "--input", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(f"error: {p}: ")


@pytest.mark.parametrize(
    "command, flag, data",
    [
        ("verify", "--decomp", b'{"shape": [1, 2],'),
        ("decompose", "--factorization", b'{"gamma": 1.0,'),
        ("oracle", "--input", b"\xff\xfe2 2 int\n1 0\n1 1\n"),
    ],
    ids=["verify-truncated-decomposition", "decompose-truncated-factorization", "oracle-not-utf8"],
)
def test_unreadable_file_exits_2_naming_it(corner, tmp_path, capsys, command, flag, data):
    # A truncated decomposition or certificate next to a good matrix file,
    # and a matrix file whose first bytes are not UTF-8.
    p = tmp_path / "bad.json"
    p.write_bytes(data)
    argv = [command, flag, str(p)]
    if flag != "--input":
        argv += ["--input", corner]
    if command == "decompose":
        argv += ["--out", str(tmp_path / "d.json"), "--report", str(tmp_path / "r.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(f"error: {p}: ")


def test_decompose_rejects_huge_entries(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solver ran on an input the cap rejects")

    monkeypatch.setattr(cli, "gamma2_upper", refuse)
    p = tmp_path / "huge.txt"
    dump_matrix([[2**40, 1]], p)
    dpath, rpath = tmp_path / "d.json", tmp_path / "r.json"
    assert main(["decompose", "--input", str(p), "--out", str(dpath), "--report", str(rpath)]) == 2
    assert capsys.readouterr().err.startswith("error: an entry exceeds the decomposition limit")
    assert not dpath.exists() and not rpath.exists()


def test_decompose_exits_2_on_non_finite_factorization(corner, tmp_path, capsys):
    # JSON's NaN parses; the certificate is refused before any product is taken.
    fac = tmp_path / "fac.json"
    fac.write_text('{"U": [[1, 0], [0, NaN]], "V": [[1, 0], [1, 1]], "gamma": 1.5, "residual": 0.0}')
    dpath, rpath = tmp_path / "d.json", tmp_path / "r.json"
    argv = ["decompose", "--input", corner, "--factorization", str(fac), "--out", str(dpath), "--report", str(rpath)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: U and V entries must be finite")
    assert not dpath.exists() and not rpath.exists()


def test_verify_exits_2_on_malformed_decomposition(tmp_path, capsys):
    m = tmp_path / "m.txt"
    dump_matrix([[1, 0]], m)
    p = tmp_path / "d.json"
    # int() would truncate row 0.9 to 0 and this file would re-evaluate to the input.
    rects = [{"rows": [0.9], "cols": [0]}]
    p.write_text(json.dumps({"shape": [1, 2], "terms": [{"sign": 1, "rectangles": rects}]}))
    assert main(["verify", "--input", str(m), "--decomp", str(p)]) == 2
    assert "must hold integers" in capsys.readouterr().err


def test_verify_detects_mismatch(corner, tmp_path, capsys):
    dpath, rpath = tmp_path / "d.json", tmp_path / "r.json"
    main(["decompose", "--input", corner, "--out", str(dpath), "--report", str(rpath)])
    capsys.readouterr()
    other = tmp_path / "other.txt"
    dump_matrix([[1, 1], [1, 1]], other)
    assert main(["verify", "--input", str(other), "--decomp", str(dpath)]) == 1
    assert "MISMATCH at (0,1)" in capsys.readouterr().err


def test_ldim_commands(tmp_path, capsys):
    p = tmp_path / "sign.txt"
    dump_matrix([[1, -1], [-1, 1]], p)
    assert main(["ldim", "--input", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["ldim-alpha", "--input", str(p), "--alpha", "2.0"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_ldim_alpha_command_on_an_absorbed_gap(tmp_path, capsys):
    p = tmp_path / "real.txt"
    p.write_text("1 2 real\n-1e17 1.0\n")
    assert main(["ldim-alpha", "--input", str(p), "--alpha", "0.125"]) == 0
    assert capsys.readouterr().out.strip() == "1"


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_ldim_alpha_rejects_non_finite_alpha(tmp_path, capsys, alpha):
    p = tmp_path / "sign.txt"
    dump_matrix([[1, -1], [-1, 1]], p)
    assert main(["ldim-alpha", "--input", str(p), f"--alpha={alpha}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and "alpha" in captured.err


def test_partition_output_and_bound(tmp_path, capsys):
    p = tmp_path / "m.txt"
    dump_matrix([[1, 1, 0], [0, 0, 2]], p)
    assert main(["partition", "--input", str(p)]) == 0
    out = capsys.readouterr().out
    assert "class 0: (x=0, b=1, size=2, members=[0, 1])" in out
    assert "density bound check: 0 violations" in out


def test_partition_of_the_zero_matrix_is_empty(tmp_path, capsys):
    p = tmp_path / "z.txt"
    dump_matrix(np.zeros((2, 3), dtype=int), p)
    assert main(["partition", "--input", str(p)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "stripping 3 all-zero column(s)\nempty partition: 0 classes\n"
    assert captured.err == ""


def test_gamma2_on_entries_whose_squares_overflow(tmp_path, capsys):
    p = tmp_path / "big.txt"
    p.write_text("2 2 real\n1e155 0\n1e155 1e155\n")
    assert main(["gamma2", "--input", str(p)]) == 0
    out = capsys.readouterr().out.splitlines()
    lower = float(out[0].split()[2])
    upper = float(out[1].split()[2])
    assert 1e155 <= lower <= upper < 1.2e155  # the norm is 2/sqrt(3) * 1e155


def test_gamma2_states_an_absolute_tol_miss_relative_to_the_entries(tmp_path, capsys):
    # At entries of 1e155 a residual of roundoff size is far above the absolute
    # tol, and the line says how small it is beside max|A|.
    p = tmp_path / "big.txt"
    p.write_text("2 2 real\n1e155 0\n1e155 1e155\n")
    assert main(["gamma2", "--input", str(p)]) == 0
    upper = capsys.readouterr().out.splitlines()[1]
    residual = float(upper.split("(residual ")[1].split(",")[0])
    assert residual > 1e-9
    _, relative = upper.split("NOT certifying at tol 1e-09, an absolute bound; ")
    assert relative.endswith(" of max|A|)")
    relative = float(relative.split()[0])
    assert relative == pytest.approx(residual / 1e155, rel=0.05) and relative < 1e-14


def test_gamma2_refuses_a_norm_above_the_largest_float(tmp_path, capsys):
    # An 8x8 Hadamard matrix of +-1e308 has norm 2.83e308.
    rows = [[(-1) ** bin(i & j).count("1") for j in range(8)] for i in range(8)]
    p = tmp_path / "huge.txt"
    p.write_text("8 8 real\n" + "".join(" ".join(f"{s}e308" for s in r) + "\n" for r in rows))
    assert main(["gamma2", "--input", str(p)]) == 2
    captured = capsys.readouterr()
    assert "exceeds the largest float" in captured.err and captured.out == ""


def test_gamma2_on_subnormal_entries(tmp_path, capsys):
    # The scaled tol overflowed here, and the dual rounded above the norm.
    p = tmp_path / "tiny.txt"
    p.write_text("2 2 real\n1e-320 0\n1e-320 1e-320\n")
    assert main(["gamma2", "--input", str(p)]) == 0
    out = capsys.readouterr().out.splitlines()
    lower = float(out[0].split()[2])
    upper = float(out[1].split()[2])
    assert 1e-320 <= lower <= upper < 1.2e-320
    assert ", certifying" in out[1]


def test_oracle_command(tmp_path, capsys):
    p = tmp_path / "m.txt"
    dump_matrix([[1, 1], [1, 0]], p)
    assert main(["oracle", "--input", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["oracle", "--input", str(p), "--max-l", "1"]) == 0
    assert capsys.readouterr().out.strip() == "exceeds 1"


def test_gen_blocky_sum_with_certificate(tmp_path, capsys):
    out = tmp_path / "g.txt"
    spath = tmp_path / "s.json"
    cpath = tmp_path / "c.json"
    code = main(
        [
            "gen", "--kind", "random-blocky-sum", "--n", "6", "--terms", "2",
            "--seed", "4", "--out", str(out), "--sum", str(spath), "--cert", str(cpath),
        ]
    )
    assert code == 0
    assert out.exists() and spath.exists() and cpath.exists()
    sum_back = load_decomposition(spath)
    assert len(sum_back) == 2


def test_gen_sum_rejected_for_plain_kinds(tmp_path, capsys):
    code = main(
        ["gen", "--kind", "identity", "--n", "3",
         "--out", str(tmp_path / "i.txt"), "--sum", str(tmp_path / "s.json")]
    )
    assert code == 2
    assert "only available for random-blocky-sum" in capsys.readouterr().err


def test_missing_file_is_a_clean_error(tmp_path, capsys):
    assert main(["ldim", "--input", str(tmp_path / "absent.txt")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_suite_select_writes_results(tmp_path, capsys):
    # Criteria 7, 4 and 10 each write a data table beside results.json.
    out_dir = tmp_path / "suite"
    assert main(["suite", "--select", "1,4,7,10", "--out-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert all(f"PASS criterion {k} " in out for k in (1, 4, 7, 10))
    summary = json.loads((out_dir / "results.json").read_text())
    assert [(r["number"], r["passed"]) for r in summary] == [(1, True), (4, True), (7, True), (10, True)]

    header, *rows = (out_dir / "terms_vs_size.tsv").read_text().splitlines()
    assert header == "kind\tid\tm\tn\tgamma0_squared\tconstruction_terms\tterms\tbound_fit"
    kinds = [row.split("\t")[0] for row in rows]
    assert len(rows) == 562 and kinds == ["boolean3x3"] * 512 + ["blocky-sum"] * 50

    # Criterion 4 skips a trial whose matrix is all zero; one row per kept trial.
    kept = []
    for t in range(100):
        rng = np.random.default_rng([0, 4, t])
        m, n = int(rng.integers(1, 17)), int(rng.integers(1, 257))
        if rng.integers(-3, 4, size=(m, n)).any():
            kept.append(t)
    header, *rows = (out_dir / "density_margins.tsv").read_text().splitlines()
    assert header == "trial\tcolumns\tworst_harmonic_slack\tworst_count_margin"
    assert [int(row.split("\t")[0]) for row in rows] == kept

    # Criterion 10 reads every 3x3 boolean's oracle value, whatever the seed.
    experiment = json.loads((out_dir / "random_complexity.json").read_text())
    assert experiment["n"] == 3 and experiment["matrices"] == 512
    assert experiment["histogram"] == {"0": 1, "1": 127, "2": 384}


def test_partition_exits_1_on_a_density_violation(tmp_path, capsys, monkeypatch):
    # The greedy order makes a violation impossible, so one is injected.
    real = GreedyPartition.density_table

    def inflated(self):
        rows = real(self)
        rows[0]["count"] = rows[0]["ceiling"] + 1
        return rows

    monkeypatch.setattr(GreedyPartition, "density_table", inflated)
    p = tmp_path / "m.txt"
    dump_matrix([[1, 1, 0], [0, 0, 2]], p)
    assert main(["partition", "--input", str(p)]) == 1
    assert "density bound check: 1 violations" in capsys.readouterr().out
