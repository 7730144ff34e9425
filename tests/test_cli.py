"""Command-line flows, run in-process through main(argv)."""

import json

import numpy as np
import pytest

from blockydecomp import cli
from blockydecomp.cli import main
from blockydecomp.core import IntMatrix
from blockydecomp.formats import dump_matrix, load_decomposition


@pytest.fixture
def corner(tmp_path):
    p = tmp_path / "corner.txt"
    dump_matrix(IntMatrix([[1, 0], [1, 1]]), p)
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
        ["gamma2", "--max-iter", "0"],
        ["gamma2", "--tol", "-1"],
        ["decompose", "--budget", "0"],
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
    assert main(["suite", "--select", "1", "--max-iter", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: max_iter")


def test_budget_exhaustion_is_a_clean_error(tmp_path, capsys):
    p = tmp_path / "sign.txt"
    dump_matrix(IntMatrix([[1, -1, 1], [-1, 1, 1]]), p)
    assert main(["ldim", "--input", str(p), "--budget", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "budget" in err
    assert main(["ldim-alpha", "--input", str(p), "--alpha", "1.0", "--budget", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_oracle_rejects_unrepresentable_int_entries(tmp_path, capsys):
    p = tmp_path / "huge.txt"
    p.write_text("1 2 int\n1e30 1\n")
    assert main(["oracle", "--input", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_decompose_rejects_huge_entries(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solver ran on an input the cap rejects")

    monkeypatch.setattr(cli, "gamma2_upper", refuse)
    p = tmp_path / "huge.txt"
    dump_matrix(IntMatrix([[2**40, 1]]), p)
    dpath, rpath = tmp_path / "d.json", tmp_path / "r.json"
    assert main(["decompose", "--input", str(p), "--out", str(dpath), "--report", str(rpath)]) == 2
    assert capsys.readouterr().err.startswith("error: an entry exceeds the decomposition limit")
    assert not dpath.exists() and not rpath.exists()


def test_verify_exits_2_on_malformed_decomposition(tmp_path, capsys):
    m = tmp_path / "m.txt"
    dump_matrix(IntMatrix([[1, 0]]), m)
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
    dump_matrix(IntMatrix([[1, 1], [1, 1]]), other)
    assert main(["verify", "--input", str(other), "--decomp", str(dpath)]) == 1
    assert "MISMATCH at (0,1)" in capsys.readouterr().err


def test_ldim_commands(tmp_path, capsys):
    p = tmp_path / "sign.txt"
    dump_matrix(IntMatrix([[1, -1], [-1, 1]]), p)
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
    dump_matrix(IntMatrix([[1, -1], [-1, 1]]), p)
    assert main(["ldim-alpha", "--input", str(p), f"--alpha={alpha}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and "alpha" in captured.err


def test_partition_output_and_bound(tmp_path, capsys):
    p = tmp_path / "m.txt"
    dump_matrix(IntMatrix([[1, 1, 0], [0, 0, 2]]), p)
    assert main(["partition", "--input", str(p), "--check-bound"]) == 0
    out = capsys.readouterr().out
    assert "class 0: (x=0, b=1, size=2, members=[0, 1])" in out
    assert "density bound check: 0 violations" in out


def test_oracle_command(tmp_path, capsys):
    p = tmp_path / "m.txt"
    dump_matrix(IntMatrix([[1, 1], [1, 0]]), p)
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
    out_dir = tmp_path / "suite"
    assert main(["suite", "--select", "1", "--out-dir", str(out_dir)]) == 0
    line = capsys.readouterr().out
    assert "PASS criterion 1" in line
    summary = json.loads((out_dir / "results.json").read_text())
    assert summary[0]["number"] == 1 and summary[0]["passed"] is True
