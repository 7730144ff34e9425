"""File formats: text/JSON matrices, decompositions, factorizations, reports."""

import json

import numpy as np
import pytest

from blockydecomp.core import BlockyMatrix, IntMatrix, RealMatrix, SignedBlockySum
from blockydecomp.formats import (
    dump_decomposition,
    dump_factorization,
    dump_matrix,
    dump_report,
    load_decomposition,
    load_factorization,
    load_int_matrix,
    load_matrix,
)


def test_text_round_trip_int(tmp_path):
    M = IntMatrix([[1, -2, 0], [3, 4, -5]])
    p = tmp_path / "m.txt"
    dump_matrix(M, p)
    back = load_matrix(p)
    assert isinstance(back, IntMatrix)
    assert np.array_equal(back.values, M.values)


def test_text_round_trip_real(tmp_path):
    M = RealMatrix([[0.5, -1.25], [3.0, 2.0**-30]])
    p = tmp_path / "m.txt"
    dump_matrix(M, p)
    back = load_matrix(p)
    assert isinstance(back, RealMatrix)
    assert np.array_equal(back.values, M.values)  # repr round-trip is exact


def test_json_round_trip(tmp_path):
    M = IntMatrix([[7]])
    p = tmp_path / "m.json"
    dump_matrix(M, p, fmt="json")
    data = json.loads(p.read_text())
    assert data["rows"] == 1 and data["cols"] == 1 and data["kind"] == "int"
    assert data["entries"] == [[7]]
    back = load_matrix(p)
    assert isinstance(back, IntMatrix) and back.values[0, 0] == 7


def test_format_sniffing(tmp_path):
    p = tmp_path / "m.any"
    p.write_text('{"rows": 1, "cols": 2, "kind": "real", "entries": [[0.5, 1.5]]}')
    back = load_matrix(p)
    assert isinstance(back, RealMatrix)
    p2 = tmp_path / "m2.any"
    p2.write_text("1 2 int\n5 6\n")
    assert isinstance(load_matrix(p2), IntMatrix)


def test_header_and_shape_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 2 float\n1 0\n0 1\n")
    with pytest.raises(ValueError):
        load_matrix(p)
    p.write_text("2 2 int\n1 0\n")
    with pytest.raises(ValueError):
        load_matrix(p)
    p.write_text("2 2 int\n1 0\n0 1 9\n")
    with pytest.raises(ValueError):
        load_matrix(p)


def test_load_int_matrix_rejects_real(tmp_path):
    p = tmp_path / "r.txt"
    dump_matrix(RealMatrix([[0.5]]), p)
    with pytest.raises(ValueError):
        load_int_matrix(p)


def test_decomposition_round_trip(tmp_path):
    s = SignedBlockySum(
        shape=(3, 3),
        terms=(
            (1, BlockyMatrix(shape=(3, 3), rectangles=(((0, 1), (0,)), ((2,), (1, 2))))),
            (-1, BlockyMatrix(shape=(3, 3), rectangles=(((1,), (2,)),))),
        ),
    )
    p = tmp_path / "d.json"
    dump_decomposition(s, p)
    data = json.loads(p.read_text())
    assert data["shape"] == [3, 3]
    assert data["terms"][0]["sign"] == 1
    assert data["terms"][0]["rectangles"][0] == {"rows": [0, 1], "cols": [0]}
    back = load_decomposition(p)
    assert back.shape == s.shape
    assert np.array_equal(back.evaluate(), s.evaluate())
    assert all(b[0] in (-1, 1) for b in back.terms)


def test_load_decomposition_rejects_overlapping_rectangles(tmp_path):
    p = tmp_path / "d.json"
    rects = [{"rows": [0, 1], "cols": [0]}, {"rows": [1, 2], "cols": [2]}]
    p.write_text(json.dumps({"shape": [3, 3], "terms": [{"sign": 1, "rectangles": rects}]}))
    with pytest.raises(ValueError, match="row sets overlap"):
        load_decomposition(p)


def test_factorization_round_trip(tmp_path):
    U = np.array([[1.0, 0.0], [0.6, 0.8]])
    V = np.array([[1.0, 0.25], [0.0, -2.0 / 3.0]])
    p = tmp_path / "f.json"
    dump_factorization(U, V, 2.0, 1.5e-16, p)
    U2, V2, gamma, residual = load_factorization(p)
    assert np.array_equal(U, U2) and np.array_equal(V, V2)
    assert gamma == 2.0 and residual == 1.5e-16


def test_report_dump(tmp_path):
    p = tmp_path / "rep.json"
    dump_report({"totalTerms": 3, "levels": [], "boundFit": None,
                 "gammaSquaredTrajectory": [1.0], "epsTrajectory": [0.0]}, p)
    data = json.loads(p.read_text())
    assert set(data) == {"totalTerms", "levels", "boundFit", "gammaSquaredTrajectory", "epsTrajectory"}
