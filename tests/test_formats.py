"""File formats: text/JSON matrices, decompositions, factorizations, reports."""

import json
import re

import numpy as np
import pytest

from blockydecomp.core import BlockyMatrix, SignedBlockySum
from blockydecomp.factorize import GammaFactorization
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


def _assert_read_only(arr, dtype):
    assert type(arr) is np.ndarray and arr.dtype == dtype
    assert not arr.flags.writeable


def test_text_round_trip_int(tmp_path):
    M = np.array([[1, -2, 0], [3, 4, -5]])
    p = tmp_path / "m.txt"
    dump_matrix(M, p)
    assert p.read_text().splitlines()[0] == "2 3 int"
    back = load_matrix(p)
    _assert_read_only(back, np.int64)
    assert np.array_equal(back, M)


def test_text_round_trip_real(tmp_path):
    M = np.array([[0.5, -1.25], [3.0, 2.0**-30]])
    p = tmp_path / "m.txt"
    dump_matrix(M, p)
    assert p.read_text().splitlines()[0] == "2 2 real"
    back = load_matrix(p)
    _assert_read_only(back, np.float64)
    assert np.array_equal(back, M)  # repr round-trip is exact


def test_json_round_trip(tmp_path):
    p = tmp_path / "m.json"
    dump_matrix([[7]], p, fmt="json")
    data = json.loads(p.read_text())
    assert data["rows"] == 1 and data["cols"] == 1 and data["kind"] == "int"
    assert data["entries"] == [[7]]
    back = load_matrix(p)
    _assert_read_only(back, np.int64)
    assert back[0, 0] == 7
    with pytest.raises(ValueError, match="unknown matrix format 'csv'; expected 'text' or 'json'"):
        dump_matrix([[7]], p, fmt="csv")


def test_format_sniffing(tmp_path):
    p = tmp_path / "m.any"
    p.write_text('{"rows": 1, "cols": 2, "kind": "real", "entries": [[0.5, 1.5]]}')
    _assert_read_only(load_matrix(p), np.float64)
    p2 = tmp_path / "m2.any"
    p2.write_text("1 2 int\n5 6\n")
    _assert_read_only(load_matrix(p2), np.int64)


@pytest.mark.parametrize(
    "matrix, kind",
    [
        (np.array([[1.0, 2.0]]), "real"),
        (np.array([[1.0, 2.0]], dtype=np.float32), "real"),
        (np.array([[1, 2]], dtype=np.int32), "int"),
        (np.array([[1, 2]], dtype=np.uint8), "int"),
        (np.array([[True, False]]), "int"),
        ([[1, 2]], "int"),
    ],
    ids=["float64", "float32", "int32", "uint8", "bool", "list"],
)
def test_dump_matrix_kind_follows_the_dtype(tmp_path, matrix, kind):
    p = tmp_path / "m.txt"
    dump_matrix(matrix, p)
    assert p.read_text().splitlines()[0] == f"1 2 {kind}"
    assert load_matrix(p).dtype == (np.float64 if kind == "real" else np.int64)


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


_JSON = {"rows": 2, "cols": 1, "kind": "int", "entries": [[1], [0]]}


@pytest.mark.parametrize(
    "text, match",
    [
        (json.dumps({**_JSON, "rows": 2.7, "cols": True}), "'rows' and 'cols' must be integers, got 2.7 and True"),
        (json.dumps({**_JSON, "cols": True}), "must be integers, got 2 and True"),
        (json.dumps({**_JSON, "rows": None}), "must be integers, got None and 1"),
        (json.dumps({**_JSON, "rows": [2]}), r"must be integers, got \[2\] and 1"),
        (json.dumps({**_JSON, "entries": [[1], "x"]}), "malformed entries"),
        (json.dumps({**_JSON, "entries": [[1], [{}]]}), "malformed entries"),
        ('{"rows": 2,', "Expecting property name"),
        ("2 1 int\n1\nx\n", "row 1: could not convert string to float: 'x'"),
        ("2 one int\n1\n0\n", "header must be 'rows cols kind'"),
        ("2 1 real\n1\ninf\n", "matrix entries must be finite"),
        (" \n\n", "empty matrix file"),
        (json.dumps({"rows": 2, "cols": 1, "kind": "int"}), "missing matrix field 'entries'"),
        (json.dumps({**_JSON, "entries": [[1, 0]]}), r"entries are shaped \(1, 2\), header says \(2, 1\)"),
    ],
    ids=["float-rows", "bool-cols", "null-rows", "list-rows", "string-row", "object-entry",
         "bad-json", "bad-token", "bad-text-header", "non-finite-real", "empty-file", "missing-field",
         "entries-shape"],
)
def test_malformed_matrix_files_name_the_path(tmp_path, text, match):
    p = tmp_path / "bad.json"
    p.write_text(text)
    with pytest.raises(ValueError, match=match) as exc:
        load_matrix(p)
    assert str(exc.value).startswith(f"{p}: ")


@pytest.mark.parametrize("load", [load_matrix, load_decomposition, load_factorization])
@pytest.mark.parametrize(
    "data, match",
    [(b'{"shape": [1, 2],', "Expecting property name"), (b"\xff\xfe1 1 int\n1\n", "not UTF-8 text")],
    ids=["truncated-json", "not-utf8"],
)
def test_every_loader_names_its_file(tmp_path, load, data, match):
    p = tmp_path / "bad.json"
    p.write_bytes(data)
    with pytest.raises(ValueError, match=match) as exc:
        load(p)
    assert str(exc.value).startswith(f"{p}: ")


def test_load_int_matrix_rejects_real(tmp_path):
    p = tmp_path / "r.txt"
    dump_matrix(np.array([[0.5]]), p)
    with pytest.raises(ValueError, match="integer matrix required, file holds kind 'real'"):
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


_RECT = {"rows": [0], "cols": [0]}


@pytest.mark.parametrize(
    "obj, match",
    [
        ([{"shape": [1, 1]}], "must be a JSON object"),
        ({"terms": []}, "missing field 'shape'"),
        ({"shape": [1, 1]}, "missing field 'terms'"),
        ({"shape": [1, 1], "terms": [{"sign": 1}]}, "missing field 'rectangles'"),
        ({"shape": [1, 1], "terms": [{"rectangles": [_RECT]}]}, "integer sign"),
        ({"shape": [1, 1], "terms": [{"sign": 1, "rectangles": [{"rows": [0]}]}]}, "missing field 'cols'"),
        ({"shape": [1, 1], "terms": [{"sign": True, "rectangles": [_RECT]}]}, "integer sign"),
        ({"shape": [1, 1], "terms": [{"sign": 1.0, "rectangles": [_RECT]}]}, "integer sign"),
        ({"shape": [1, 1], "terms": [{"sign": 1, "rectangles": [{"rows": [0.9], "cols": [0]}]}]},
         "must hold integers"),
        ({"shape": [1, 1], "terms": [{"sign": 1, "rectangles": [{"rows": [0], "cols": [False]}]}]},
         "must hold integers"),
        ({"shape": [1.0, 1], "terms": []}, "must hold integers"),
        ({"shape": [1, 1], "terms": {}}, "field 'terms' must be a list"),
        ({"shape": [1, 1, 1], "terms": []}, "shape must have exactly two entries"),
    ],
)
def test_load_decomposition_rejects_malformed_files(tmp_path, obj, match):
    p = tmp_path / "d.json"
    p.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=match):
        load_decomposition(p)


def test_factorization_round_trip(tmp_path):
    U = np.array([[1.0, 0.0], [0.6, 0.8]])
    V = np.array([[1.0, 0.25], [0.0, -2.0 / 3.0]])
    p = tmp_path / "f.json"
    dump_factorization(GammaFactorization(U=U, V=V, gamma=2.0, residual=1.5e-16), p)
    fac = load_factorization(p)
    assert np.array_equal(U, fac.U) and np.array_equal(V, fac.V)
    assert fac.gamma == 2.0 and fac.residual == 1.5e-16


@pytest.mark.parametrize("m, n", [(4, 4), (2, 3)])
def test_factorization_round_trip_of_a_zero_certificate(tmp_path, m, n):
    # Inner dimension 0: V is 0 x n and writes as [], so its n comes from
    # the shape the file states.
    p = tmp_path / "f.json"
    dump_factorization(GammaFactorization(U=np.zeros((m, 0)), V=np.zeros((0, n)), gamma=0.0, residual=0.0), p)
    assert json.loads(p.read_text())["V"] == []
    fac = load_factorization(p)
    assert fac.U.shape == (m, 0) and fac.V.shape == (0, n) and fac.shape == (m, n)


def test_factorization_files_state_their_shape(tmp_path):
    obj = {"gamma": 1.0, "residual": 0.0, "U": [[1.0], [1.0]], "V": [[1.0, 1.0, 1.0]]}
    p = tmp_path / "f.json"
    p.write_text(json.dumps(obj))
    assert load_factorization(p).shape == (2, 3)  # files without a shape still load
    p.write_text(json.dumps({"shape": [3, 2], **obj}))
    with pytest.raises(ValueError, match=r"not the stated shape \(3, 2\)"):
        load_factorization(p)
    p.write_text(json.dumps({"shape": [3], **obj}))
    with pytest.raises(ValueError, match=r"not the stated shape \(3,\)"):
        load_factorization(p)
    p.write_text(json.dumps({"shape": [2, 3.0], **obj}))
    with pytest.raises(ValueError, match="must hold integers"):
        load_factorization(p)


@pytest.mark.parametrize(
    "change, match",
    [
        ({"gamma": None}, "missing factorization field 'gamma'"),  # None drops the field
        ({"residual": "small"}, "could not convert string to float"),
        ({"gamma": [2.0]}, "malformed factorization"),
        ({"V": [[1.0, 0.25]]}, "matching inner dimension"),
        ({"U": [[1.0, 0.0], [0.8, 0.8]]}, "a row of U exceeds unit norm"),
        ({"gamma": -1.0}, "gamma must be a finite nonnegative real"),
    ],
)
def test_load_factorization_rejects_malformed_files(tmp_path, change, match):
    obj = {"gamma": 2.0, "residual": 0.0, "U": [[1.0, 0.0], [0.6, 0.8]], "V": [[1.0, 0.25], [0.0, 0.5]]}
    obj.update(change)
    p = tmp_path / "f.json"
    p.write_text(json.dumps({k: v for k, v in obj.items() if v is not None}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: .*{match}"):
        load_factorization(p)


def test_report_dump(tmp_path):
    p = tmp_path / "rep.json"
    dump_report({"totalTerms": 3, "levels": [], "boundFit": None,
                 "gammaSquaredTrajectory": [1.0], "epsTrajectory": [0.0]}, p)
    data = json.loads(p.read_text())
    assert set(data) == {"totalTerms", "levels", "boundFit", "gammaSquaredTrajectory", "epsTrajectory"}
