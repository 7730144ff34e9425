"""Reading and writing matrices, decompositions, factorizations, reports.

Matrix files come in two flavors, sniffed by the first non-whitespace
character: JSON objects ``{"rows": m, "cols": n, "kind": ..., "entries":
[[...], ...]}``, and whitespace-separated text with a ``m n kind`` header
line followed by m rows of n values.  ``kind`` is ``int`` or ``real``, and
this module alone maps it to a dtype: a loaded matrix is a read-only int64
array for ``int`` and float64 for ``real``, and a float array is written as
``real``, any other as ``int``.  ``rows`` and ``cols`` must be integers.
Every file is read as UTF-8, and every malformed matrix, decomposition or
certificate file, one that is not UTF-8 or not JSON included, raises
ValueError naming its path.  All indices in serialized decompositions are
zero-based.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import BlockyMatrix, SignedBlockySum, as_int_array, as_real_array
from .factorize import GammaFactorization

__all__ = [
    "load_matrix",
    "load_int_matrix",
    "dump_matrix",
    "load_decomposition",
    "dump_decomposition",
    "load_factorization",
    "dump_factorization",
    "dump_report",
]

_KINDS = ("int", "real")


def _as_kind(arr: np.ndarray, kind, path) -> np.ndarray:
    """A file's entries as a read-only array of its kind: int64 for ``int``, float64 for ``real``."""
    if kind not in _KINDS:
        raise ValueError(f"{path}: unknown matrix kind {kind!r}; expected one of {_KINDS}")
    try:
        out = as_int_array(arr) if kind == "int" else as_real_array(arr)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    out.setflags(write=False)
    return out


def _read_text(path) -> str:
    """A file's text, decoded as UTF-8; bytes that are not UTF-8 raise ValueError naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None


def _json_value(text: str, path):
    """The value of a file's JSON text; text that is not JSON raises ValueError naming the path."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_matrix(path) -> np.ndarray:
    """Load a matrix from a JSON or text file as a read-only array; its kind is the dtype."""
    text = _read_text(path)
    stripped = text.lstrip()
    if not stripped:
        raise ValueError(f"{path}: empty matrix file")
    if stripped[0] == "{":
        obj = _json_value(text, path)
        try:
            m, n, kind, entries = obj["rows"], obj["cols"], obj.get("kind", "int"), obj["entries"]
        except KeyError as e:
            raise ValueError(f"{path}: missing matrix field {e}") from None
        if type(m) is not int or type(n) is not int:  # floats, bools and nulls are refused
            raise ValueError(f"{path}: 'rows' and 'cols' must be integers, got {m!r} and {n!r}")
        try:
            arr = np.asarray(entries, dtype=np.float64)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{path}: malformed entries: {exc}") from None
        if arr.ndim != 2 or arr.shape != (m, n):
            raise ValueError(f"{path}: entries are shaped {arr.shape}, header says {(m, n)}")
    else:
        lines = [ln for ln in stripped.splitlines() if ln.strip()]
        head = lines[0].split()
        if len(head) != 3 or not all(tok.isascii() and tok.isdigit() for tok in head[:2]):
            raise ValueError(f"{path}: header must be 'rows cols kind', got {lines[0]!r}")
        m, n, kind = int(head[0]), int(head[1]), head[2]
        if len(lines) - 1 != m:
            raise ValueError(f"{path}: expected {m} data rows, found {len(lines) - 1}")
        rows = []
        for i, ln in enumerate(lines[1:]):
            try:
                vals = [float(tok) for tok in ln.split()]
            except ValueError as exc:
                raise ValueError(f"{path}: row {i}: {exc}") from None
            if len(vals) != n:
                raise ValueError(f"{path}: row {i} has {len(vals)} entries, expected {n}")
            rows.append(vals)
        arr = np.asarray(rows, dtype=np.float64)
    return _as_kind(arr, kind, path)


def load_int_matrix(path) -> np.ndarray:
    """Load a matrix file of kind ``int`` as a read-only int64 array."""
    arr = load_matrix(path)
    if arr.dtype.kind == "f":
        raise ValueError(f"{path}: integer matrix required, file holds kind 'real'")
    return arr


def _fmt(v: float, kind: str) -> str:
    return str(int(v)) if kind == "int" else repr(float(v))


def dump_matrix(matrix, path, fmt: str = "text") -> None:
    """Write a matrix as text (default) or JSON: kind ``real`` for a float dtype, else ``int``."""
    arr = np.asarray(matrix)
    if arr.dtype.kind == "f":
        kind, arr = "real", as_real_array(arr)
    else:
        kind, arr = "int", as_int_array(arr)
    p = Path(path)
    if fmt == "json":
        entries = arr.tolist()
        obj = {"rows": arr.shape[0], "cols": arr.shape[1], "kind": kind, "entries": entries}
        p.write_text(json.dumps(obj, indent=2) + "\n")
    elif fmt == "text":
        lines = [f"{arr.shape[0]} {arr.shape[1]} {kind}"]
        lines += [" ".join(_fmt(v, kind) for v in row) for row in arr.tolist()]
        p.write_text("\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown matrix format {fmt!r}; expected 'text' or 'json'")


def dump_decomposition(s: SignedBlockySum, path) -> None:
    """Serialize a signed blocky sum; rectangle indices are zero-based."""
    obj = {
        "shape": list(s.shape),
        "terms": [
            {
                "sign": sign,
                "rectangles": [
                    {"rows": list(rows), "cols": list(cols)} for rows, cols in b.rectangles
                ],
            }
            for sign, b in s.terms
        ],
    }
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def _list_field(obj, key: str, where: str, path) -> list:
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: {where} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{path}: {where} is missing field '{key}'")
    if not isinstance(obj[key], list):
        raise ValueError(f"{path}: {where} field '{key}' must be a list")
    return obj[key]


def _index_field(obj, key: str, where: str, path) -> list[int]:
    values = _list_field(obj, key, where, path)
    if not all(type(v) is int for v in values):  # floats and bools are refused
        raise ValueError(f"{path}: {where} field '{key}' must hold integers, got {values!r}")
    return values


def load_decomposition(path) -> SignedBlockySum:
    """Read a signed blocky sum; malformed JSON, missing fields, non-integer
    indices and signs raise ValueError."""
    obj = _json_value(_read_text(path), path)
    shape = tuple(_index_field(obj, "shape", "decomposition", path))
    if len(shape) != 2:
        raise ValueError(f"{path}: shape must have exactly two entries")
    terms = []
    for i, t in enumerate(_list_field(obj, "terms", "decomposition", path)):
        where = f"term {i}"
        rects = [
            (_index_field(rc, "rows", f"{where} rectangle", path),
             _index_field(rc, "cols", f"{where} rectangle", path))
            for rc in _list_field(t, "rectangles", where, path)
        ]
        sign = t.get("sign")
        if type(sign) is not int:
            raise ValueError(f"{path}: {where} needs an integer sign -1 or 1, got {sign!r}")
        terms.append((sign, BlockyMatrix(shape=shape, rectangles=rects)))
    return SignedBlockySum(shape=shape, terms=tuple(terms))


def dump_factorization(fac: GammaFactorization, path) -> None:
    """Write a certificate's U, V, gamma and residual as JSON."""
    obj = {"gamma": fac.gamma, "residual": fac.residual, "U": fac.U.tolist(), "V": fac.V.tolist()}
    Path(path).write_text(json.dumps(obj) + "\n")


def load_factorization(path) -> GammaFactorization:
    """Read a certificate, checked as ``GammaFactorization`` checks one; a
    malformed JSON, a missing field or a gamma or residual that is not a number
    raises ValueError."""
    obj = _json_value(_read_text(path), path)
    try:
        gamma, residual = float(obj["gamma"]), float(obj["residual"])
        return GammaFactorization(U=obj["U"], V=obj["V"], gamma=gamma, residual=residual)
    except KeyError as e:
        raise ValueError(f"{path}: missing factorization field {e}") from None
    except TypeError as e:  # a field of the wrong JSON type, such as a null gamma
        raise ValueError(f"{path}: malformed factorization: {e}") from None


def dump_report(report: dict, path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
