"""Reading and writing matrices, decompositions, factorizations, reports.

Matrix files come in two flavors, sniffed by the first non-whitespace
character: JSON objects ``{"rows": m, "cols": n, "kind": ..., "entries":
[[...], ...]}``, and whitespace-separated text with a ``m n kind`` header
line followed by m rows of n values.  ``kind`` is ``int`` or ``real``.
All indices in serialized decompositions are zero-based.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import BlockyMatrix, IntMatrix, RealMatrix, SignedBlockySum, as_int_array

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


def _build(arr: np.ndarray, kind: str, where) -> IntMatrix | RealMatrix:
    if kind == "int":
        try:
            return IntMatrix(arr)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    if kind == "real":
        return RealMatrix(arr)
    raise ValueError(f"{where}: unknown matrix kind {kind!r}; expected one of {_KINDS}")


def load_matrix(path) -> IntMatrix | RealMatrix:
    """Load a matrix from a JSON or text file; kind selects the container."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if not stripped:
        raise ValueError(f"{path}: empty matrix file")
    if stripped[0] == "{":
        obj = json.loads(text)
        try:
            m, n, kind = int(obj["rows"]), int(obj["cols"]), obj.get("kind", "int")
            entries = obj["entries"]
        except KeyError as e:
            raise ValueError(f"{path}: missing matrix field {e}") from None
        arr = np.asarray(entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape != (m, n):
            raise ValueError(f"{path}: entries are shaped {arr.shape}, header says {(m, n)}")
    else:
        lines = [ln for ln in stripped.splitlines() if ln.strip()]
        head = lines[0].split()
        if len(head) != 3:
            raise ValueError(f"{path}: header must be 'rows cols kind', got {lines[0]!r}")
        m, n, kind = int(head[0]), int(head[1]), head[2]
        if len(lines) - 1 != m:
            raise ValueError(f"{path}: expected {m} data rows, found {len(lines) - 1}")
        rows = []
        for i, ln in enumerate(lines[1:]):
            vals = [float(tok) for tok in ln.split()]
            if len(vals) != n:
                raise ValueError(f"{path}: row {i} has {len(vals)} entries, expected {n}")
            rows.append(vals)
        arr = np.asarray(rows, dtype=np.float64)
    return _build(arr, kind, path)


def load_int_matrix(path) -> IntMatrix:
    mat = load_matrix(path)
    if not isinstance(mat, IntMatrix):
        raise ValueError(f"{path}: integer matrix required, file holds kind 'real'")
    return mat


def _fmt(v: float, kind: str) -> str:
    return str(int(v)) if kind == "int" else repr(float(v))


def dump_matrix(matrix, path, fmt: str = "text") -> None:
    """Write a matrix as text (default) or JSON; kind follows the container."""
    if isinstance(matrix, RealMatrix):
        kind, arr = "real", np.asarray(matrix.values, dtype=np.float64)
    else:
        kind, arr = "int", as_int_array(matrix)
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
    """Read a signed blocky sum; missing fields, non-integer indices and signs raise ValueError."""
    obj = json.loads(Path(path).read_text())
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


def dump_factorization(U, V, gamma: float, residual: float, path) -> None:
    obj = {
        "gamma": float(gamma),
        "residual": float(residual),
        "U": np.asarray(U, dtype=np.float64).tolist(),
        "V": np.asarray(V, dtype=np.float64).tolist(),
    }
    Path(path).write_text(json.dumps(obj) + "\n")


def load_factorization(path) -> tuple[np.ndarray, np.ndarray, float, float]:
    obj = json.loads(Path(path).read_text())
    try:
        U = np.asarray(obj["U"], dtype=np.float64)
        V = np.asarray(obj["V"], dtype=np.float64)
    except KeyError as e:
        raise ValueError(f"{path}: missing factorization field {e}") from None
    if U.ndim != 2 or V.ndim != 2 or U.shape[1] != V.shape[0]:
        raise ValueError(f"{path}: inner dimensions do not match: {U.shape} x {V.shape}")
    return U, V, float(obj.get("gamma", float("nan"))), float(obj.get("residual", float("nan")))


def dump_report(report: dict, path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
