"""The package's public surface: its exports and its module entry point."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blockydecomp
from blockydecomp.formats import load_int_matrix

MODULES = ["blockydecomp"] + [
    f"blockydecomp.{info.name}" for info in pkgutil.iter_modules(blockydecomp.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    exports = getattr(mod, "__all__", [])
    assert len(exports) == len(set(exports))
    assert [name for name in exports if not hasattr(mod, name)] == []


def test_module_entry_point_runs_gen(tmp_path):
    # A cyclic shift is the convolution table of the indicator of {1}:
    # M[x, y] = 1 exactly where x - y = 1 mod 3.
    out = tmp_path / "c.txt"
    src = str(Path(blockydecomp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "blockydecomp", "gen", "--kind", "convolution-cyclic",
         "--n", "3", "--support", "1", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "wrote 3x3 convolution-cyclic matrix" in done.stdout
    assert np.array_equal(load_int_matrix(out), [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
