"""Validation of the shared run configuration."""

import dataclasses

import numpy as np
import pytest

from blockydecomp.config import RunConfig


def test_defaults_validate():
    cfg = RunConfig()
    assert dataclasses.astuple(cfg) == (0, 1e-9)
    assert RunConfig(seed=np.int64(3)).seed == 3


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol": 0.0},
        {"tol": -1.0},
        {"tol": float("nan")},
        {"tol": float("inf")},
        {"seed": -1},
        {"seed": 2.5},
        {"seed": True},
        {"seed": np.float64(3.0)},
        {"tol": float("-inf")},
    ],
)
def test_invalid_values_rejected(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)
