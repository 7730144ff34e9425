"""Validation of the shared run configuration."""

import dataclasses

import numpy as np
import pytest

from blockydecomp.config import RunConfig
from blockydecomp.littlestone import DEFAULT_BUDGET


def test_defaults_validate():
    cfg = RunConfig()
    assert dataclasses.astuple(cfg) == (0, 1e-9, 10_000, DEFAULT_BUDGET)
    assert RunConfig(seed=np.int64(3), max_iter=np.int64(5)).seed == 3


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol": 0.0},
        {"tol": -1.0},
        {"tol": float("nan")},
        {"tol": float("inf")},
        {"seed": -1},
        {"max_iter": -1},
        {"max_iter": 2.5},
        {"max_iter": True},
        {"max_iter": 0},
        {"littlestone_budget": 0},
        {"littlestone_budget": 1.5},
    ],
)
def test_invalid_values_rejected(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)
