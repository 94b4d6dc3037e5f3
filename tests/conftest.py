"""Shared fixtures: the two zero-potential reference configurations.

R0 has a trivial weight (alpha = 1) so everything has elementary closed
forms; R1 doubles the weight on the right half so the jump machinery is
actually exercised.  Hypothesis runs derandomized, so every run on every
machine draws the same examples; each test keeps its own ``max_examples``.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import diracbvp
from diracbvp.model import (PI, BoundaryParams, PotentialSpec, ProblemConfig,
                            Weight)

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def reference_config(alpha: float = 1.0, grid_points: int = 1024,
                     potential: PotentialSpec = None) -> ProblemConfig:
    return ProblemConfig(
        boundary=BoundaryParams(0.0, -1.0, 1.0, 0.0, 0.0, -1.0, 1.0, 0.0),
        weight=Weight(alpha=alpha, a=PI / 2.0),
        potential=potential if potential is not None else PotentialSpec.zero(),
        grid_points=grid_points)


def run_python(*args) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports this diracbvp."""
    src = str(Path(diracbvp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="session")
def r0():
    return reference_config(1.0, 1024)


@pytest.fixture(scope="session")
def r1():
    return reference_config(2.0, 1024)
