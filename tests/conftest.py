"""Shared fixtures: one desk-scale CT instance reused across test modules."""

from __future__ import annotations

import numpy as np
import pytest

from pdtomo.ct import ImageGrid, build_geometry, fov_active, gradient, projector
from pdtomo.phantom import generate
from pdtomo.spectral import spectral_norm


@pytest.fixture(scope="session")
def desk_grid() -> ImageGrid:
    return ImageGrid(64, 64, 18.0)


@pytest.fixture(scope="session")
def desk_phantom(desk_grid):
    return generate(desk_grid, seed=7)


@pytest.fixture(scope="session")
def desk_projector(desk_grid):
    return projector(desk_grid, build_geometry("desk-oversampled"))


@pytest.fixture(scope="session")
def desk_gradient(desk_grid):
    return gradient(desk_grid)


@pytest.fixture(scope="session")
def desk_active(desk_grid):
    return fov_active(desk_grid)


@pytest.fixture(scope="session")
def desk_norm(desk_projector) -> float:
    return spectral_norm(desk_projector, seed=0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260815)
