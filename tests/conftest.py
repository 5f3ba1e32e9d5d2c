import math
import subprocess

import numpy as np
import pytest

from sdfslam.geometry import GridGeometry, Pose2
from sdfslam.mapping import ExpansionPolicy, SdfGrid, integrate_scan
from sdfslam.simulate import SensorModel, World, rectangle_room, simulate_scan


def make_square_world(half: float = 2.0) -> World:
    return World(np.asarray(rectangle_room(2 * half, 2 * half), dtype=np.float64))


def make_grid(half: float = 2.5, res: float = 0.05, trunc: float = 0.06,
              w_max: float = 10.0) -> SdfGrid:
    cells = int(round(2 * half / res))
    origin = -half + 0.5 * res
    geom = GridGeometry(origin, origin, res, cells, cells)
    return SdfGrid.unknown(geom, trunc, w_max)


def build_room_map(noise_sigma: float = 0.0, poses=None, seed: int = 3,
                   half: float = 2.0, grid_half: float = 2.5) -> SdfGrid:
    """Map of a square room built by integrating scans at known poses."""
    world = make_square_world(half)
    grid = make_grid(grid_half)
    model = SensorModel(noise_sigma=noise_sigma, seed=seed)
    if poses is None:
        poses = [
            Pose2(0.3 * math.cos(a), 0.3 * math.sin(a), 0.7 * a)
            for a in np.linspace(0.0, 2 * math.pi, 12, endpoint=False)
        ]
    policy = ExpansionPolicy.for_resolution(grid.geometry.resolution)
    for i, pose in enumerate(poses):
        scan, _ = simulate_scan(world, pose, model, scan_index=i)
        integrate_scan(grid, scan, pose, policy)
    return grid


@pytest.fixture(scope="session")
def room_map() -> SdfGrid:
    return build_room_map()


@pytest.fixture(scope="session")
def room_world() -> World:
    return make_square_world()


@pytest.fixture
def started_processes(monkeypatch):
    """Every process that ``subprocess.Popen`` starts during the test."""
    started = []
    popen = subprocess.Popen

    def spy(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", spy)
    return started
