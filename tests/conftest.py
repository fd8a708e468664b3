import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pilotsched
from pilotsched import LinkParams, MPH_TO_MPS, SPEED_OF_LIGHT, default_mcs_table


@pytest.fixture(scope="session")
def reference_params() -> LinkParams:
    """The headline operating point: 15 mph, 2.4 GHz, 1 ms slots, 20 dB SNR."""
    return LinkParams(pilot_power=1.0, data_power=1.0, noise_variance=0.01,
                      channel_variance=1.0,
                      doppler_hz=15 * MPH_TO_MPS * 2.4e9 / SPEED_OF_LIGHT,
                      sample_period=1e-3)


@pytest.fixture(scope="session")
def default_table():
    return default_mcs_table()


@pytest.fixture(scope="session")
def flat_params() -> LinkParams:
    """Unit powers and noise, moderate Doppler; handy for worked examples."""
    return LinkParams(pilot_power=1.0, data_power=1.0, noise_variance=1.0,
                      channel_variance=1.0, doppler_hz=50.0, sample_period=1e-3)


@pytest.fixture
def rng():
    # function-scoped: each test draws from a fresh generator, so outcomes do
    # not depend on which other tests ran first
    return np.random.default_rng(1234)


@pytest.fixture
def run_python():
    """Run a Python snippet in a fresh interpreter that imports this pilotsched; return its stdout."""
    src = str(Path(pilotsched.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def run(code: str) -> str:
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120, check=True).stdout
    return run
