"""Experiment configuration: JSON ingestion, validation, unit conversion.

dB and mph are accepted at this boundary only; everything handed to the core
is linear and SI.  The noise variance follows from the configured average SNR
as noise = P_d * rho0 / 10^(snr_db/10) when `snr_db` is given.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

from .channel import (LinkParams, MobilityParams, MPH_TO_MPS, doppler_frequency)

_KNOWN_KEYS = {
    "pilot_power", "data_power", "channel_variance", "noise_variance", "snr_db",
    "speed", "speed_unit", "carrier_hz", "sample_period_s",
    "mcs_config", "bler_table", "reward_csv",
    "delta_max", "tau_max", "horizon", "seeds", "quad_nodes",
    "snr_grid_db", "speed_grid_mph", "output_dir",
}

_REAL_FIELDS = ("pilot_power", "data_power", "channel_variance", "noise_variance", "snr_db",
                "speed", "carrier_hz", "sample_period_s")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return ((_is_int(value) and abs(value) <= sys.float_info.max)
            or (isinstance(value, float) and math.isfinite(value)))


@dataclass
class ExperimentConfig:
    pilot_power: float = 1.0
    data_power: float = 1.0
    channel_variance: float = 1.0
    noise_variance: float | None = None
    snr_db: float | None = None
    speed: float = 15.0
    speed_unit: str = "mph"
    carrier_hz: float = 2.4e9
    sample_period_s: float = 1e-3
    mcs_config: str = "default"
    bler_table: str = "default"
    reward_csv: str | None = None
    delta_max: int = 600
    tau_max: int = 512
    horizon: int = 1_000_000
    seeds: list = field(default_factory=lambda: [1, 2, 3, 4, 5])
    quad_nodes: int = 64
    snr_grid_db: list = field(default_factory=lambda: [-5, 0, 5, 10, 15, 20, 25])
    speed_grid_mph: list = field(default_factory=lambda: [2, 10, 20, 30, 40, 50, 60])
    output_dir: str = "."

    def __post_init__(self):
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if value is not None and not _is_real(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        for name in ("snr_grid_db", "speed_grid_mph"):
            grid = getattr(self, name)
            if not (isinstance(grid, list) and all(_is_real(v) for v in grid)):
                raise ValueError(f"{name} must be a list of finite numbers, got {grid!r}")
        if not (isinstance(self.seeds, list) and self.seeds
                and all(_is_int(s) and s >= 0 for s in self.seeds)):
            raise ValueError(
                f"seeds must be a nonempty list of nonnegative integers, got {self.seeds!r}")
        if (self.noise_variance is None) == (self.snr_db is None):
            raise ValueError("exactly one of 'noise_variance' and 'snr_db' must be given")
        if self.noise_variance is not None and self.noise_variance <= 0:
            raise ValueError(f"noise_variance must be positive, got {self.noise_variance}")
        if self.speed_unit not in ("mph", "mps"):
            raise ValueError(f"speed_unit must be 'mph' or 'mps', got {self.speed_unit!r}")
        if self.speed < 0:
            raise ValueError(f"speed must be >= 0, got {self.speed}")
        for name in ("delta_max", "tau_max", "horizon", "quad_nodes"):
            value = getattr(self, name)
            if not (_is_int(value) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.tau_max >= self.delta_max:
            raise ValueError(
                f"tau_max ({self.tau_max}) must be smaller than delta_max ({self.delta_max}) "
                "so the index window fits the tabulated curve")

    @property
    def speed_mps(self) -> float:
        return self.speed * MPH_TO_MPS if self.speed_unit == "mph" else self.speed

    def noise_variance_linear(self, snr_db: float | None = None) -> float:
        if snr_db is None and self.noise_variance is not None:
            return self.noise_variance
        snr = self.snr_db if snr_db is None else snr_db
        return self.data_power * self.channel_variance / (10.0 ** (snr / 10.0))

    def link_params(self, snr_db: float | None = None,
                    speed_mph: float | None = None) -> LinkParams:
        """Materialize LinkParams, optionally overriding the SNR or speed grid point."""
        speed_mps = self.speed_mps if speed_mph is None else speed_mph * MPH_TO_MPS
        mob = MobilityParams(speed_mps=speed_mps, carrier_hz=self.carrier_hz)
        return LinkParams(
            pilot_power=self.pilot_power,
            data_power=self.data_power,
            noise_variance=self.noise_variance_linear(snr_db),
            channel_variance=self.channel_variance,
            doppler_hz=doppler_frequency(mob),
            sample_period=self.sample_period_s,
        )


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config, naming offending fields."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    if "noise_variance" not in doc and "snr_db" not in doc:
        doc = dict(doc, snr_db=20.0)
    try:
        return ExperimentConfig(**doc)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def default_config() -> ExperimentConfig:
    """The shipped operating point: 15 mph, 20 dB SNR, 2.4 GHz, 1 ms slots."""
    return ExperimentConfig(snr_db=20.0)
