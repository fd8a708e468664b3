"""Experiment configuration: JSON ingestion, validation, unit conversion.

dB and mph are accepted at this boundary only; everything handed to the core
is linear and SI.  The noise variance follows from the configured average SNR
as noise = P_d * rho0 / 10^(snr_db/10) when `snr_db` is given, and the
Doppler shift as f_d = v * f_c / c.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field, fields

from .channel import LinkParams, MPH_TO_MPS, SPEED_OF_LIGHT

# The longest reward curve that is tabulated (delta_max), and the highest age
# whose r(age) a simulation integrates past its curve.
MAX_TABULATED_AGES = 1_000_000

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
        for name in ("speed_unit", "mcs_config", "bler_table", "output_dir"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        if not (self.reward_csv is None or isinstance(self.reward_csv, str)):
            raise ValueError(f"reward_csv must be a string or null, got {self.reward_csv!r}")
        if (self.noise_variance is None) == (self.snr_db is None):
            raise ValueError("exactly one of 'noise_variance' and 'snr_db' must be given")
        for name in ("pilot_power", "data_power", "channel_variance", "noise_variance",
                     "carrier_hz", "sample_period_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.speed_unit not in ("mph", "mps"):
            raise ValueError(f"speed_unit must be 'mph' or 'mps', got {self.speed_unit!r}")
        if self.speed < 0:
            raise ValueError(f"speed must be >= 0, got {self.speed}")
        for name in ("delta_max", "horizon", "quad_nodes"):
            value = getattr(self, name)
            if not (_is_int(value) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.delta_max > MAX_TABULATED_AGES:
            raise ValueError(
                f"delta_max must be at most {MAX_TABULATED_AGES}, got {self.delta_max}")
        # the quadrature rule needs 8 nodes, and the Gauss-Legendre rule of n
        # nodes is built from an n x n matrix: 8 MiB at the ceiling, 74.5 GiB
        # at 10^5 nodes
        if not 8 <= self.quad_nodes <= 1024:
            raise ValueError(f"quad_nodes must be from 8 to 1024, got {self.quad_nodes}")

    @property
    def speed_mps(self) -> float:
        return self.speed * MPH_TO_MPS if self.speed_unit == "mph" else self.speed

    def noise_variance_linear(self, snr_db: float | None = None) -> float:
        if snr_db is None and self.noise_variance is not None:
            return self.noise_variance
        snr = self.snr_db if snr_db is None else snr_db
        try:
            noise = self.data_power * self.channel_variance / (10.0 ** (snr / 10.0))
        except (OverflowError, ZeroDivisionError):
            noise = 0.0
        if not 0.0 < noise < math.inf:
            raise ValueError(f"snr_db {snr!r} gives no finite positive noise variance "
                             f"with data_power {self.data_power!r} and "
                             f"channel_variance {self.channel_variance!r}")
        return noise

    def link_params(self, snr_db: float | None = None,
                    speed_mph: float | None = None) -> LinkParams:
        """Materialize LinkParams, optionally overriding the SNR or speed grid point.

        A speed outside [0, c), or a Doppler shift that breaks the sampling
        bound, raises a ValueError naming the keys that set it.
        """
        if speed_mph is None:
            speed, unit, speed_mps = self.speed, self.speed_unit, self.speed_mps
        else:
            speed, unit, speed_mps = speed_mph, "mph", speed_mph * MPH_TO_MPS
        if not 0 <= speed_mps < SPEED_OF_LIGHT:
            raise ValueError(f"speed must be in [0, c), got {speed!r} {unit}")
        noise_variance = self.noise_variance_linear(snr_db)
        try:
            return LinkParams(
                pilot_power=self.pilot_power,
                data_power=self.data_power,
                noise_variance=noise_variance,
                channel_variance=self.channel_variance,
                doppler_hz=speed_mps * self.carrier_hz / SPEED_OF_LIGHT,
                sample_period=self.sample_period_s,
            )
        except ValueError as exc:
            # every other field is checked above, so the Doppler shift is at fault
            raise ValueError(f"speed {speed!r} {unit}, carrier_hz {self.carrier_hz!r} and "
                             f"sample_period_s {self.sample_period_s!r}: {exc}") from exc


def read_input_text(path, what: str) -> str:
    """The whole text of an input file, line endings untranslated.

    A file that cannot be opened or read, or is not UTF-8 text, raises a
    ValueError that names it and says it is the `what`.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"{path}: cannot read {what} ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: cannot read {what} as UTF-8 ({exc})") from exc


def read_csv_input(path, what: str, header: list) -> list:
    """The nonblank data rows of a CSV input file, as (row number, fields).

    The first row must be `header`.  An unreadable file, a record the csv
    module cannot parse, or a missing or wrong header raises a ValueError
    that names the file, and the row of a record that does not parse.
    """
    reader = csv.reader(io.StringIO(read_input_text(path, what), newline=""))
    records = []
    try:
        for row in reader:
            records.append(row)
    except csv.Error as exc:
        raise ValueError(f"{path} row {len(records) + 1}: cannot parse {what} ({exc})") from exc
    if not records:
        raise ValueError(f"{path}: empty {what}")
    if [h.strip() for h in records[0]] != header:
        raise ValueError(f"{path}: expected header '{','.join(header)}', got {records[0]}")
    return [(row_no, row) for row_no, row in enumerate(records[1:], start=2) if row]


# every field, plus tau_max, which older configs set and load_config drops
_KNOWN_KEYS = {f.name for f in fields(ExperimentConfig)} | {"tau_max"}


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config, naming offending fields."""
    text = read_input_text(path, "config")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    if "noise_variance" not in doc and "snr_db" not in doc:
        doc = dict(doc, snr_db=20.0)
    # the index window spans the whole curve, so the tau_max that older
    # configs set to bound it is dropped unread
    doc.pop("tau_max", None)
    try:
        return ExperimentConfig(**doc)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def default_config() -> ExperimentConfig:
    """The shipped operating point: 15 mph, 20 dB SNR, 2.4 GHz, 1 ms slots."""
    return ExperimentConfig(snr_db=20.0)
