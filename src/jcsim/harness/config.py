"""Scenario configuration: one serializable record drives every experiment.

Configs round-trip exactly through JSON so a run manifest can reproduce the
experiment bit for bit.
"""

import dataclasses
import hashlib
import json
import numbers
import types
from dataclasses import dataclass

from ..beamform import RadarBeamKind
from ..channel import ChannelModelKind
from ..estimation import Estimator
from ..radar import DEFAULT_CP_FRACTION

__all__ = [
    "ScenarioConfig",
    "ConfigError",
    "desk_preset",
    "table1_preset",
    "load_config",
    "dump_config",
    "hash_config",
]


class ConfigError(ValueError):
    pass


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# What each field annotation accepts: a JSON number for float, a whole one
# for int, and a list of numbers for tuple.
_TYPE_CHECKS = {
    int: ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    float: ("a number", _is_real),
    str: ("a string", lambda v: isinstance(v, str)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    tuple: ("a list of numbers", lambda v: isinstance(v, (list, tuple)) and all(map(_is_real, v))),
}


def _check_type(name: str, value, annotation) -> None:
    """Raise ConfigError unless ``value`` fits the field annotation (``X`` or ``X | None``)."""
    if isinstance(annotation, types.UnionType):
        if value is None:
            return
        (annotation,) = set(annotation.__args__) - {type(None)}
    what, fits = _TYPE_CHECKS[annotation]
    if not fits(value):
        raise ConfigError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulated deployment.

    Geometry, OFDM frame, user population, channel/estimator/beam choices,
    power budgets and Monte-Carlo sizes.  Angles are degrees here (human
    readable); internal code converts to radians.
    """

    seed: int = 1234

    # array and carrier
    n_y: int = 4
    n_z: int = 4
    carrier_hz: float = 3e9

    # OFDM frame
    n_subcarriers: int = 64
    n_symbols: int = 14
    subcarrier_spacing_hz: float = 30e3
    cp_fraction: float = DEFAULT_CP_FRACTION

    # users and links
    n_users: int = 4
    channel_model: str = "rayleigh"  # a ChannelModelKind value
    estimator: str = "pm"  # an Estimator value
    radar_beam: str = "pbr"  # a RadarBeamKind value
    user_x_range_m: tuple = (10.0, 100.0)
    user_y_range_m: tuple = (10.0, 50.0)  # magnitude; sign drawn uniformly
    user_height_m: float = 1.65
    bs_height_m: float = 15.0
    p_los_cap: float = 0.99
    shadowing_db: float | None = None  # None: path-loss model default

    # training
    tau_c: int = 200
    tau_p: int | None = None  # default: one symbol per user
    pilot_power_w: float = 0.1

    # powers and noise
    p_dl_w: float = 2.0
    rcr_db: float = 3.0
    rho_star: float | None = None  # default: linear RCR
    noise_figure_db: float = 9.0
    noise_psd_dbm_hz: float = -174.0

    # radar surveillance
    scan_azimuth_deg: tuple = (-60.0, 60.0)
    scan_elevation_deg: tuple = (10.0, 80.0)
    pfa_target: float = 1e-2
    target_rcs_m2: float = 0.1253
    target_speed_mps: float = 30.0
    target_on_grid: bool = False
    detection_ranges_m: tuple = (150.0, 220.0, 290.0, 340.0)
    detection_rcr_db: tuple = (3.0, 6.0)

    # Monte-Carlo sizes
    n_scenarios: int = 50
    n_detection_trials: int = 20_000

    def __post_init__(self):
        for f in dataclasses.fields(self):
            _check_type(f.name, getattr(self, f.name), f.type)
        pairs = ("user_x_range_m", "user_y_range_m", "scan_azimuth_deg", "scan_elevation_deg")
        for name in (*pairs, "detection_ranges_m", "detection_rcr_db"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in pairs:
            low_high = getattr(self, name)
            if len(low_high) != 2 or low_high[0] > low_high[1]:
                raise ConfigError(f"{name} must be a (low, high) pair with low <= high")
        for name, kind in (("channel_model", ChannelModelKind), ("estimator", Estimator),
                           ("radar_beam", RadarBeamKind)):
            if getattr(self, name) not in {k.value for k in kind}:
                raise ConfigError(f"unknown {name.replace('_', ' ')} {getattr(self, name)!r}")
        for name in ("n_users", "n_y", "n_z", "n_subcarriers", "n_symbols"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name, low, high in (("scan_azimuth_deg", -180.0, 180.0),
                                ("scan_elevation_deg", 0.0, 180.0)):
            first, last = getattr(self, name)
            if first < low or last > high:
                raise ConfigError(f"{name} must lie within [{low:g}, {high:g}]")
        if not 1 <= self.effective_tau_p <= self.tau_c:
            raise ConfigError("tau_p (default: n_users) must lie in [1, tau_c]")
        if self.n_scenarios < 0 or self.n_detection_trials < 1:
            raise ConfigError("n_scenarios must be >= 0 and n_detection_trials >= 1")
        if not self.detection_ranges_m or not self.detection_rcr_db:
            raise ConfigError("detection_ranges_m and detection_rcr_db must not be empty")
        if min(self.detection_ranges_m) <= 0:
            raise ConfigError("detection_ranges_m must be positive")
        if not 0 < self.pfa_target <= 1:
            raise ConfigError("pfa_target must lie in (0, 1]")
        for name in ("p_dl_w", "pilot_power_w", "carrier_hz", "subcarrier_spacing_hz",
                     "cp_fraction", "target_rcs_m2"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        rice = self.channel_model == ChannelModelKind.RICE.value
        if rice and not 0 <= self.p_los_cap < 1:
            raise ConfigError("p_los_cap must lie in [0, 1) for rice: its K-factor is p / (1 - p)")
        if self.user_x_range_m == self.user_y_range_m == (0, 0) and (
            rice or self.bs_height_m == self.user_height_m
        ):
            raise ConfigError(
                "users at the foot of the array need distinct heights and no rice model"
            )
        if self.radar_beam == RadarBeamKind.ZFR.value and self.n_y * self.n_z <= self.n_users:
            raise ConfigError("the zfr beam needs more antennas (n_y * n_z) than users")

    @property
    def rcr_linear(self) -> float:
        return 10.0 ** (self.rcr_db / 10.0)

    @property
    def effective_tau_p(self) -> int:
        return self.n_users if self.tau_p is None else self.tau_p

    def to_dict(self) -> dict:
        # Every field is a scalar, a tuple or None, so no recursive deep copy.
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def replace(self, **changes) -> "ScenarioConfig":
        return dataclasses.replace(self, **changes)


def hash_config(data: dict) -> str:
    """Short SHA-256 of a config dict (``ScenarioConfig.to_dict``) in canonical JSON."""
    canonical = json.dumps(data, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def desk_preset() -> ScenarioConfig:
    """Reduced dimensions so the full experiment suite runs in minutes.

    Pilots are reused (tau_p < K) so estimation operates under pilot
    contamination, the regime where the estimator choice matters.
    Shadowing is mild: with only four users the lower tail of the pooled
    rate distribution is otherwise dominated by single-user shadowing
    outliers rather than by the allocation.  The target cross-section is
    shrunk so the detection transition falls inside the range window the
    cyclic prefix allows; at this scale the small array and frame would
    otherwise detect everything out to the CP limit.
    """
    return ScenarioConfig(
        tau_p=2,
        shadowing_db=2.0,
        target_rcs_m2=0.002,
        detection_ranges_m=(150.0, 250.0, 300.0, 345.0),
    )


def table1_preset() -> ScenarioConfig:
    """Full-size deployment: 10x10 array, 10 users, 512 subcarriers."""
    return ScenarioConfig(
        n_y=10,
        n_z=10,
        n_users=10,
        n_subcarriers=512,
        n_symbols=14,
        subcarrier_spacing_hz=30e3,
    )


PRESETS = {"desk": desk_preset, "table1": table1_preset}


def dump_config(cfg: ScenarioConfig) -> str:
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"


def load_config(text: str) -> ScenarioConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return ScenarioConfig.from_dict(data)
