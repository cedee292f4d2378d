"""Scenario configuration: sectioned key = value files to SystemSpec.

The format is INI (configparser): flat sections, one key = value per line,
units carried in the key names.  Unknown sections or keys are rejected with
the offending name; a parsed configuration re-serializes key-for-key
identical, so files round-trip through the internal representation.

:func:`build_system_spec` builds each distinct link and switching section
once, from caches keyed on the section's values: the points of a sweep,
and separately loaded copies of one file, share the link instances and the
constants those derived when they were made.
"""

from __future__ import annotations

import configparser
import functools
import io
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import numpy as np

from .channel_access import AccessLinkSpec
from .channel_fso import FsoLinkSpec, PointingGeometry
from .channel_thz import ThzEnvironment, ThzLinkSpec, default_rx_radius_m
from .errors import ConfigError
from .metrics_analytic import Modulation, SystemSpec
from .switching import HardPolicy, SoftPolicy

__all__ = [
    "ScenarioConfig",
    "SweepAxis",
    "parse_config",
    "load_config",
    "serialize_config",
    "bundled_config_path",
]

# section -> key -> (type, required)
_SCHEMA = {
    "fso": {
        "wavelength_m": (float, True),
        "length_m": (float, True),
        "visibility_km": (float, True),
        "cn2": (float, True),
        "detection_tau": (int, True),
        "eta": (float, True),
        "aperture_radius_m": (float, True),
        "beamwidth_m": (float, True),
        "jitter_std_m": (float, True),
    },
    "thz": {
        "frequency_hz": (float, True),
        "length_m": (float, True),
        "tx_gain_dbi": (float, True),
        "rx_gain_dbi": (float, True),
        "temperature_k": (float, True),
        "pressure_pa": (float, True),
        "relative_humidity_pct": (float, True),
        "alpha": (float, True),
        "mu": (float, True),
        "n_rx": (int, True),
        "omega": (float, True),
        "aperture_radius_m": (float, False),  # default lambda sqrt(Gt)/(2 pi)
        "beamwidth_m": (float, True),
        "jitter_std_m": (float, True),
    },
    "access": {
        "frequency_hz": (float, True),
        "length_m": (float, True),
        "tx_gain_dbi": (float, True),
        "rx_gain_dbi": (float, True),
        "oxygen_db_per_km": (float, True),
        "rain_db_per_km": (float, True),
        "m": (float, True),
        "n_tx": (int, True),
        "omega_r": (float, True),
    },
    "switching": {
        "mode": (str, True),
        "gamma_th_db": (float, True),
        "gamma_f_th_u_db": (float, False),
        "gamma_f_th_l_db": (float, False),
        "gamma_t_th_db": (float, False),
        "gamma_r_th_db": (float, True),
    },
    "simulation": {
        "transmit_snr_db": (float, True),
        "samples": (int, True),
        "seed": (int, True),
        "rho": (float, True),
        "modulation": (str, True),
    },
    "sweep": {  # whole section optional
        "axis": (str, True),
        "start": (float, True),
        "stop": (float, True),
        "steps": (int, True),
    },
}

SWEEP_AXES = ("transmit_snr_db", "length_m", "beamwidth_m", "jitter_std_m",
              "epsilon_db", "n_antennas")

_MODULATIONS = {
    "ook": Modulation.ook(),
    "bpsk": Modulation.bpsk(),
    "qpsk": Modulation.mpsk(4),
    "8psk": Modulation.mpsk(8),
    "16psk": Modulation.mpsk(16),
    "4qam": Modulation.mqam(4),
    "16qam": Modulation.mqam(16),
    "64qam": Modulation.mqam(64),
}


@dataclass(frozen=True)
class SweepAxis:
    axis: str
    start: float
    stop: float
    steps: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated configuration; ``sections`` holds exactly the parsed keys."""

    sections: dict

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    @property
    def sweep(self) -> Optional[SweepAxis]:
        if "sweep" not in self.sections:
            return None
        s = self.sections["sweep"]
        return SweepAxis(s["axis"], s["start"], s["stop"], s["steps"])

    @property
    def modulation(self) -> Modulation:
        return _MODULATIONS[self.sections["simulation"]["modulation"]]

    @property
    def samples(self) -> int:
        return self.sections["simulation"]["samples"]

    @property
    def seed(self) -> int:
        return self.sections["simulation"]["seed"]

    @property
    def rho(self) -> float:
        return self.sections["simulation"]["rho"]

    def replaced(self, section: str, **updates) -> "ScenarioConfig":
        sections = {name: dict(vals) for name, vals in self.sections.items()}
        sections.setdefault(section, {}).update(updates)
        return ScenarioConfig(sections)

    def with_sweep_value(self, value: float) -> "ScenarioConfig":
        sweep = self.sweep
        if sweep is None:
            raise ConfigError("configuration has no [sweep] section")
        axis = sweep.axis
        if axis == "transmit_snr_db":
            return self.replaced("simulation", transmit_snr_db=float(value))
        if axis == "length_m":
            out = self.replaced("fso", length_m=float(value))
            out = out.replaced("thz", length_m=float(value))
            return out.replaced("access", length_m=float(value))
        if axis == "beamwidth_m":
            out = self.replaced("fso", beamwidth_m=float(value))
            return out.replaced("thz", beamwidth_m=float(value))
        if axis == "jitter_std_m":
            out = self.replaced("fso", jitter_std_m=float(value))
            return out.replaced("thz", jitter_std_m=float(value))
        if axis == "epsilon_db":
            base = self.sections["switching"]["gamma_th_db"]
            return self.replaced("switching", mode="soft",
                                 gamma_f_th_u_db=base + float(value),
                                 gamma_f_th_l_db=base - float(value))
        if axis == "n_antennas":
            out = self.replaced("thz", n_rx=int(round(value)))
            return out.replaced("access", n_tx=int(round(value)))
        raise ConfigError(f"unknown sweep axis {axis!r}")

    def system_spec(self, transmit_snr_db: Optional[float] = None) -> SystemSpec:
        return build_system_spec(self, transmit_snr_db)


def _coerce(section: str, key: str, raw: str):
    typ, _ = _SCHEMA[section][key]
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc


def parse_config(text: str) -> ScenarioConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    sections = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        known = _SCHEMA[section]
        values = {}
        for key, raw in parser[section].items():
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[key] = _coerce(section, key, raw)
        sections[section] = values
    for section, keys in _SCHEMA.items():
        if section == "sweep" and section not in sections:
            continue
        if section not in sections:
            raise ConfigError(f"missing section [{section}]")
        for key, (_, required) in keys.items():
            if required and key not in sections[section]:
                raise ConfigError(f"missing key {key!r} in section [{section}]")
    cfg = ScenarioConfig(sections)
    _validate_semantics(cfg)
    return cfg


def _validate_semantics(cfg: ScenarioConfig) -> None:
    sw = cfg.sections["switching"]
    if sw["mode"] not in ("hard", "soft"):
        raise ConfigError(f"[switching] mode must be hard or soft, got {sw['mode']!r}")
    if sw["mode"] == "soft":
        for key in ("gamma_f_th_u_db", "gamma_f_th_l_db", "gamma_t_th_db"):
            if key not in sw:
                raise ConfigError(f"soft switching requires key {key!r}")
    sim = cfg.sections["simulation"]
    if sim["modulation"] not in _MODULATIONS:
        raise ConfigError(
            f"unknown modulation {sim['modulation']!r}; choose one of "
            f"{sorted(_MODULATIONS)}")
    if not 0.0 <= sim["rho"] < 1.0:
        raise ConfigError(f"rho must lie in [0, 1), got {sim['rho']}")
    if "sweep" in cfg.sections:
        axis = cfg.sections["sweep"]["axis"]
        if axis not in SWEEP_AXES:
            raise ConfigError(
                f"unknown sweep axis {axis!r}; choose one of {SWEEP_AXES}")
        if cfg.sections["sweep"]["steps"] < 2:
            raise ConfigError("sweep steps must be >= 2")


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def serialize_config(cfg: ScenarioConfig) -> str:
    out = io.StringIO()
    for section in cfg.sections:
        out.write(f"[{section}]\n")
        for key, value in cfg.sections[section].items():
            out.write(f"{key} = {value}\n")
        out.write("\n")
    return out.getvalue()


def _section_key(cfg: ScenarioConfig, section: str) -> tuple:
    """The values of one section in schema order, None for an absent key."""
    values = cfg.sections[section]
    return tuple(values.get(key) for key in _SCHEMA[section])


# No link spec or policy depends on the transmit SNR, so each distinct
# section is built once and the points of a sweep, which differ only in the
# SNR, share its instance and the constants it derived when it was made.

@functools.lru_cache(maxsize=256)
def _fso_link(key: tuple) -> FsoLinkSpec:
    f = dict(zip(_SCHEMA["fso"], key))
    return FsoLinkSpec(
        wavelength_m=f["wavelength_m"], length_m=f["length_m"],
        visibility_km=f["visibility_km"], cn2=f["cn2"],
        detection_tau=f["detection_tau"], eta=f["eta"],
        pointing=PointingGeometry(f["aperture_radius_m"], f["beamwidth_m"],
                                  f["jitter_std_m"]))


@functools.lru_cache(maxsize=256)
def _thz_link(key: tuple) -> ThzLinkSpec:
    t = dict(zip(_SCHEMA["thz"], key))
    env = ThzEnvironment(
        temperature_k=t["temperature_k"], pressure_pa=t["pressure_pa"],
        relative_humidity_pct=t["relative_humidity_pct"],
        frequency_hz=t["frequency_hz"], distance_m=t["length_m"],
        tx_gain_dbi=t["tx_gain_dbi"], rx_gain_dbi=t["rx_gain_dbi"])
    radius = t["aperture_radius_m"]
    if radius is None:
        radius = default_rx_radius_m(t["frequency_hz"], t["tx_gain_dbi"])
    return ThzLinkSpec(
        env=env, alpha=t["alpha"], mu=t["mu"], n_rx=t["n_rx"],
        omega=t["omega"],
        pointing=PointingGeometry(radius, t["beamwidth_m"], t["jitter_std_m"]))


@functools.lru_cache(maxsize=256)
def _access_link(key: tuple) -> AccessLinkSpec:
    return AccessLinkSpec(**dict(zip(_SCHEMA["access"], key)))


@functools.lru_cache(maxsize=256)
def _switching(key: tuple) -> tuple:
    """(policy, linear access threshold gamma_r_th) of a switching section."""
    sw = dict(zip(_SCHEMA["switching"], key))
    if sw["mode"] == "hard":
        policy = HardPolicy(10.0 ** (sw["gamma_th_db"] / 10.0))
    else:
        policy = SoftPolicy(10.0 ** (sw["gamma_f_th_u_db"] / 10.0),
                            10.0 ** (sw["gamma_f_th_l_db"] / 10.0),
                            10.0 ** (sw["gamma_t_th_db"] / 10.0))
    return policy, 10.0 ** (sw["gamma_r_th_db"] / 10.0)


def build_system_spec(cfg: ScenarioConfig,
                      transmit_snr_db: Optional[float] = None) -> SystemSpec:
    snr = (transmit_snr_db if transmit_snr_db is not None
           else cfg.sections["simulation"]["transmit_snr_db"])
    fso = _fso_link(_section_key(cfg, "fso"))
    thz = _thz_link(_section_key(cfg, "thz"))
    access = _access_link(_section_key(cfg, "access"))
    policy, gamma_r_th = _switching(_section_key(cfg, "switching"))
    return SystemSpec(fso=fso, thz=thz, access=access, policy=policy,
                      gamma_r_th=gamma_r_th, transmit_snr_db=snr)


def bundled_config_path(name: str) -> str:
    """Filesystem path of a configuration shipped with the package."""
    candidate = resources.files("fsothz").joinpath("configs", f"{name}.ini")
    if not candidate.is_file():
        raise ConfigError(f"no bundled config named {name!r}")
    return str(candidate)
