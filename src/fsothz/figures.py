"""Figure-reproduction presets: each id expands to sweep jobs over cases.

A job pins one scenario (config), one metric family, the links to emit and
the evaluation methods; the CLI turns jobs into CSV rows with the case label
folded into the metric name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import ScenarioConfig, load_config, bundled_config_path
from .errors import ConfigError
from .metrics_analytic import LINKS, Modulation

__all__ = ["FigureJob", "FIGURE_IDS", "figure_jobs"]

FIGURE_IDS = ("fig5", "fig6a", "fig6b", "fig7", "fig8", "fig9", "fig10",
              "fig11", "fig12", "fig13", "fig14a", "fig14b")


@dataclass(frozen=True)
class FigureJob:
    label: str
    config: ScenarioConfig
    command: str                      # outage | capacity | aber
    links: tuple
    methods: tuple
    modulation: Optional[Modulation] = None
    capacity_variant: str = ""        # "closed"/"integral" for fig14a
    sweep_values: tuple = ()          # overrides the config sweep if set


def _base(name: str) -> ScenarioConfig:
    return load_config(bundled_config_path(name))


def _hard(cfg: ScenarioConfig) -> ScenarioConfig:
    return cfg.replaced("switching", mode="hard")


def _cases_strong_moderate():
    strong_a = _base("fig6a")                       # strong turb., case (a)
    moderate_b = (_base("fig6a").replaced("fso", cn2=5e-13)
                  .replaced("thz", n_rx=3))         # moderate, case (b)
    return strong_a, moderate_b


def figure_jobs(fig_id: str) -> list:
    if fig_id not in FIGURE_IDS:
        raise ConfigError(f"unknown figure id {fig_id!r}; "
                          f"choose one of {FIGURE_IDS}")
    strong_a, moderate_b = _cases_strong_moderate()
    jobs = []

    if fig_id == "fig5":
        for label, cfg in (("str_a", strong_a), ("mod_b", moderate_b)):
            jobs.append(FigureJob(f"hard_{label}", _hard(cfg), "outage",
                                  ("hybrid",), ("analytical", "mc")))
            jobs.append(FigureJob(f"soft_{label}", cfg.soft(2.0), "outage",
                                  ("hybrid",), ("analytical", "mc")))

    elif fig_id == "fig6a":
        jobs.append(FigureJob("", strong_a, "outage", tuple(LINKS),
                              ("analytical", "asymptotic", "mc")))

    elif fig_id == "fig6b":
        cfg = moderate_b.replaced("access", m=3.0, n_tx=5)
        jobs.append(FigureJob("m3nt5", cfg, "outage", tuple(LINKS),
                              ("analytical", "asymptotic", "mc")))
        for m, nt in ((2.0, 3), (2.0, 2)):
            extra = moderate_b.replaced("access", m=m, n_tx=nt)
            jobs.append(FigureJob(f"m{m:g}nt{nt}", extra, "outage",
                                  ("access",), ("analytical",)))

    elif fig_id == "fig7":
        # uplink: the MU is the source, with ~20 dB less available power;
        # same math, shifted sweep range.
        sweep = tuple(np.linspace(0.0, 40.0, 15))
        for label, cfg in (("str_a", strong_a), ("mod_b", moderate_b)):
            jobs.append(FigureJob(f"uplink_{label}", cfg, "outage", tuple(LINKS),
                                  ("analytical",), sweep_values=sweep))

    elif fig_id == "fig8":
        strong = strong_a
        moderate = strong_a.replaced("fso", cn2=5e-13)
        cases = (("c1", strong, 2, 2), ("c2", strong, 2, 3),
                 ("c3", moderate, 3, 2), ("c4", moderate, 3, 3))
        for label, cfg, mu, n_rx in cases:
            cfg = cfg.replaced("thz", mu=float(mu), n_rx=n_rx)
            for tau in (1, 2):
                det = cfg.replaced("fso", detection_tau=tau)
                jobs.append(FigureJob(f"{label}_tau{tau}", det, "outage",
                                      ("hybrid",), ("analytical",)))

    elif fig_id == "fig9":
        base = (strong_a.replaced("thz", mu=2.0, n_rx=3)
                .replaced("simulation", transmit_snr_db=30.0))
        sweep = tuple(np.linspace(50.0, 500.0, 10))
        for m, nt in ((2.0, 3), (3.0, 6)):
            cfg = base.replaced("access", m=m, n_tx=nt).replaced(
                "sweep", axis="length_m", start=50.0, stop=500.0, steps=10)
            jobs.append(FigureJob(f"m{m:g}nt{nt}", cfg, "outage", tuple(LINKS),
                                  ("analytical",), sweep_values=sweep))

    elif fig_id == "fig10":
        base = _base("fig10")
        for sj in (0.10, 0.15, 0.20, 0.25):
            cfg = (base.replaced("fso", jitter_std_m=sj)
                   .replaced("thz", jitter_std_m=sj))
            jobs.append(FigureJob(f"jitter{sj:g}", cfg, "outage",
                                  ("hybrid",), ("analytical",)))

    elif fig_id == "fig11":
        jobs.append(FigureJob("", _base("fig11"), "outage",
                              ("fso", "thz", "hybrid"), ("analytical",)))

    elif fig_id == "fig12":
        for label, cfg in (("str_a", strong_a), ("mod_b", moderate_b)):
            jobs.append(FigureJob(f"hard_{label}", _hard(cfg), "aber",
                                  ("hybrid",), ("analytical", "mc"),
                                  modulation=Modulation.bpsk()))
            jobs.append(FigureJob(f"soft_{label}", cfg.soft(2.0), "aber",
                                  ("hybrid",), ("analytical", "mc"),
                                  modulation=Modulation.bpsk()))

    elif fig_id == "fig13":
        base = _base("fig13")
        mods = (Modulation.ook(), Modulation.bpsk(), Modulation.mpsk(4),
                Modulation.mqam(4), Modulation.mqam(16), Modulation.mqam(64),
                Modulation.mpsk(8), Modulation.mpsk(16))
        for mod in mods:
            cfg = base.replaced("fso", detection_tau=mod.tau)
            jobs.append(FigureJob(mod.name, cfg, "aber", ("e2e",),
                                  ("analytical",), modulation=mod))

    elif fig_id == "fig14a":
        cfg = moderate_b.replaced("sweep", start=0.0, stop=50.0, steps=11)
        for variant in ("closed", "integral"):
            jobs.append(FigureJob(variant, cfg, "capacity", ("fso", "thz"),
                                  ("analytical",), capacity_variant=variant))

    elif fig_id == "fig14b":
        for label, cfg in (("str_a", strong_a), ("mod_b", moderate_b)):
            jobs.append(FigureJob(label, cfg, "capacity", ("hybrid",),
                                  ("analytical",)))
        for m, nt in ((2.0, 2), (2.0, 3), (3.0, 5)):
            cfg = moderate_b.replaced("access", m=m, n_tx=nt)
            jobs.append(FigureJob(f"m{m:g}nt{nt}", cfg, "capacity",
                                  ("access", "e2e"), ("analytical",)))

    return jobs
