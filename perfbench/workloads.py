"""The benchmark's three workloads: inputs drawn from the seed, and the ops.

An operation of an analytic workload is one sweep point of one figure job:
every analytic row (``analytical`` and ``asymptotic`` methods) that
``fsothz figure`` would write for that point, computed through
``ScenarioConfig.system_spec`` and the ``metrics_analytic`` functions the
CLI calls.  An operation of ``mc_estimators`` is one estimator call or one
paired soft/hard switching trace.

A run repeats rounds.  Round ``r`` of seed ``s`` draws its sweep values and
Monte Carlo seeds from ``numpy.random.default_rng((s, r))``, so no point
repeats within a run, and every round holds the same operation kinds in the
same numbers: the share of failed operations is fixed by the workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from fsothz import config as cfgmod
from fsothz import figures
from fsothz import metrics_analytic as ma
from fsothz import monte_carlo as mc
from fsothz import switching

WORKLOADS = ("high_snr_sweep", "low_snr_sweep", "mc_estimators")


@dataclass
class Op:
    """One timed operation and what the checks need to know about it."""

    kind: str                 # "point", "estimator" or "trace"
    label: str                # e.g. "fig12/soft_mod_b@6.123dB"
    run: Callable[[], Any]
    job: Any = None           # FigureJob of a point
    snr_db: float = math.nan
    params: dict = field(default_factory=dict)
    known_fault: bool = False  # fails every time, from a fault in fsothz


# ---------------------------------------------------------------------------
# analytic points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Row:
    metric: str
    method: str
    value: float
    flags: frozenset


@dataclass(frozen=True)
class PointResult:
    spec: Any
    rows: tuple


def point_rows(job, spec) -> tuple:
    """The analytic rows ``fsothz figure`` writes for one job at one spec."""
    mod = job.modulation if job.modulation is not None else job.config.modulation
    rows = []
    for link in job.links:
        name = f"{job.command}:{link}" + (f":{job.label}" if job.label else "")
        if job.command == "outage":
            res = ma.outage_link(spec, link)
        elif job.command == "capacity":
            res = ma.capacity_link(spec, link)
        else:
            res = ma.aber_link(spec, mod, link)
        rows.append(Row(name, "analytical", float(res.value), res.flags))
        if "asymptotic" in job.methods and job.command == "outage":
            rows.append(Row(name, "asymptotic",
                            float(ma.asymptotic_outage(spec, link)),
                            frozenset()))
    return tuple(rows)


def run_point(job, snr_db: float) -> PointResult:
    spec = job.config.with_sweep_value(snr_db).system_spec()
    return PointResult(spec, point_rows(job, spec))


def _point_op(fig_id: str, job, snr_db: float) -> Op:
    return Op("point", f"{fig_id}/{job.label or 'all'}@{snr_db:.3f}dB",
              lambda: run_point(job, snr_db), job=job, snr_db=snr_db)


def _stratified(rng, lo: float, hi: float, cells: int) -> np.ndarray:
    """One uniform draw in each of ``cells`` equal cells of [lo, hi]."""
    width = (hi - lo) / cells
    return lo + (np.arange(cells) + rng.random(cells)) * width


def _figure_jobs(fig_id: str) -> list:
    jobs = figures.figure_jobs(fig_id)
    for job in jobs:
        sweep = job.config.sweep
        if sweep is None or sweep.axis != "transmit_snr_db" or job.capacity_variant:
            raise ValueError(f"{fig_id}/{job.label}: not a transmit-SNR sweep")
    return jobs


class HighSnrSweep:
    """Closed-form regime: eight figure bundles from 20 to 70 dB.

    Each round draws one transmit SNR in each of a figure's equal cells of
    [20, 70] dB, on grids finer than the presets' 5 dB; the jobs of a
    figure share the figure's values, as the jobs of one ``fsothz figure``
    bundle share its sweep grid.  The outage figures get 32 cells and the
    ABER and capacity figures 11, so that the median operation falls inside
    the large block of sub-millisecond outage points rather than at the
    edge between two kinds of point, where its cost would depend on the seed.
    """

    CELLS = {"fig5": 32, "fig6a": 32, "fig6b": 32, "fig7": 32, "fig8": 32,
             "fig12": 11, "fig13": 11, "fig14b": 11}
    RANGE_DB = (20.0, 70.0)
    REFERENCE_DB = 45.0

    def __init__(self, smoke: bool = False):
        self.cells = {f: 2 if smoke else n for f, n in self.CELLS.items()}
        self.jobs = [(f, job) for f in self.CELLS for job in _figure_jobs(f)]

    def point_jobs(self) -> list:
        return [job for _, job in self.jobs]

    def warm_up(self) -> None:
        for job in self.point_jobs():
            run_point(job, self.REFERENCE_DB)

    def round_ops(self, seed: int, index: int) -> list:
        rng = np.random.default_rng((seed, index))
        snrs = {f: _stratified(rng, *self.RANGE_DB, cells)
                for f, cells in self.cells.items()}
        return [_point_op(f, job, float(v))
                for f, job in self.jobs for v in snrs[f]]


class LowSnrSweep:
    """Lower-tail escalation regime: ABER and capacity points at 1-12 dB.

    Every job gets four points, at the centres of four equal cells of its
    range, each moved by a uniform draw within +-0.05 dB.  Here the cost of
    a point falls by about half per dB, so a draw over the whole cell would
    make the cost of a run depend on the seed; the small draw only keeps
    points distinct across seeds and rounds.  The range starts where one
    point costs about a second on a 2-core box, so a round takes 30 to 45 s:
    the hard strong-turbulence jobs from 1 dB, the other fig12 and fig14b
    jobs from 5 dB and the fig13 modulations from 8 dB.  The fig12
    ``soft_mod_b`` point at 0 dB is in every round; its hybrid ABER exceeds
    its bound, so it counts as failed.
    """

    JOBS = (("fig12", "hard_str_a", 1.0), ("fig12", "soft_str_a", 5.0),
            ("fig12", "hard_mod_b", 5.0), ("fig12", "soft_mod_b", 5.0),
            ("fig14b", "str_a", 1.0), ("fig14b", "mod_b", 5.0),
            ("fig14b", "m2nt2", 5.0), ("fig14b", "m2nt3", 5.0),
            ("fig14b", "m3nt5", 5.0),
            ("fig13", "bpsk", 8.0), ("fig13", "16qam", 8.0))
    TOP_DB = REFERENCE_DB = 12.0
    JITTER_DB = 0.05
    FAILING = ("fig12", "soft_mod_b", 0.0)

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.cells = 4
        by_key = {(f, job.label): job
                  for f in ("fig12", "fig14b", "fig13")
                  for job in _figure_jobs(f)}
        self.jobs = [(f, by_key[(f, label)], lo) for f, label, lo in self.JOBS]
        self.failing_job = by_key[self.FAILING[:2]]

    def point_jobs(self) -> list:
        return [job for _, job, _ in self.jobs]

    def warm_up(self) -> None:
        for f, label in (("fig12", "hard_str_a"), ("fig14b", "str_a")):
            job = next(j for g, j, _ in self.jobs if (g, j.label) == (f, label))
            run_point(job, self.TOP_DB)

    def round_ops(self, seed: int, index: int) -> list:
        rng = np.random.default_rng((seed, index))
        ops = []
        for f, job, lo in self.jobs:
            width = (self.TOP_DB - lo) / self.cells
            centres = self.TOP_DB - width * (np.arange(self.cells) + 0.5)
            values = centres + rng.uniform(-self.JITTER_DB, self.JITTER_DB,
                                           self.cells)
            if self.smoke:
                values = values[:1]
            ops.extend(_point_op(f, job, float(v)) for v in values)
        if not self.smoke:
            failing = _point_op(self.FAILING[0], self.failing_job,
                                self.FAILING[2])
            failing.known_fault = True
            ops.append(failing)
        return ops


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

# looked up at call time, so that a traced run calls the wrapped functions
ESTIMATORS = {
    "outage": lambda spec, n, seed, link: mc.estimate_outage(spec, n, seed, link),
    "capacity": lambda spec, n, seed, link: mc.estimate_capacity(spec, n, seed, link),
    "aber": lambda spec, n, seed, link: mc.estimate_aber(
        spec, ma.Modulation.bpsk(), n, seed, link),
}
LINKS = ("fso", "thz", "hybrid", "access", "e2e")


@dataclass(frozen=True)
class TraceResult:
    soft: switching.SwitchCounts
    hard: switching.SwitchCounts


def run_trace(spec, soft, hard, n_slots: int, rho: float, seed: int) -> TraceResult:
    """Paired soft/hard switch counts on one draw, as ``fsothz run trace``."""
    gf, gt = mc.sample_trace_snrs(spec, n_slots, rho, seed)
    counts = [switching.count_switch_events(
        switching.evaluate_soft_trace(gf, gt, pol)) for pol in (soft, hard)]
    return TraceResult(*counts)


class McEstimators:
    """Samplers, block loops and the hysteresis trace; no closed form runs.

    A round holds the 30 estimator calls (outage, capacity and BPSK ABER;
    hard and soft policy; five links) of the strong-turbulence case (a)
    scenario at 1.5e5 draws, each at its own transmit SNR in [20, 40] dB,
    and 24 paired soft/hard traces of 8e4 slots on the pointing-stressed
    geometry of the beamwidth study: 12 at rho = 0 and 12 at rho = 0.9.
    Sorted by cost, the rho = 0 traces hold the median and the rho = 0.9
    traces the tail, so neither falls between two kinds of operation.
    """

    RANGE_DB = (20.0, 40.0)
    TRACE_EPS_DB = 2.0

    def __init__(self, smoke: bool = False):
        self.n = mc.MIN_SAMPLES if smoke else 150_000
        self.n_slots = mc.MIN_SAMPLES if smoke else 80_000
        self.traces = ((0.0, 1), (0.9, 1)) if smoke else ((0.0, 12), (0.9, 12))
        fig5 = {job.label: job.config for job in figures.figure_jobs("fig5")}
        self.configs = {"hard": fig5["hard_str_a"], "soft": fig5["soft_str_a"]}
        base = (cfgmod.load_config(cfgmod.bundled_config_path("fig10"))
                .replaced("fso", jitter_std_m=0.2)
                .replaced("thz", jitter_std_m=0.2))
        th_db = base.sections["switching"]["gamma_th_db"]
        self.trace_config = base
        self.trace_soft = base.replaced(
            "switching", mode="soft",
            gamma_f_th_u_db=th_db + self.TRACE_EPS_DB,
            gamma_f_th_l_db=th_db - self.TRACE_EPS_DB,
            gamma_t_th_db=th_db).system_spec().policy
        self.trace_hard = base.system_spec().policy.as_soft()

    def warm_up(self) -> None:
        spec = self.configs["soft"].system_spec(30.0)
        for metric, fn in ESTIMATORS.items():
            fn(spec, mc.MIN_SAMPLES, 1, "e2e")
        spec = self.trace_config.system_spec(30.0)
        for rho in (0.0, 0.9):
            run_trace(spec, self.trace_soft, self.trace_hard, mc.MIN_SAMPLES,
                      rho, 1)

    def round_ops(self, seed: int, index: int) -> list:
        rng = np.random.default_rng((seed, index))
        ops = []
        for metric, fn in ESTIMATORS.items():
            for policy, cfg in self.configs.items():
                for link in LINKS:
                    snr = float(rng.uniform(*self.RANGE_DB))
                    mc_seed = int(rng.integers(2 ** 31))
                    spec = cfg.system_spec(snr)
                    ops.append(Op(
                        "estimator",
                        f"{metric}/{policy}/{link}@{snr:.3f}dB",
                        (lambda fn=fn, spec=spec, s=mc_seed, link=link:
                         fn(spec, self.n, s, link)),
                        snr_db=snr,
                        params={"metric": metric, "link": link, "spec": spec}))
        for rho, count in self.traces:
            for _ in range(count):
                snr = float(rng.uniform(*self.RANGE_DB))
                mc_seed = int(rng.integers(2 ** 31))
                spec = self.trace_config.system_spec(snr)
                ops.append(Op(
                    "trace", f"trace/rho{rho:g}@{snr:.3f}dB",
                    (lambda spec=spec, rho=rho, s=mc_seed:
                     run_trace(spec, self.trace_soft, self.trace_hard,
                               self.n_slots, rho, s)),
                    snr_db=snr, params={"rho": rho}))
        return ops


def make(name: str, smoke: bool = False):
    if name == "high_snr_sweep":
        return HighSnrSweep(smoke)
    if name == "low_snr_sweep":
        return LowSnrSweep(smoke)
    if name == "mc_estimators":
        return McEstimators(smoke)
    raise ValueError(f"unknown workload {name!r}; choose one of {WORKLOADS}")
