"""Output checks, run after the timed phase and apart from the code under test.

Property checks apply to every operation they can speak of; the oracles run
on a deterministic subset.  Each check returns ``{op index: [reason, ...]}``;
an operation with any reason counts as failed.

Tolerances:

- soft switching with eps = 0 against hard switching: 1e-12 relative;
- e2e outage against P_h + P_a - P_h P_a: 1e-12 relative;
- asymptotic over exact outage within 0.06 of 1 from 60 dB up;
- FSO CDF against the conditional Gamma-Gamma quadrature: 1e-6 relative;
- access CDF against ``scipy.special.gammainc``: 1e-10 relative;
- Meijer-G against ``mpmath.meijerg`` at 30 digits: 1e-6 relative
  (residue, reduction and contour routes) and 0.05 relative (the
  leading-term asymptotic route);
- Monte Carlo within 5 stderr of the closed form, where the estimate rests
  on at least 100 events and non-events (outage) or has a relative stderr
  of at most 0.05 (capacity, ABER).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import replace

from scipy import integrate, special

from fsothz import channel_fso
from fsothz import metrics_analytic as ma
from fsothz.specfun import FLAG_CONTOUR_REFINE_CAP
from fsothz.switching import HardPolicy, SoftPolicy

import tracing
import workloads

REL_IDENTITY = 1e-12
ASYM_FROM_DB = 60.0
ASYM_TOL = 0.06
REL_FSO_ORACLE = 1e-6
REL_ACCESS_ORACLE = 1e-10
REL_MEIJER = {"reduction": 1e-6, "residue": 1e-6, "contour": 1e-6,
              "contour_fallback": 1e-6, "asymptotic": 0.05}
MEIJER_SAMPLES_PER_ROUTE = 1
IDENTITY_EVERY = 4
MC_Z = 5.0
MC_MIN_EVENTS = 100
MC_MAX_REL_SE = 0.05


def _close(a: float, b: float, rel: float, floor: float = 1e-300) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), floor)


def _modulation(job) -> ma.Modulation:
    return job.modulation if job.modulation is not None else job.config.modulation


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def fso_cdf_oracle(gamma: float, fso, snr_db: float) -> float:
    """P(gamma_F <= gamma) conditioned on the Gamma-Gamma scintillation.

    With I = Ia Ip and the Rayleigh pointing CDF P(Ip <= y) = (y/A0)^xi^2
    for y <= A0 (Farid & Hranilovic, 2007):
    F = F_Ia(c) + int_c^inf f_Ia(a) (c/a)^xi^2 da,  c = (gamma/delta)^(1/tau)/A0,
    with the unit-mean Gamma-Gamma density written through K_nu.  Both
    integrals run over u = ln(a).
    """
    tau = fso.detection_tau
    al, be = fso.alpha_f, fso.beta_f
    xi2 = fso.pointing.xi ** 2
    log_c = (math.log(gamma / fso.delta_tau(snr_db)) / tau
             - math.log(fso.pointing.a0))
    log_norm = (math.log(2.0) + 0.5 * (al + be) * math.log(al * be)
                - math.lgamma(al) - math.lgamma(be))

    def density(u: float) -> float:          # f_Ia(e^u) e^u
        if u > 100.0:
            return 0.0
        z = 2.0 * math.sqrt(al * be) * math.exp(0.5 * u)
        k = special.kve(al - be, z)
        if z > 1e4 or k <= 0.0:
            return 0.0
        return math.exp(log_norm + 0.5 * (al + be) * u + math.log(k) - z)

    opts = dict(limit=400, epsabs=0.0, epsrel=1e-11)
    head, _ = integrate.quad(density, -math.inf, log_c, **opts)
    tail, _ = integrate.quad(
        lambda u: density(u) * math.exp(-xi2 * (u - log_c)),
        log_c, math.inf, **opts)
    return head + tail


def access_cdf_oracle(gamma: float, access, snr_db: float) -> float:
    return float(special.gammainc(access.shape, access.rate(snr_db) * gamma))


def _thresholds(policy):
    if isinstance(policy, HardPolicy):
        return policy.gamma_th, policy.gamma_th
    return policy.gamma_f_th_u, policy.gamma_f_th_l


def oracle_reasons(spec, rows) -> list:
    """FSO and access CDFs of one point against the independent oracles."""
    snr = spec.transmit_snr_db
    upper, lower = _thresholds(spec.policy)
    reasons = []
    oracle = {}
    for th in {upper, lower}:
        want = fso_cdf_oracle(th, spec.fso, snr)
        got = channel_fso.fso_snr_cdf(th, spec.fso, snr).value
        oracle[th] = want
        if not _close(got, want, REL_FSO_ORACLE, 1e-15):
            reasons.append(f"fso_snr_cdf({th:.4g}) = {got:.10g}, "
                           f"conditional quadrature {want:.10g}")
    p_low, p_up = oracle[lower], oracle[upper]
    if upper == lower:
        fso_off = p_up
    else:
        fso_off = p_low + (p_up - p_low) * p_low / (p_low + 1.0 - p_up)
    access = access_cdf_oracle(spec.gamma_r_th, spec.access, snr)
    for row in rows:
        if row.method != "analytical" or not row.metric.startswith("outage:"):
            continue
        link = row.metric.split(":")[1]
        want, rel = {"fso": (fso_off, REL_FSO_ORACLE),
                     "access": (access, REL_ACCESS_ORACLE)}.get(link, (None, 0))
        if want is not None and not _close(row.value, want, rel, 1e-15):
            reasons.append(f"{row.metric} = {row.value:.10g}, oracle {want:.10g}")
    return reasons


def sampled(spec, result) -> bool:
    """Whether a Meijer-G call enters the mpmath sample.

    Left out are values the engine itself flags as unconverged
    (``contour-refine-cap``; the ABER lower-tail series integrates instead
    when it gets one), and calls with p = q and z > 1, or p >= q - 2 and
    z > 1e3, where the hypergeometric series of ``mpmath.meijerg`` do not
    converge at an affordable precision (over a minute, then an error, on
    the THz capacity identity G^{8,2}_{6,8} at z ~ 4e4).
    """
    if FLAG_CONTOUR_REFINE_CAP in result.flags:
        return False
    if spec.z > 1.0 and spec.p == spec.q:
        return False
    return not (spec.z > 1e3 and spec.p >= spec.q - 2)


def meijer_reasons(samples: dict) -> list:
    """Recorded Meijer-G values against mpmath.meijerg at 30 digits."""
    import mpmath

    reasons = []
    with mpmath.workdps(30):
        for route, calls in samples.items():
            for spec, value in calls:
                want = float(mpmath.meijerg(
                    [list(spec.a_front), list(spec.a_back)],
                    [list(spec.b_front), list(spec.b_back)], spec.z))
                if not _close(value, want, REL_MEIJER[route], 1e-300):
                    reasons.append(
                        f"meijer_g[{route}] z={spec.z:.6g}: {value:.12g}, "
                        f"mpmath {want:.12g}")
    return reasons


# ---------------------------------------------------------------------------
# analytic points
# ---------------------------------------------------------------------------

def _row_range(job, row) -> str:
    v = row.value
    if not math.isfinite(v):
        return f"{row.metric} is {v}"
    if row.method != "analytical":
        return ""
    if job.command == "outage" and not 0.0 <= v <= 1.0:
        return f"{row.metric} = {v:.6g} outside [0, 1]"
    if job.command == "capacity" and v < 0.0:
        return f"{row.metric} = {v:.6g} below 0"
    if job.command == "aber":
        mod = _modulation(job)
        bound = mod.a * mod.n0
        if not 0.0 <= v <= bound:
            return f"{row.metric} = {v:.6g} outside [0, A*n0 = {bound:g}]"
    return ""


def _point_properties(op, result) -> list:
    reasons = []
    rows = result.rows
    for row in rows:
        msg = _row_range(op.job, row)
        if msg:
            reasons.append(msg)
    exact = {r.metric: r.value for r in rows if r.method == "analytical"}
    if op.snr_db >= ASYM_FROM_DB:
        for row in rows:
            ex = exact.get(row.metric, 0.0)
            if row.method == "asymptotic" and ex > 0.0:
                if abs(row.value / ex - 1.0) > ASYM_TOL:
                    reasons.append(f"{row.metric}: asymptotic/exact = "
                                   f"{row.value / ex:.6g} at {op.snr_db:.2f} dB")
    if op.job.command == "outage":
        suffix = f":{op.job.label}" if op.job.label else ""
        h, a, e = (exact.get(f"outage:{link}{suffix}")
                   for link in ("hybrid", "access", "e2e"))
        if None not in (h, a, e) and not _close(e, h + a - h * a, REL_IDENTITY):
            reasons.append(f"e2e outage {e:.17g} != P_h + P_a - P_h P_a "
                           f"= {h + a - h * a:.17g}")
    return reasons


def _monotone(ops, results) -> dict:
    """Outage must not increase with SNR along each job of a round."""
    failed = defaultdict(list)
    by_job = defaultdict(list)
    for i, op in enumerate(ops):
        if op.job.command == "outage" and i in results:
            by_job[id(op.job)].append(i)
    for indices in by_job.values():
        indices.sort(key=lambda i: ops[i].snr_db)
        for prev, cur in zip(indices, indices[1:]):
            before = {r.metric: r.value for r in results[prev].rows
                      if r.method == "analytical"}
            for row in results[cur].rows:
                old = before.get(row.metric)
                if (row.method == "analytical" and old is not None
                        and row.value > old * (1.0 + 1e-9) + 1e-300):
                    failed[cur].append(
                        f"{row.metric} rises from {old:.6g} at "
                        f"{ops[prev].snr_db:.3f} dB to {row.value:.6g}")
    return failed


def _hard_soft_identity(op, result) -> list:
    """The same point under SoftPolicy(g, g, g) gives the same rows."""
    g = result.spec.policy.gamma_th
    soft = replace(result.spec, policy=SoftPolicy(g, g, g))
    reasons = []
    for hard_row, soft_row in zip(result.rows,
                                  workloads.point_rows(op.job, soft)):
        if not _close(hard_row.value, soft_row.value, REL_IDENTITY):
            reasons.append(f"{hard_row.metric} ({hard_row.method}): hard "
                           f"{hard_row.value:.17g}, soft eps=0 "
                           f"{soft_row.value:.17g}")
    return reasons


def reference_reasons(workload) -> dict:
    """Meijer-G calls of every job at the workload's reference SNR, checked.

    The sample is the first call of each route that each job makes at a
    fixed SNR, so it does not depend on the seed; its verdict is computed
    once per run and applies to the job's oracle point in every round.
    Returns {id(job): [reason, ...]}.
    """
    if getattr(workload, "reference", None) is None:
        workload.reference = {}
        for job in workload.point_jobs():
            recorder = tracing.Tracer(record_meijer=MEIJER_SAMPLES_PER_ROUTE,
                                      record_if=sampled)
            tracing.install(recorder)
            try:
                workloads.run_point(job, workload.REFERENCE_DB)
            finally:
                recorder.restore()
            workload.reference[id(job)] = [
                f"at {workload.REFERENCE_DB:g} dB: {reason}"
                for reason in meijer_reasons(recorder.meijer_samples)]
    return workload.reference


def check_points(workload, ops, results) -> dict:
    """All checks of one round of analytic points.

    ``results`` maps op index to PointResult for the ops that returned.
    The oracle point of a job is its highest-SNR point of the round: it
    gets the FSO and access CDF oracles and carries the verdict of the
    job's Meijer-G sample.  The eps = 0 identity, which evaluates a point
    a second time, runs on the oracle points and on every fourth point of
    the round.
    """
    failed = defaultdict(list)
    for i, result in results.items():
        failed[i].extend(_point_properties(ops[i], result))
    for i, reasons in _monotone(ops, results).items():
        failed[i].extend(reasons)

    top = {}
    for i, op in enumerate(ops):
        if i in results and (id(op.job) not in top
                             or op.snr_db > ops[top[id(op.job)]].snr_db):
            top[id(op.job)] = i
    oracle_points = set(top.values())
    for i, result in results.items():
        if isinstance(result.spec.policy, HardPolicy) and (
                i in oracle_points or i % IDENTITY_EVERY == 0):
            failed[i].extend(_hard_soft_identity(ops[i], result))

    reference = reference_reasons(workload)
    for job_id, i in top.items():
        failed[i].extend(oracle_reasons(results[i].spec, results[i].rows))
        failed[i].extend(reference.get(job_id, []))
    return {i: r for i, r in failed.items() if r}


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def _closed_form(metric: str, spec, link: str) -> float:
    if metric == "outage":
        return ma.outage_link(spec, link).value
    if metric == "capacity":
        return ma.capacity_link(spec, link).value
    return ma.aber_link(spec, ma.Modulation.bpsk(), link).value


def _estimate_reasons(op, est) -> list:
    p = op.params
    reasons = []
    value, se = est.value, est.stderr
    if not (math.isfinite(value) and math.isfinite(se) and se >= 0.0):
        return [f"estimate {value} +- {se} is not finite"]
    bpsk = ma.Modulation.bpsk()
    upper = {"outage": 1.0, "aber": bpsk.a * bpsk.n0}.get(p["metric"], math.inf)
    if not 0.0 <= value <= upper:
        reasons.append(f"estimate {value:.6g} outside [0, {upper:g}]")
    if p["metric"] == "outage":
        events = value * est.n_samples
        enough = min(events, est.n_samples - events) >= MC_MIN_EVENTS
    else:
        enough = value > 0.0 and se <= MC_MAX_REL_SE * value
    if enough:
        ana = _closed_form(p["metric"], p["spec"], p["link"])
        if abs(value - ana) > MC_Z * se:
            reasons.append(f"estimate {value:.6g} +- {se:.3g} is "
                           f"{abs(value - ana) / se:.1f} stderr from the "
                           f"closed form {ana:.6g}")
    return reasons


def check_mc(ops, results) -> dict:
    """Checks of one round of estimator and trace calls.

    The first call of each estimator metric and of each trace rho is
    repeated with the same seed and must be bit-identical.
    """
    failed = defaultdict(list)
    repeat = {}
    for i, op in enumerate(ops):
        key = op.params.get("metric", op.params.get("rho"))
        repeat.setdefault((op.kind, key), i)
    for i, result in results.items():
        op = ops[i]
        if op.kind == "estimator":
            failed[i].extend(_estimate_reasons(op, result))
        else:
            counts = (result.soft.link_switches, result.soft.outage_transitions,
                      result.hard.link_switches, result.hard.outage_transitions)
            if min(counts) < 0:
                failed[i].append(f"negative switch count in {counts}")
            if op.params["rho"] == 0.9 and result.soft.total > result.hard.total:
                failed[i].append(f"soft switches {result.soft.total} exceed "
                                 f"hard {result.hard.total} at rho = 0.9")
    for i in repeat.values():
        if i in results and ops[i].run() != results[i]:
            failed[i].append("repeat with the same seed is not bit-identical")
    return {i: r for i, r in failed.items() if r}


def check_round(workload, ops, results) -> dict:
    if isinstance(workload, workloads.McEstimators):
        return check_mc(ops, results)
    return check_points(workload, ops, results)
