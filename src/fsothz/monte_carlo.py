"""Channel samplers, estimators and switching traces.

Every analytical quantity has an estimator here built from the exact channel
mechanisms (product-of-Gammas scintillation, branch-wise alpha-mu MRC sums,
Rayleigh misalignment), so agreement bounds both the closed forms and the
single-variate aggregation approximations they build on.  Estimates are computed in fixed-size blocks
with one RNG substream per block and combined in block order, which makes
them bit-identical for a given (seed, partitioning) regardless of execution
order or parallelism.

Substream layout: block ``i`` of ``BLOCK_SIZE`` slots draws from
``RngStream(seed, i)`` the FSO, then the THz, then the access SNRs, each
only if the requested link needs it.  Soft policies on the hybrid and e2e
links (and on the FSO link for outage) instead run the hysteresis trace over
``TRACE_BURN_IN`` + n slots, carry its memory bit across blocks, and discard
the first ``TRACE_BURN_IN`` slots; the e2e access SNRs of trace block ``i``
come from ``RngStream(seed, 1_000_000 + i)``.

Correlated traces (rho > 0) run one standard-normal AR(1) driver per random
factor, filtered exactly in Toeplitz blocks (``_ar1_filter``), and map each
driver to its marginal through a Gaussian copula.  The Rayleigh pointing
drivers go through ``ndtr`` clipped to [1e-16, 1 - 1e-16]; the Gamma
factors (alpha_F, beta_F and mu per THz branch) through a per-shape table of
the log-quantile against the normal score over the matching range
[ndtri(1e-16), ndtri(1 - 1e-16)], built once per shape by inverting the
lower incomplete gamma below z = 0 and the upper one above it, and read by
cubic Hermite interpolation with exact slopes on 2048 intervals.  Its
relative error is at most 1.4e-11 over shapes 0.2-2000 (1.4e-12 from shape
1 up, 5e-15 from 20 up), and the upper tail follows the exact quantile
where ndtr(z) rounds to 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .channel_access import AccessLinkSpec
from .channel_fso import FsoLinkSpec, PointingGeometry
from .channel_thz import ThzLinkSpec
from .errors import DomainError
from .metrics_analytic import Modulation, SystemSpec, _xi_factor
from .switching import (HardPolicy, SoftPolicy, SwitchState,
                        activation_threshold, evaluate_soft_trace)

__all__ = [
    "RngStream",
    "EstimateResult",
    "MIN_SAMPLES",
    "sample_fso_snr",
    "sample_thz_snr",
    "sample_access_snr",
    "estimate_outage",
    "estimate_capacity",
    "estimate_aber",
    "sample_trace_snrs",
]

MIN_SAMPLES = 10_000
BLOCK_SIZE = 1 << 20

LINKS = ("fso", "thz", "hybrid", "access", "e2e")

# Trace burn-in discarded before steady-state tallies.
TRACE_BURN_IN = 1000

# Copula drivers are clipped to the normal scores of 1e-16 and 1 - 1e-16;
# the Gamma quantile tables span that range in this many Hermite intervals.
Z_LO = float(sp.ndtri(1e-16))
Z_HI = float(sp.ndtri(1.0 - 1e-16))
QUANTILE_INTERVALS = 2048

# Slots per Toeplitz block of the AR(1) driver filter.
AR1_BLOCK = 64


@dataclass(frozen=True)
class RngStream:
    """Reproducible substream: identical (seed, index) -> identical samples."""

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence((self.master_seed, self.stream_index))
        return np.random.Generator(np.random.PCG64(seq))

    def child(self, offset: int) -> "RngStream":
        return RngStream(self.master_seed, self.stream_index + offset)


@dataclass(frozen=True)
class EstimateResult:
    """Point estimate with its 95% interval (Wilson for proportions)."""

    value: float
    stderr: float
    n_samples: int
    ci_lo: float
    ci_hi: float

    @property
    def ci95(self):
        return (self.ci_lo, self.ci_hi)

    def interval(self, z: float) -> tuple:
        """Symmetric z-sigma interval around the estimate."""
        return (self.value - z * self.stderr, self.value + z * self.stderr)


def _wilson(successes: int, n: int, z: float = 1.959963984540054) -> EstimateResult:
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    stderr = math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
    return EstimateResult(p, stderr, n, min(center - half, p), max(center + half, p))


def _mean_estimate(total: float, total_sq: float, n: int) -> EstimateResult:
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    stderr = math.sqrt(var / n)
    return EstimateResult(mean, stderr, n, mean - 1.959963984540054 * stderr,
                          mean + 1.959963984540054 * stderr)


def _check_args(n: int, link: str) -> None:
    if n < MIN_SAMPLES:
        raise DomainError(
            f"sample count {n} too small for a meaningful estimate; "
            f"need at least {MIN_SAMPLES}")
    if link not in LINKS:
        raise DomainError(f"unknown link {link!r}")


def _pointing_gain(pg: PointingGeometry, rng: np.random.Generator,
                   n: int) -> np.ndarray:
    r = rng.rayleigh(pg.jitter_std_m, n)
    return pg.a0 * np.exp(-2.0 * r * r / pg.w_leq_m ** 2)


def sample_fso_snr(spec: FsoLinkSpec, transmit_snr_db: float,
                   rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw FSO SNRs: Gamma-Gamma scintillation times Rayleigh misalignment."""
    ia = rng.gamma(spec.alpha_f, 1.0 / spec.alpha_f, n)
    ia *= rng.gamma(spec.beta_f, 1.0 / spec.beta_f, n)
    ip = _pointing_gain(spec.pointing, rng, n)
    return spec.delta_tau(transmit_snr_db) * (ia * ip) ** spec.detection_tau


def sample_thz_snr(spec: ThzLinkSpec, transmit_snr_db: float,
                   rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw THz MRC SNRs from the exact N_r-branch alpha-mu sum.

    Branch amplitudes are |h_f| = Omega (G/mu)^(1/alpha) with G ~ Gamma(mu),
    one shared misalignment gain per draw.
    """
    sumsq = np.zeros(n)
    for _ in range(spec.n_rx):
        g = rng.gamma(spec.mu, 1.0, n)
        sumsq += spec.omega ** 2 * (g / spec.mu) ** (2.0 / spec.alpha)
    hp = _pointing_gain(spec.pointing, rng, n)
    return spec.gamma_bar_t(transmit_snr_db) * hp * hp * sumsq


def sample_access_snr(spec: AccessLinkSpec, transmit_snr_db: float,
                      rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw access SNRs from the branch-wise Gamma MRT sum."""
    total = np.zeros(n)
    for _ in range(spec.n_tx):
        total += rng.gamma(spec.m, spec.omega_r / spec.m, n)
    p = 10.0 ** (transmit_snr_db / 10.0)
    return p * spec.p_l * total


def _conditional_error(gamma: np.ndarray, mod: Modulation) -> np.ndarray:
    err = np.zeros_like(gamma)
    for b in mod.b_list:
        err += sp.erfc(np.sqrt(b * gamma))
    return mod.a * err


def _iter_blocks(n: int):
    start = 0
    index = 0
    while start < n:
        size = min(BLOCK_SIZE, n - start)
        yield index, size
        start += size
        index += 1


def _ar1_filter(x: np.ndarray, rho: float, gain: float,
                initial: np.ndarray) -> np.ndarray:
    """Run y[:, t] = rho y[:, t-1] + gain x[:, t] along each row of ``x``.

    ``initial`` is the state before the first slot, y[:, -1].  The recursion
    is evaluated exactly in blocks of ``AR1_BLOCK`` slots: a block's response
    to its own inputs is one product with the lower-triangular Toeplitz
    matrix gain rho^(i-j), and the state entering it adds rho^(i+1) times the
    last value of the block before.  Those block-end values follow the same
    recursion with coefficient rho^AR1_BLOCK, solved by the same function.
    """
    rows, n = x.shape
    size = AR1_BLOCK
    blocks = -(-n // size)
    full = n // size
    lag = np.subtract.outer(np.arange(size), np.arange(size))
    toeplitz = np.where(lag >= 0, rho ** np.maximum(lag, 0), 0.0)
    # per block: the inputs in columns 0..size-1, the entering state last
    padded = np.zeros((rows, blocks, size + 1))
    padded[:, :full, :size] = x[:, :full * size].reshape(rows, full, size)
    if full < blocks:
        padded[:, full, :n - full * size] = x[:, full * size:]
    padded[:, 0, size] = initial
    if blocks > 1:
        ends = padded[:, :-1, :size] @ (gain * toeplitz[-1])
        padded[:, 1:, size] = _ar1_filter(ends, rho ** size, 1.0, initial)
    weights = np.vstack([gain * toeplitz.T, rho ** np.arange(1, size + 1)])
    return (padded @ weights).reshape(rows, blocks * size)[:, :n]


@functools.lru_cache(maxsize=64)
def _gamma_log_quantile_table(shape: float) -> np.ndarray:
    """Cubic Hermite coefficients of ln F^-1(ndtr(z)) for Gamma(shape, 1).

    Row k holds the degree-k coefficient of each of the ``QUANTILE_INTERVALS``
    uniform intervals of [Z_LO, Z_HI], in the local variable s in [0, 1).
    Nodes below z = 0 invert the lower regularized incomplete gamma and
    those above invert the upper one at ndtr(-z), so the upper tail keeps
    full relative accuracy where ndtr(z) rounds to 1.  Node slopes are exact:
    d ln x / dz = phi(z) Gamma(shape) / (x^shape e^-x).
    """
    z = np.linspace(Z_LO, Z_HI, QUANTILE_INTERVALS + 1)
    lower = z < 0.0
    x = np.empty_like(z)
    x[lower] = sp.gammaincinv(shape, sp.ndtr(z[lower]))
    x[~lower] = sp.gammainccinv(shape, sp.ndtr(-z[~lower]))
    y = np.log(x)
    step = (Z_HI - Z_LO) / QUANTILE_INTERVALS
    slope = step * np.exp(-0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
                          + sp.gammaln(shape) - shape * y + x)
    rise = np.diff(y)
    coef = np.stack([y[:-1], slope[:-1],
                     3.0 * rise - 2.0 * slope[:-1] - slope[1:],
                     slope[:-1] + slope[1:] - 2.0 * rise])
    coef.flags.writeable = False  # the cache hands one array to every caller
    return coef


def _gamma_quantile(shape: float, z: np.ndarray) -> np.ndarray:
    """Gamma(shape, 1) quantile at normal scores ``z``, clipped to the table."""
    coef = _gamma_log_quantile_table(shape)
    t = (np.clip(z, Z_LO, Z_HI) - Z_LO) * (QUANTILE_INTERVALS / (Z_HI - Z_LO))
    i = np.minimum(t.astype(np.intp), QUANTILE_INTERVALS - 1)
    s = t - i
    y = coef[3][i]
    for k in (2, 1, 0):
        y *= s
        y += coef[k][i]
    return np.exp(y, out=y)


def _snr_chunk_iter(spec: SystemSpec, n: int, rho: float, stream: RngStream):
    """Per-slot (gamma_F, gamma_T) chunks, i.i.d. or AR(1)-correlated."""
    if rho == 0.0:
        for index, size in _iter_blocks(n):
            rng = stream.child(index).generator()
            gf = sample_fso_snr(spec.fso, spec.transmit_snr_db, rng, size)
            gt = sample_thz_snr(spec.thz, spec.transmit_snr_db, rng, size)
            yield gf, gt
        return
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"correlation rho must lie in [0, 1), got {rho}")
    # Gaussian-copula AR(1): one standard-normal driver per random factor,
    # inverse-CDF to the target marginal, single sequential RNG.
    rng = stream.generator()
    n_drivers = 3 + spec.thz.n_rx + 1
    z_prev = rng.standard_normal(n_drivers)
    scale = math.sqrt(1.0 - rho * rho)
    fso, thz = spec.fso, spec.thz
    for _, size in _iter_blocks(n):
        z = _ar1_filter(rng.standard_normal((n_drivers, size)), rho, scale,
                        z_prev)
        z_prev = z[:, -1].copy()
        # the Rayleigh pointing drivers; the Gamma factors use the table
        u = sp.ndtr(z[[2, 3 + thz.n_rx]])
        np.clip(u, 1e-16, 1.0 - 1e-16, out=u)
        ia = (_gamma_quantile(fso.alpha_f, z[0]) / fso.alpha_f
              * _gamma_quantile(fso.beta_f, z[1]) / fso.beta_f)
        r = fso.pointing.jitter_std_m * np.sqrt(-2.0 * np.log1p(-u[0]))
        ip = fso.pointing.a0 * np.exp(-2.0 * r * r / fso.pointing.w_leq_m ** 2)
        gf = (fso.delta_tau(spec.transmit_snr_db)
              * (ia * ip) ** fso.detection_tau)
        sumsq = np.zeros(size)
        for j in range(thz.n_rx):
            g = _gamma_quantile(thz.mu, z[3 + j])
            sumsq += thz.omega ** 2 * (g / thz.mu) ** (2.0 / thz.alpha)
        rt = thz.pointing.jitter_std_m * np.sqrt(-2.0 * np.log1p(-u[1]))
        hp = thz.pointing.a0 * np.exp(-2.0 * rt * rt / thz.pointing.w_leq_m ** 2)
        gt = spec.thz.gamma_bar_t(spec.transmit_snr_db) * hp * hp * sumsq
        yield gf, gt


def _slot_blocks(spec: SystemSpec, n: int, seed: int, link: str,
                 fso_hysteresis: bool = False):
    """Yield (gamma_F, gamma_T, gamma_R, states) per block for ``link``.

    Only the SNRs ``link`` needs are drawn; the others are None.  ``states``
    codes the side serving each slot (0 = FSO, 1 = THz, 2 = none) and is
    None for the access link alone.  Soft policies on the hybrid and e2e
    links, and on the FSO link when ``fso_hysteresis`` is set, run the
    hysteresis trace; everything else is memoryless, with hard hybrid
    states taken from the trace of the coincident-threshold soft policy.
    """
    policy = spec.policy
    soft = policy.as_soft() if isinstance(policy, HardPolicy) else policy
    snr_db = spec.transmit_snr_db
    if isinstance(policy, SoftPolicy) and (
            link in ("hybrid", "e2e") or (link == "fso" and fso_hysteresis)):
        memory = SwitchState()
        chunks = _snr_chunk_iter(spec, n + TRACE_BURN_IN, 0.0, RngStream(seed))
        for index, (gf, gt) in enumerate(chunks):
            states = evaluate_soft_trace(gf, gt, soft, initial=memory)
            # FSO serves a slot exactly when the memory bit after it is clear
            memory = SwitchState(fso_was_below_lower=bool(states[-1] != 0))
            gr = None
            if link == "e2e":
                rng = RngStream(seed, 1_000_000 + index).generator()
                gr = sample_access_snr(spec.access, snr_db, rng, states.size)
            if index == 0:
                # BLOCK_SIZE exceeds the burn-in, so only block 0 is trimmed
                gf, gt, states = (a[TRACE_BURN_IN:] for a in (gf, gt, states))
                gr = None if gr is None else gr[TRACE_BURN_IN:]
            yield gf, gt, gr, states
        return
    for index, size in _iter_blocks(n):
        rng = RngStream(seed, index).generator()
        gf = gt = gr = states = None
        if link in ("fso", "hybrid", "e2e"):
            gf = sample_fso_snr(spec.fso, snr_db, rng, size)
        if link in ("thz", "hybrid", "e2e"):
            gt = sample_thz_snr(spec.thz, snr_db, rng, size)
        if link in ("access", "e2e"):
            gr = sample_access_snr(spec.access, snr_db, rng, size)
        if link == "fso":
            states = np.where(gf >= activation_threshold(policy, "fso"), 0, 2)
        elif link == "thz":
            states = np.where(gt >= activation_threshold(policy, "thz"), 1, 2)
        elif link != "access":
            states = evaluate_soft_trace(gf, gt, soft)
        yield gf, gt, gr, states


def estimate_outage(spec: SystemSpec, n: int, seed: int,
                    link: str = "e2e") -> EstimateResult:
    """Outage frequency of a link or composition at the configured policy.

    Hard policies count per-draw threshold events; soft policies run the
    sequential hysteresis trace and use its steady-state fractions after a
    1000-slot burn-in.  Under soft switching the FSO link is in outage
    whenever the hysteresis keeps it off.
    """
    _check_args(n, link)
    events = total = 0
    for _, _, gr, states in _slot_blocks(spec, n, seed, link,
                                         fso_hysteresis=True):
        fail = False if gr is None else gr < spec.gamma_r_th
        if states is not None:
            fail = fail | (states != 0 if link == "fso" else states == 2)
        events += int(np.count_nonzero(fail))
        total += fail.size
    return _wilson(events, total)


def _served_sums(spec: SystemSpec, n: int, seed: int, link: str,
                 f_fso, f_rf) -> tuple:
    """Tally f(serving SNR) per slot of ``link``, 0 in outage.

    Returns (sum, sum of squares, slots, transmitting slots).  ``f_fso``
    maps FSO SNRs and ``f_rf`` maps THz and access SNRs.
    """
    total = total_sq = 0.0
    count = sent = 0
    for gf, gt, gr, states in _slot_blocks(spec, n, seed, link):
        if states is None:
            on = gr >= spec.gamma_r_th
            vals = np.where(on, f_rf(gr), 0.0)
        else:
            on = states != 2
            vals = 0.0 if gt is None else np.where(states == 1, f_rf(gt), 0.0)
            if gf is not None:
                vals = np.where(states == 0, f_fso(gf), vals)
        count += vals.size
        sent += int(np.count_nonzero(on))
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
    return total, total_sq, count, sent


def estimate_capacity(spec: SystemSpec, n: int, seed: int,
                      link: str = "hybrid") -> EstimateResult:
    """Ergodic capacity estimate matching the truncated-mean compositions.

    Per-slot contributions are log2(1 + Xi gamma_active) on transmitting
    slots and 0 in outage, averaged over all slots, so the hybrid estimate
    targets C^F + P_F C^T (hard) and its hysteresis generalization (soft).
    """
    _check_args(n, link)
    if link == "e2e":
        hyb = estimate_capacity(spec, n, seed, "hybrid")
        acc = estimate_capacity(spec, n, seed, "access")
        return hyb if hyb.value <= acc.value else acc
    xi = _xi_factor(spec.fso.detection_tau)
    total, total_sq, count, _ = _served_sums(
        spec, n, seed, link, lambda g: np.log2(1.0 + xi * g),
        lambda g: np.log2(1.0 + g))
    return _mean_estimate(total, total_sq, count)


def estimate_aber(spec: SystemSpec, mod: Modulation, n: int, seed: int,
                  link: str = "hybrid") -> EstimateResult:
    """Semi-analytical ABER: fading-averaged conditional error probability.

    Hybrid estimates apply the non-outage conditioning of the closed form:
    the ratio of total error to transmitting slots, with its stderr by the
    delta method.  With no transmitting slot the value is nan and the
    interval is the whole range [0, A n0]; the e2e estimate is then nan too,
    with the interval the composition spans over that range.  Per-link
    estimates are the plain truncated averages.
    """
    _check_args(n, link)
    z = 1.959963984540054
    if link == "e2e":
        hyb = estimate_aber(spec, mod, n, seed, "hybrid")
        acc = estimate_aber(spec, mod, n, seed, "access")
        if math.isnan(hyb.value):
            ends = [h + acc.value - 2.0 * h * acc.value for h in hyb.ci95]
            return EstimateResult(math.nan, math.nan, n, min(ends), max(ends))
        value = hyb.value + acc.value - 2.0 * hyb.value * acc.value
        stderr = math.hypot((1.0 - 2.0 * acc.value) * hyb.stderr,
                            (1.0 - 2.0 * hyb.value) * acc.stderr)
        return EstimateResult(value, stderr, n, value - z * stderr,
                              value + z * stderr)
    error = functools.partial(_conditional_error, mod=mod)
    total, total_sq, count, sent = _served_sums(spec, n, seed, link,
                                                error, error)
    if link != "hybrid":
        return _mean_estimate(total, total_sq, count)
    if sent == 0:
        return EstimateResult(math.nan, math.nan, count, 0.0,
                              mod.a * mod.n0)
    value = (total / count) * (1.0 / (sent / count))
    stderr = math.sqrt(max(total_sq - total * total / sent, 0.0)) / sent
    return EstimateResult(value, stderr, count, value - z * stderr,
                          value + z * stderr)


def sample_trace_snrs(spec: SystemSpec, n_slots: int, rho: float,
                      seed: int) -> tuple:
    """Full per-slot (gamma_F, gamma_T) arrays for paired policy studies."""
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"correlation rho must lie in [0, 1), got {rho}")
    gfs, gts = [], []
    for gf, gt in _snr_chunk_iter(spec, n_slots, rho, RngStream(seed)):
        gfs.append(gf)
        gts.append(gt)
    return np.concatenate(gfs), np.concatenate(gts)
