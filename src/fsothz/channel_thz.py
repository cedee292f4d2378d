"""THz link model: molecular-absorption path gain and alpha-mu SNR laws.

Path loss is deterministic: Friis spreading plus six fitted water-vapor
absorption lines (119..448 GHz) and a continuum term.  Small-scale fading is
alpha-mu per receive branch with one shared misalignment factor; after MRC
the branch sum is carried analytically as a single alpha-mu variate with
mu -> N_r mu and the SNR scale gamma_bar = N_r * gamma_bar_T.  Given that
variate the SNR is a ceiling times a power-law pointing loss, and the rule
of :func:`thz_ceiling_rule` carries the survival, ABER and capacity.  The
path gain and the SNR-independent constants of the closed forms (log C1, C2,
C3) are slots of :class:`ThzLinkSpec`, computed once, when it is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .channel_fso import PointingGeometry, log_concave_window
from .errors import DomainError, NumericalIntegrityError

__all__ = [
    "SPEED_OF_LIGHT",
    "ThzEnvironment",
    "ThzLinkSpec",
    "water_vapor_fraction",
    "absorption_total",
    "thz_path_gain",
    "thz_snr_pdf",
    "thz_snr_cdf",
    "thz_snr_survival",
    "thz_ceiling_rule",
    "default_rx_radius_m",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s

SUPPORTED_BAND_HZ = (0.1e12, 0.45e12)

# Absorption line centers in 1/cm and continuum constants, transcribed
# verbatim from the fitted six-line model.
LINE_CENTERS_PER_CM = (3.96, 6.11, 10.84, 12.68, 14.65, 14.94)
D0 = 0.915e-112
D1 = 9.42

PROBABILITY_SLACK = 1e-9


@dataclass(frozen=True, slots=True)
class ThzEnvironment:
    """Atmospheric state and RF geometry of the THz hop."""

    temperature_k: float
    pressure_pa: float
    relative_humidity_pct: float
    frequency_hz: float
    distance_m: float
    tx_gain_dbi: float
    rx_gain_dbi: float

    def __post_init__(self):
        if self.temperature_k <= 0 or self.pressure_pa <= 0:
            raise DomainError("temperature and pressure must be positive")
        if not 0.0 <= self.relative_humidity_pct <= 100.0:
            raise DomainError(
                f"relative humidity must lie in [0, 100], got {self.relative_humidity_pct}")
        lo, hi = SUPPORTED_BAND_HZ
        if not lo <= self.frequency_hz <= hi:
            raise DomainError(
                f"frequency {self.frequency_hz/1e9:.1f} GHz outside the fitted "
                f"band [{lo/1e9:.0f}, {hi/1e9:.0f}] GHz")


def water_vapor_fraction(env: ThzEnvironment) -> float:
    """Volume mixing ratio nu = chi/(100 p) * I(T, p) with the Buck-style term.

    Evaluated exactly as printed against the stored temperature (K) and
    pressure (Pa) values.
    """
    t, p = env.temperature_k, env.pressure_pa
    buck = 6.1121 * (1.0007 + 3.46e-6 * p) * math.exp(17.502 * t / (240.97 + t))
    return env.relative_humidity_pct / (100.0 * p) * buck


def _h_polynomials(nu: float):
    g1 = 1.0 - nu
    return (
        5.159e-5 * g1 * (-6.65e-5 * g1 + 0.0159),   # H1
        (-2.09e-4 * g1 + 0.05) ** 2,                # H2
        0.1925 * nu * (0.1350 * nu + 0.0318),       # H3
        (0.4241 * nu + 0.0998) ** 2,                # H4
        0.2251 * nu * (0.1314 * nu + 0.0297),       # H5
        (0.4127 * nu + 0.0932) ** 2,                # H6
        2.053 * nu * (0.1717 * nu + 0.0306),        # H7
        (0.5394 * nu + 0.0961) ** 2,                # H8
        0.177 * nu * (0.0832 * nu + 0.0213),        # H9
        (0.2615 * nu + 0.0668) ** 2,                # H10
        2.146 * nu * (0.1206 * nu + 0.0277),        # H11
        (0.3789 * nu + 0.0871) ** 2,                # H12
    )


def absorption_total(frequency_hz: float, nu: float) -> float:
    """Molecular absorption coefficient kappa in 1/m: six lines + continuum."""
    lo, hi = SUPPORTED_BAND_HZ
    if not lo <= frequency_hz <= hi:
        raise DomainError(
            f"frequency {frequency_hz/1e9:.1f} GHz outside the fitted band")
    h = _h_polynomials(nu)
    wavenumber_per_cm = frequency_hz / (100.0 * SPEED_OF_LIGHT)
    kappa = 0.0
    for i, center in enumerate(LINE_CENTERS_PER_CM):
        num = h[2 * i]
        den = h[2 * i + 1] + (wavenumber_per_cm - center) ** 2
        kappa += num / den
    kappa += nu / 0.0157 * (2e-4 + D0 * frequency_hz ** D1)
    return kappa


def default_rx_radius_m(frequency_hz: float, tx_gain_dbi: float) -> float:
    """Reference receiver radius lambda * sqrt(G_t) / (2 pi)."""
    lam = SPEED_OF_LIGHT / frequency_hz
    return lam * math.sqrt(10.0 ** (tx_gain_dbi / 10.0)) / (2.0 * math.pi)


def thz_path_gain(env: ThzEnvironment) -> float:
    """Amplitude path gain h_l: Friis spreading times absorption decay."""
    if env.distance_m <= 0:
        raise DomainError("distance must be positive for the spreading term")
    gt = 10.0 ** (env.tx_gain_dbi / 10.0)
    gr = 10.0 ** (env.rx_gain_dbi / 10.0)
    kappa = absorption_total(env.frequency_hz, water_vapor_fraction(env))
    spreading = SPEED_OF_LIGHT * math.sqrt(gt * gr) / (
        4.0 * math.pi * env.frequency_hz * env.distance_m)
    return spreading * math.exp(-0.5 * env.distance_m * kappa)


@dataclass(frozen=True, slots=True)
class ThzLinkSpec:
    """THz link parameters plus the alpha-mu/misalignment channel constants.

    The path gain ``h_l`` and the constants of the SNR laws, ``log_c1``,
    ``c2`` and ``c3``, are computed once, when the spec is made; they take
    no part in equality or hashing, which the input fields decide.
    """

    env: ThzEnvironment
    alpha: float
    mu: float
    n_rx: int
    omega: float
    pointing: PointingGeometry
    h_l: float = field(init=False, repr=False, compare=False)
    log_c1: float = field(init=False, repr=False, compare=False)
    c2: float = field(init=False, repr=False, compare=False)
    c3: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.alpha <= 0 or self.mu <= 0 or self.omega <= 0:
            raise DomainError("alpha, mu and omega must be positive")
        if self.n_rx < 1:
            raise DomainError(f"n_rx must be >= 1, got {self.n_rx}")
        object.__setattr__(self, "h_l", thz_path_gain(self.env))
        xi2 = self.pointing.xi ** 2
        a0 = self.pointing.a0
        nrmu = self.n_rx * self.mu
        # log of the PDF normalization constant; the linear value leaves
        # the double range once the pointing exponent xi^2 is large
        log_c1 = (math.log(xi2) - xi2 * math.log(a0)
                  + xi2 / self.alpha * math.log(nrmu)
                  - xi2 * math.log(self.omega) - math.lgamma(nrmu))
        object.__setattr__(self, "log_c1", log_c1)
        # (alpha N_r mu - xi^2) / alpha; negative at the reference geometry
        object.__setattr__(self, "c2", (self.alpha * self.n_rx * self.mu - xi2)
                           / self.alpha)
        object.__setattr__(self, "c3", nrmu / (a0 * self.omega) ** self.alpha)

    @property
    def xi_t(self) -> float:
        return self.pointing.xi

    @property
    def a0_t(self) -> float:
        return self.pointing.a0

    @property
    def c1(self) -> float:
        return math.exp(self.log_c1)

    def gamma_bar_t(self, transmit_snr_db: float) -> float:
        """Per-branch average SNR P h_l^2 / sigma^2 at unit noise variance."""
        return 10.0 ** (transmit_snr_db / 10.0) * self.h_l ** 2

    def gamma_bar(self, transmit_snr_db: float) -> float:
        """MRC SNR scale N_r * gamma_bar_T."""
        return self.n_rx * self.gamma_bar_t(transmit_snr_db)


def thz_snr_pdf(gamma: float, spec: ThzLinkSpec,
                transmit_snr_db: float) -> specfun.KernelValue:
    """Density of the THz MRC SNR at ``gamma`` > 0."""
    if not gamma > 0:
        raise DomainError(f"thz_snr_pdf requires gamma > 0, got {gamma}")
    gbar = spec.gamma_bar(transmit_snr_db)
    xi2 = spec.xi_t ** 2
    x = spec.c3 * (gamma / gbar) ** (spec.alpha / 2.0)
    # log-assemble: the power prefactor and the incomplete-gamma tail can
    # each leave the double range while their product stays ordinary.
    log_pref = (spec.log_c1 - math.log(2.0) + (xi2 / 2.0 - 1.0) * math.log(gamma)
                - xi2 / 2.0 * math.log(gbar))
    if spec.c2 <= -50.0:
        log_tail = specfun._log_upper_gamma_cf(spec.c2, x)
    else:
        tail = specfun.upper_incomplete_gamma(spec.c2, x)
        if tail <= 0.0:
            return specfun.KernelValue(0.0)
        log_tail = math.log(tail)
    logv = log_pref + log_tail
    return specfun.KernelValue(math.exp(logv) if logv > -745.0 else 0.0)


def thz_snr_cdf(gamma: float, spec: ThzLinkSpec,
                transmit_snr_db: float) -> specfun.KernelValue:
    """P(gamma_T <= gamma) via the closed Meijer-G form."""
    if gamma < 0:
        raise DomainError(f"thz_snr_cdf requires gamma >= 0, got {gamma}")
    if gamma == 0.0:
        return specfun.KernelValue(0.0)
    gbar = spec.gamma_bar(transmit_snr_db)
    xi2 = spec.xi_t ** 2
    rho = xi2 / spec.alpha
    z = spec.c3 * (gamma / gbar) ** (spec.alpha / 2.0)
    # G^{2,1}_{2,3}[z | (1-rho, 1); (0, C2, -rho)] via its incomplete-gamma
    # reduction in log scale; the linear G value leaves the double range for
    # severe pointing exponents while the CDF itself stays in [0, 1].
    log_g = specfun.igamma_reduction_log(rho, spec.c2, z)
    log_pref = (spec.log_c1 - math.log(spec.alpha)
                + xi2 / 2.0 * math.log(gamma / gbar))
    logv = log_pref + log_g
    return _probability(math.exp(logv) if logv > -745.0 else 0.0,
                        "thz_snr_cdf", gamma, transmit_snr_db)


def _probability(value: float, name: str, gamma: float,
                 transmit_snr_db: float) -> specfun.KernelValue:
    if not -PROBABILITY_SLACK <= value <= 1.0 + PROBABILITY_SLACK:
        raise NumericalIntegrityError(
            f"{name} produced {value} at gamma={gamma}, "
            f"transmit SNR {transmit_snr_db} dB")
    return specfun.KernelValue(min(max(value, 0.0), 1.0))


def thz_ceiling_rule(gamma_lo: float, gamma_knee: float, spec: ThzLinkSpec,
                     transmit_snr_db: float):
    """Rule over the fading variate for the pointing-free SNR ceiling.

    With Y ~ Gamma(n), n = N_r mu, the fading variate of the single alpha-mu
    law of the MRC sum, the SNR is gamma_max h^2 with gamma_max = gamma_bar
    A0^2 Omega^2 (Y / n)^(2 / alpha) and P(h <= x) = x^(xi^2), so P(gamma <=
    g | Y) = min(1, (g / gamma_max)^k), k = xi^2 / 2.  Returns (gamma_max,
    w) on the contract of :func:`channel_fso.fso_ceiling_rule`.  The rule
    runs over y = ln Y, whose density e^(n y - e^y) / Gamma(n) times the
    envelope min(1, (gamma_knee / gamma_max)^k) = e^(-r (y - y_knee)_+),
    r = xi^2 / alpha, is log-concave with its maximum at ln n, at ln(n - r)
    or at the kink; :func:`channel_fso.log_concave_window` places the nodes.
    """
    if gamma_lo < 0 or not gamma_knee > 0:
        raise DomainError(
            "thz_ceiling_rule requires gamma_lo >= 0 and gamma_knee > 0")
    n = spec.n_rx * spec.mu
    c = 2.0 / spec.alpha
    scale = spec.gamma_bar(transmit_snr_db) * (spec.a0_t * spec.omega) ** 2
    log_scale = math.log(scale) - c * math.log(n)   # gamma_max = e^(log_scale + c y)
    envelope = math.isfinite(gamma_knee)
    rate = spec.xi_t ** 2 / spec.alpha if envelope else 0.0
    ref = max(gamma_lo, gamma_knee) if envelope else (gamma_lo or scale)
    y_ref = (math.log(ref) - log_scale) / c
    lo = (math.log(gamma_lo) - log_scale) / c if gamma_lo > 0.0 else -math.inf

    def log_f(y):
        with np.errstate(over="ignore"):
            return n * y - np.exp(y) - rate * np.maximum(y - y_ref, 0.0)

    peak = math.log(n)
    if peak > y_ref:
        peak = max(math.log(n - rate), y_ref) if n > rate else y_ref
    peak = max(peak, lo)
    rise = n - math.exp(peak) - (rate if peak > y_ref else 0.0)
    fall = n - math.exp(peak) - (rate if peak >= y_ref else 0.0)
    y, w, log_peak = log_concave_window(log_f, peak, lo, math.inf,
                                        rise, fall, -math.exp(peak))
    # in logs: the envelope's inverse alone can leave the double range
    with np.errstate(divide="ignore"):
        w = np.exp(np.log(w) + (log_peak - math.lgamma(n))
                   + rate * np.maximum(y - y_ref, 0.0))
    return np.exp(log_scale + c * y), w


def thz_snr_survival(gamma: float, spec: ThzLinkSpec,
                     transmit_snr_db: float) -> specfun.KernelValue:
    """P(gamma_T > gamma) = E[1 - (gamma / gamma_max)^k; gamma_max > gamma].

    On :func:`thz_ceiling_rule` every term is positive, so the value keeps
    its relative accuracy where :func:`thz_snr_cdf` rounds to 1.
    """
    if gamma < 0:
        raise DomainError(f"thz_snr_survival requires gamma >= 0, got {gamma}")
    if gamma == 0.0:
        return specfun.KernelValue(1.0)
    gmax, w = thz_ceiling_rule(gamma, math.inf, spec, transmit_snr_db)
    k = 0.5 * spec.xi_t ** 2
    return _probability(float(np.dot(w, -np.expm1(k * np.log(gamma / gmax)))),
                        "thz_snr_survival", gamma, transmit_snr_db)
