"""FSO link model: attenuation, turbulence, pointing geometry, SNR laws.

The optical SNR is gamma_F = delta_tau * I^tau with I = I_a * I_p the
product of Gamma-Gamma scintillation and the misalignment loss, tau = 1 for
heterodyne detection and tau = 2 for IM/DD.  delta_tau = (P eta I_l)^tau /
sigma^2 with unit noise variance, so the "transmit SNR" knob P/sigma^2 in dB
is the only power input.

Given the scintillation, u = ln I_a, the SNR is gamma_max(u) h^tau with
gamma_max = delta_tau (A0 e^u)^tau and P(h <= x) = x^(xi^2), so the SNR laws
are expectations over u of closed inner terms with positive integrands
(Farid & Hranilovic, J. Lightwave Technol. 25(7), 2007).  One windowed
Gauss-Legendre rule over u (:func:`_gg_rule`) carries the density, the
ceiling rule behind the FSO ABER and capacity (:func:`fso_ceiling_rule`),
and the CDF and survival wherever the Meijer-G closed form would need the
Mellin-Barnes contour, or its residue series cancels by more than three
digits; elsewhere the CDF is that residue series.  On the rule the smaller
of CDF and survival is computed and the other is 1 minus it.  None of these
carries a Meijer-G route flag.

The derived constants of a link (the pointing geometry's A0, w_Leq and xi,
the Gamma-Gamma shapes, the path transmittance and the CDF's parameter
blocks) are slots computed once, when the spec is made, so a sweep point
pays only for what depends on its SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import specfun
from .errors import (DomainError, MeijerGUnsupportedError,
                     NumericalIntegrityError)

__all__ = [
    "PointingGeometry",
    "FsoLinkSpec",
    "attenuation",
    "attenuation_coefficient_per_km",
    "rytov_variance",
    "rytov_turbulence_params",
    "fso_snr_pdf",
    "fso_snr_cdf",
    "fso_snr_survival",
    "fso_ceiling_rule",
]

# CDF/PDF excursions beyond [0,1] larger than this are treated as numerical
# integrity failures rather than clamped away.
PROBABILITY_SLACK = 1e-9

# The density integral covers the offsets where its log integrand lies within
# PDF_LOG_RANGE of its maximum (e^-40 ~ 4e-18 of the peak is dropped at each
# end), found by a scan whose points grow by PDF_SCAN_RATIO and stop at
# PDF_SCAN_LIMIT in ln I_a (beyond any finite gamma and the whole Gamma-Gamma
# bulk).  PDF_PANELS Gauss-Legendre panels of PDF_NODES nodes then cover it;
# against mpmath at 30 digits this keeps about 1e-13 relative accuracy.
PDF_LOG_RANGE = 40.0
PDF_SCAN_RATIO = 1.5
PDF_SCAN_LIMIT = 2000.0
PDF_PANELS = 4
PDF_NODES = 32
# ln of the largest kve(nu, z) the rule evaluates at small z, where it grows
# like (2 / z)^|nu|
PDF_KVE_LOG_MAX = 700.0
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(PDF_NODES)
# the composite rule on [0, 1]: PDF_PANELS equal panels, one array of nodes
_UNIT_NODES = ((np.arange(PDF_PANELS)[:, None] + 0.5 + 0.5 * _GL_NODES)
               / PDF_PANELS).ravel()
_UNIT_WEIGHTS = np.tile(_GL_WEIGHTS, PDF_PANELS) / (2.0 * PDF_PANELS)

FLAG_BEAMWIDTH_VALIDITY = "beamwidth-validity"
_NO_FLAGS = frozenset()
_BEAMWIDTH_FLAGS = frozenset({FLAG_BEAMWIDTH_VALIDITY})
# residue-series flags on which the Meijer-G engine would take the contour
_CONTOUR_FLAGS = frozenset({specfun.FLAG_TRUNCATION_CAP,
                            specfun.FLAG_RESIDUE_ILL_CONDITIONED})


def attenuation_coefficient_per_km(visibility_km: float, wavelength_m: float) -> float:
    """Kim-model attenuation coefficient sigma_l in 1/km."""
    if not visibility_km > 0:
        raise DomainError(f"visibility must be positive, got {visibility_km} km")
    if visibility_km > 50.0:
        q = 1.6
    elif visibility_km > 6.0:
        q = 1.3
    else:
        q = 0.585 * visibility_km ** (1.0 / 3.0)
    wavelength_nm = wavelength_m * 1e9
    return 3.912 / visibility_km * (wavelength_nm / 550.0) ** q


def attenuation(visibility_km: float, wavelength_m: float, length_m: float) -> float:
    """Beer-Lambert path transmittance I_l = exp(-sigma_l * L) in (0, 1]."""
    if length_m < 0:
        raise DomainError(f"length must be non-negative, got {length_m} m")
    sigma_l = attenuation_coefficient_per_km(visibility_km, wavelength_m)
    return math.exp(-sigma_l * length_m / 1000.0)


def rytov_variance(cn2: float, wavelength_m: float, length_m: float) -> float:
    """Plane-wave Rytov variance 1.23 Cn^2 k0^(7/6) L^(11/6)."""
    k0 = 2.0 * math.pi / wavelength_m
    return 1.23 * cn2 * k0 ** (7.0 / 6.0) * length_m ** (11.0 / 6.0)


def rytov_turbulence_params(cn2: float, wavelength_m: float, length_m: float):
    """Gamma-Gamma shape parameters (alpha_F, beta_F) for plane-wave turbulence."""
    if cn2 <= 0 or wavelength_m <= 0 or length_m <= 0:
        raise DomainError("cn2, wavelength and length must all be positive")
    s2 = rytov_variance(cn2, wavelength_m, length_m)
    s125 = s2 ** (6.0 / 5.0)  # sigma_RV^(12/5)
    alpha_f = 1.0 / (math.exp(0.49 * s2 / (1.0 + 1.11 * s125) ** (7.0 / 6.0)) - 1.0)
    beta_f = 1.0 / (math.exp(0.51 * s2 / (1.0 + 0.69 * s125) ** (5.0 / 6.0)) - 1.0)
    return alpha_f, beta_f


@dataclass(frozen=True, slots=True)
class PointingGeometry:
    """Zero-boresight misalignment geometry of a Gaussian beam on a disk.

    ``v0``, the collected fraction ``a0`` at zero offset, the equivalent
    beam radius ``w_leq_m`` and the misalignment severity ``xi`` (that
    radius over twice the jitter) are computed once, when the geometry is
    made; they take no part in equality or hashing.
    """

    aperture_radius_m: float
    beamwidth_m: float
    jitter_std_m: float
    v0: float = field(init=False, repr=False, compare=False)
    a0: float = field(init=False, repr=False, compare=False)
    w_leq_m: float = field(init=False, repr=False, compare=False)
    xi: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.aperture_radius_m <= 0 or self.beamwidth_m <= 0 or self.jitter_std_m <= 0:
            raise DomainError("pointing geometry lengths must be positive")
        v0 = math.sqrt(math.pi * self.aperture_radius_m ** 2
                       / (2.0 * self.beamwidth_m ** 2))
        a0 = math.erf(v0) ** 2
        w_leq_m = math.sqrt(math.sqrt(math.pi * a0) * self.beamwidth_m ** 2
                            / (2.0 * v0 * math.exp(-v0 ** 2)))
        object.__setattr__(self, "v0", v0)
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "w_leq_m", w_leq_m)
        object.__setattr__(self, "xi", w_leq_m / (2.0 * self.jitter_std_m))

    @property
    def beamwidth_valid(self) -> bool:
        """Whether the Gaussian-power approximation condition w_L > 6a holds.

        The reference geometry violates it; computation proceeds regardless
        and this flag is carried to the outputs.
        """
        return self.beamwidth_m > 6.0 * self.aperture_radius_m


@dataclass(frozen=True, slots=True)
class FsoLinkSpec:
    """Static FSO link parameters plus derived channel constants.

    The Gamma-Gamma shapes ``alpha_f``, ``beta_f``, the path transmittance
    ``i_l`` and the parameter blocks (rho1, rho2, D1, D2) of the SNR CDF,
    ``cdf_blocks``, are computed once, when the spec is made; they take no
    part in equality or hashing, which the input fields decide.  Where a
    near-deterministic channel puts D1 beyond the double range
    ``cdf_blocks`` is None, and the CDF runs on the scintillation rule.
    """

    wavelength_m: float
    length_m: float
    visibility_km: float
    cn2: float
    detection_tau: int  # 1 = heterodyne, 2 = IM/DD
    eta: float
    pointing: PointingGeometry
    alpha_f: float = field(init=False, repr=False, compare=False)
    beta_f: float = field(init=False, repr=False, compare=False)
    i_l: float = field(init=False, repr=False, compare=False)
    cdf_blocks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.detection_tau not in (1, 2):
            raise DomainError(f"detection_tau must be 1 or 2, got {self.detection_tau}")
        if self.eta <= 0:
            raise DomainError("eta must be positive")
        al, be = rytov_turbulence_params(
            self.cn2, self.wavelength_m, self.length_m)
        object.__setattr__(self, "alpha_f", al)
        object.__setattr__(self, "beta_f", be)
        object.__setattr__(self, "i_l", attenuation(
            self.visibility_km, self.wavelength_m, self.length_m))
        tau = self.detection_tau
        xi2 = self.pointing.xi ** 2
        rho1 = tuple((xi2 + j) / tau for j in range(1, tau + 1))
        rho2 = (tuple((xi2 + j) / tau for j in range(tau))
                + tuple((al + j) / tau for j in range(tau))
                + tuple((be + j) / tau for j in range(tau)))
        d2 = (al * be) ** tau / tau ** (2.0 * tau)
        try:
            d1 = (tau ** (al + be - 2.0) * xi2
                  / ((2.0 * math.pi) ** (tau - 1.0) * math.gamma(al) * math.gamma(be)))
            blocks = (rho1, rho2, d1, d2)
        except OverflowError:
            blocks = None   # Gamma(alpha_F) beyond the double range
        object.__setattr__(self, "cdf_blocks", blocks)

    def delta_tau(self, transmit_snr_db: float) -> float:
        """SNR scale P (eta I_l)^tau / sigma^2 at unit noise variance.

        Linear in the transmit power for both detection types.  Raising P to
        the tau-th power instead would double the IM/DD diversity order and
        invert the heterodyne-vs-IM/DD ordering, contradicting the min(.)/tau
        diversity rule and the modulation-gap behavior this scale must
        reproduce.
        """
        p = 10.0 ** (transmit_snr_db / 10.0)
        return p * (self.eta * self.i_l) ** self.detection_tau


def _log_gg_offset(s, z0: float, log_k0: float, slope: float, nu: float):
    """ln of the conditional integrand at offsets ``s`` = u - ln c.

    With z = z0 e^(s/2) this is ln[f_Ia(e^u) e^u e^(-r s)] minus its value
    at s = 0, where f_Ia(a) is proportional to a^((al+be)/2 - 1)
    K_nu(2 sqrt(al be a)) and ``slope`` = (al+be)/2 - r (an array where the
    rate r differs on the two sides of ln c).  Written on kve and expm1 so
    that offsets far below the unit in ln c keep their precision.  Beyond
    the range of z the log is -inf.
    """
    with np.errstate(over="ignore", divide="ignore"):
        z = z0 * np.exp(0.5 * s)
        return (slope * s + np.log(special.kve(nu, z)) - log_k0
                - z0 * np.expm1(0.5 * s))


def _log_gg_derivatives(s: float, z0: float, nu: float, be_minus_xi2: float):
    """First and second derivative of :func:`_log_gg_offset` at ``s``.

    With R = K_(nu-1)(z) / K_nu(z): d/ds = be - xi^2 - z R / 2 and
    d2/ds2 = -z (z R^2 + 2 nu R - z) / 4, from the Bessel-K recurrences.
    """
    z = z0 * math.exp(0.5 * s)
    r = special.kve(nu - 1.0, z) / special.kve(nu, z)
    return be_minus_xi2 - 0.5 * z * r, -0.25 * z * (z * r * r + 2.0 * nu * r - z)


def _log_gg_peak(lo: float, hi: float, z0: float, nu: float,
                 be_minus_xi2: float) -> float:
    """Root in (lo, hi) of the first derivative of :func:`_log_gg_offset`.

    The derivative falls from positive at ``lo`` to negative at ``hi``
    (the integrand is log-concave).  Newton steps on the second derivative
    run inside the bracket the signs keep; a step that would leave it, or
    that is not under half the step before, becomes a bisection, so the
    steps at least halve from one to the next.
    """
    step = last = hi - lo
    s = lo + 0.5 * step
    d1, d2 = _log_gg_derivatives(s, z0, nu, be_minus_xi2)
    for _ in range(2100):   # halvings of any double range to below 1 ulp
        if d1 == 0.0:
            return s
        lo, hi = (s, hi) if d1 > 0.0 else (lo, s)
        newton = s - d1 / d2
        if lo < newton < hi and abs(2.0 * d1) < abs(last * d2):
            last, step = step, d1 / d2
            s = newton
        else:
            last = step = 0.5 * (hi - lo)
            s = lo + step
        if abs(step) <= 2.0 * math.ulp(s):
            return s
        d1, d2 = _log_gg_derivatives(s, z0, nu, be_minus_xi2)
    return s


def log_concave_window(log_f, peak: float, lo: float, hi: float,
                       rise: float, fall: float, curv: float):
    """Nodes over the window of a log-concave integrand e^log_f on [lo, hi].

    ``rise`` and ``fall`` are the slopes of ``log_f`` left and right of its
    maximum at ``peak`` and ``curv`` its curvature there.  The window is
    where ``log_f`` lies within PDF_LOG_RANGE of the maximum, found by a
    geometric scan out of the peak that starts at a hundredth of the
    distance over which the linear or quadratic fall loses PDF_LOG_RANGE;
    PDF_PANELS Gauss-Legendre panels cover it.  Returns (s, w, log_peak)
    with int_lo^hi e^log_f(s) h(s) ds ~ e^log_peak * dot(w, h(s)).
    """
    width = min(PDF_LOG_RANGE / -fall if fall < 0.0 else math.inf,
                PDF_LOG_RANGE / rise if rise > 0.0 else math.inf,
                math.sqrt(2.0 * PDF_LOG_RANGE / -curv) if curv < 0.0 else math.inf,
                PDF_SCAN_LIMIT)
    log_peak = float(log_f(np.array([peak]))[0])
    threshold = log_peak - PDF_LOG_RANGE
    step = 1e-2 * width
    b = a = peak
    if hi > peak:
        b = peak + _level_offset(log_f, peak, step,
                                 min(hi - peak, PDF_SCAN_LIMIT), threshold)
    if peak > lo:
        a = peak - _level_offset(log_f, peak, -step,
                                 min(peak - lo, PDF_SCAN_LIMIT), threshold)
    span = b - a
    s = a + span * _UNIT_NODES
    return s, span * _UNIT_WEIGHTS * np.exp(log_f(s) - log_peak), log_peak


def _level_offset(log_f, origin: float, step: float, limit: float,
                  threshold: float) -> float:
    """Distance from ``origin`` at which ``log_f`` first drops below threshold.

    Scans ``origin`` +/- step * PDF_SCAN_RATIO^k (the sign of ``step``) up
    to ``limit`` in one vectorized call; log-concavity makes the first
    scan point below ``threshold`` lie beyond the level set.
    """
    n = max(int(math.ceil(math.log(limit / abs(step))
                          / math.log(PDF_SCAN_RATIO))), 0)
    dist = np.minimum(abs(step) * PDF_SCAN_RATIO ** np.arange(n + 1), limit)
    below = log_f(origin + math.copysign(1.0, step) * dist) < threshold
    return float(dist[int(np.argmax(below))] if below.any() else limit)


def _log_c(gamma: float, spec: FsoLinkSpec, transmit_snr_db: float) -> float:
    """ln c, the ln I_a at which the pointing-free SNR delta (A0 I_a)^tau is gamma."""
    return (math.log(gamma / spec.delta_tau(transmit_snr_db)) / spec.detection_tau
            - math.log(spec.pointing.a0))


def _gg_rule(spec: FsoLinkSpec, log_c: float, lo: float, hi: float,
             xi2: float, log_factor: float = 0.0):
    """Gauss-Legendre rule for a Gamma-Gamma expectation over u = ln I_a.

    In offsets s = u - ln c, with ``lo`` in [-inf, 0] and ``hi`` 0 or inf,
    the rule integrates

        e^log_factor int_lo^hi f_Ia(e^u) e^u e^(-xi2 s_+) h(u) ds

    as e^log_scale * dot(w, h(ln c + s)) and returns (s, w, log_scale).  The integrand with h = 1 is log-concave in u.
    Its maximum is an end of [lo, hi], the kink at s = 0, or the root of the
    log-derivative on one side of it (beta - xi2 [s > 0] - z R / 2), and
    :func:`log_concave_window` places the nodes around it.
    """
    al, be = spec.alpha_f, spec.beta_f
    nu = al - be
    z0 = 2.0 * math.sqrt(al * be) * math.exp(0.5 * log_c)
    log_k0 = math.log(special.kve(nu, z0))
    slope_below, slope_above = 0.5 * (al + be), 0.5 * (al + be) - xi2

    def log_f(s):
        return _log_gg_offset(s, z0, log_k0,
                              np.where(s > 0.0, slope_above, slope_below), nu)

    # below this offset kve(nu, z), which grows like (2 / z)^|nu|, would
    # leave the double range
    floor = 2.0 * (math.log(2.0 / z0) - PDF_KVE_LOG_MAX / max(abs(nu), 1.0))
    lo = max(lo, min(floor, 0.0))
    peak = 0.0
    rise = fall = 0.0
    curv = 0.0
    if hi > 0.0:
        fall, curv = _log_gg_derivatives(0.0, z0, nu, be - xi2)
        if fall > 0.0:
            # rising beyond ln c: the maximum is interior, and below
            # z = 2 (al + be) + 2, where z R / 2 exceeds beta for any nu
            top = 2.0 * math.log((2.0 * (al + be) + 2.0) / z0)
            peak = _log_gg_peak(0.0, top, z0, nu, be - xi2)
            fall, curv = _log_gg_derivatives(peak, z0, nu, be - xi2)
            rise = fall
    if lo < 0.0 and peak == 0.0:
        rise, curv = _log_gg_derivatives(0.0, z0, nu, be)
        if rise < 0.0:
            # falling into ln c: the density's mode lies below it
            peak, rise = lo, 0.0
            fall, curv = _log_gg_derivatives(lo, z0, nu, be)
            if fall > 0.0:
                peak = _log_gg_peak(lo, 0.0, z0, nu, be)
                fall, curv = _log_gg_derivatives(peak, z0, nu, be)
                rise = fall
    s, w, log_peak = log_concave_window(log_f, peak, lo, hi, rise, fall, curv)
    log_norm = (math.log(2.0) + 0.5 * (al + be) * math.log(al * be)
                - math.lgamma(al) - math.lgamma(be))
    log_scale = (log_factor + log_norm
                 + 0.5 * (al + be) * log_c + log_k0 - z0 + log_peak)
    return s, w, log_scale


def fso_snr_pdf(gamma: float, spec: FsoLinkSpec,
                transmit_snr_db: float) -> specfun.KernelValue:
    """Density of the FSO SNR at ``gamma`` > 0.

    Conditioned on the Gamma-Gamma scintillation I_a (Farid & Hranilovic,
    J. Lightwave Technol. 25(7), 2007), with u = ln I_a, the unit-mean
    Gamma-Gamma density f_Ia and c = (gamma / delta_tau)^(1/tau) / A0:

        f(gamma) = xi^2 / (tau gamma) * int_{ln c}^inf
                   f_Ia(e^u) e^u e^(-xi^2 (u - ln c)) du,

    on the windowed rule of :func:`_gg_rule`.
    """
    if not gamma > 0:
        raise DomainError(f"fso_snr_pdf requires gamma > 0, got {gamma}")
    xi2 = spec.pointing.xi ** 2
    _, w, log_scale = _gg_rule(
        spec, _log_c(gamma, spec, transmit_snr_db), 0.0, math.inf, xi2,
        math.log(xi2 / (spec.detection_tau * gamma)))
    value = math.exp(log_scale) * float(np.sum(w))
    if not (value >= 0.0 and math.isfinite(value)):
        raise NumericalIntegrityError(
            f"fso_snr_pdf produced density {value} at gamma={gamma}")
    return specfun.KernelValue(value)


def fso_ceiling_rule(gamma_lo: float, gamma_knee: float, spec: FsoLinkSpec,
                     transmit_snr_db: float):
    """Rule over the scintillation for the pointing-free SNR ceiling.

    Given I_a the SNR is gamma_max h^tau with gamma_max = delta (A0 I_a)^tau
    and P(h <= x) = x^(xi^2), so P(gamma <= g | I_a) = min(1, (g /
    gamma_max)^k), k = xi^2 / tau.  Returns (gamma_max, w) with

        E[g(gamma_max); gamma_max > gamma_lo] ~ sum(w * g(gamma_max))

    for any smooth g that falls no slower than min(1, (gamma_knee /
    gamma_max)^k); the window is that of this envelope.  With
    ``gamma_knee`` = inf it is the window of the density alone, for a g that
    grows no faster than a logarithm.  ``gamma_lo`` = 0 starts it in the
    left tail of the Gamma-Gamma density.
    """
    if gamma_lo < 0 or not gamma_knee > 0:
        raise DomainError(
            "fso_ceiling_rule requires gamma_lo >= 0 and gamma_knee > 0")
    tau = spec.detection_tau
    envelope = math.isfinite(gamma_knee)
    rate = spec.pointing.xi ** 2 if envelope else 0.0
    ref = max(gamma_lo, gamma_knee) if envelope else (
        gamma_lo or spec.delta_tau(transmit_snr_db) * spec.pointing.a0 ** tau)
    lo = math.log(gamma_lo / ref) / tau if gamma_lo > 0.0 else -math.inf
    s, w, log_scale = _gg_rule(
        spec, _log_c(ref, spec, transmit_snr_db), lo, math.inf, rate)
    # in logs: the envelope's inverse alone can leave the double range
    with np.errstate(divide="ignore"):
        w = np.exp(np.log(w) + log_scale + rate * np.maximum(s, 0.0))
    return ref * np.exp(tau * s), w


def _scintillation_mean(spec: FsoLinkSpec, log_c: float, lo: float,
                        hi: float, rate: float, h=None) -> float:
    """E[e^(-rate s_+) h(s); lo < s < hi] over s = ln I_a - ln c."""
    s, w, log_scale = _gg_rule(spec, log_c, lo, hi, rate)
    return math.exp(log_scale) * float(np.sum(w) if h is None
                                       else np.dot(w, h(s)))


def _by_scintillation(gamma: float, spec: FsoLinkSpec, transmit_snr_db: float,
                      survival: bool) -> float:
    """P(gamma_F > gamma) or P(gamma_F <= gamma) from positive terms.

    The survival E[1 - (c / I_a)^(xi^2); I_a > c] is taken first; where it
    is below one half it is the smaller side.  Otherwise the CDF F =
    F_Ia(c) + E[(c / I_a)^(xi^2); I_a > c], i.e. F_Ia(c) + tau gamma
    f(gamma) / xi^2, is.  The smaller side keeps its relative accuracy and
    the other is 1 minus it, so the two sum to 1 to the larger's rounding.
    Every term runs on :func:`_gg_rule`.
    """
    log_c = _log_c(gamma, spec, transmit_snr_db)
    xi2 = spec.pointing.xi ** 2
    upper = _scintillation_mean(spec, log_c, 0.0, math.inf, 0.0,
                                lambda s: -np.expm1(-xi2 * s))
    if upper < 0.5:
        return upper if survival else 1.0 - upper
    lower = (_scintillation_mean(spec, log_c, -math.inf, 0.0, 0.0)
             + _scintillation_mean(spec, log_c, 0.0, math.inf, xi2))
    return 1.0 - lower if survival else lower


def _residue_cdf(gamma: float, spec: FsoLinkSpec, transmit_snr_db: float):
    """The Meijer-G closed form of P(gamma_F <= gamma) by its residue
    series, or None where it would need the Mellin-Barnes contour (a
    logarithmic pole layout, a series that raises, or one flagged
    ``truncation-cap`` or ``residue-ill-conditioned``) or the spec has no
    ``cdf_blocks``."""
    if spec.cdf_blocks is None:
        return None
    tau = spec.detection_tau
    rho1, rho2, d1, d2 = spec.cdf_blocks
    delta = spec.delta_tau(transmit_snr_db)
    z = d2 * gamma / (spec.pointing.a0 ** tau * delta)
    try:
        g = specfun.meijer_g_residue(specfun.MeijerGSpec(
            a_front=(1.0,), a_back=rho1, b_front=rho2, b_back=(0.0,), z=z))
    except MeijerGUnsupportedError:
        return None
    return None if g.flags & _CONTOUR_FLAGS else d1 * g.value


def _probability(gamma: float, spec: FsoLinkSpec, transmit_snr_db: float,
                 survival: bool) -> specfun.KernelValue:
    name = "fso_snr_survival" if survival else "fso_snr_cdf"
    if gamma < 0:
        raise DomainError(f"{name} requires gamma >= 0, got {gamma}")
    if gamma == 0.0:
        return specfun.KernelValue(float(survival))
    value = _residue_cdf(gamma, spec, transmit_snr_db)
    if value is None:
        value = _by_scintillation(gamma, spec, transmit_snr_db, survival)
    elif survival:
        value = 1.0 - value
    if not -PROBABILITY_SLACK <= value <= 1.0 + PROBABILITY_SLACK:
        raise NumericalIntegrityError(
            f"{name} produced {value} at gamma={gamma}, "
            f"transmit SNR {transmit_snr_db} dB")
    flags = _NO_FLAGS if spec.pointing.beamwidth_valid else _BEAMWIDTH_FLAGS
    return specfun.KernelValue(min(max(value, 0.0), 1.0), flags)


def fso_snr_cdf(gamma: float, spec: FsoLinkSpec,
                transmit_snr_db: float) -> specfun.KernelValue:
    """P(gamma_F <= gamma) for either detection type: the residue series of
    :func:`_residue_cdf` where it converges unflagged, elsewhere the
    scintillation-conditioned form of :func:`_by_scintillation`."""
    return _probability(gamma, spec, transmit_snr_db, survival=False)


def fso_snr_survival(gamma: float, spec: FsoLinkSpec,
                     transmit_snr_db: float) -> specfun.KernelValue:
    """P(gamma_F > gamma) on the route of :func:`fso_snr_cdf`: 1 minus the
    residue series, or the smaller side's complement of
    :func:`_by_scintillation`, which keeps its digits where the CDF rounds
    to 1.  The two sum to 1 to the larger's rounding."""
    return _probability(gamma, spec, transmit_snr_db, survival=True)
