"""Closed-form outage, diversity, ergodic-capacity and ABER expressions.

Both backhaul SNRs are a fading ceiling gamma_max times a power-law pointing
loss, P(gamma <= g | gamma_max) = min(1, (g / gamma_max)^k) (Farid &
Hranilovic, J. Lightwave Technol. 25(7), 2007), and each link module gives
a fixed rule over its fading variate for E[g(gamma_max)]
(:func:`channel_fso.fso_ceiling_rule`, :func:`channel_thz.thz_ceiling_rule`).
Two link-agnostic kernels run on such a rule: Craig's form of erfc turns
the ABER above a threshold into a truncated moment of the power law
(:func:`_craig_aber`), and the capacity above a threshold is the
conditional mean of log2(1 + xi gamma) on a tanh-sinh rule
(:func:`_capacity_on_rule`).  Every integrand is positive, so no value is
a difference of nearly equal terms.  The Gamma-distributed access SNR takes
integration by parts against the incomplete gamma survival and Craig's form
again.  The printed Meijer-G capacity identities stay as the
``closed_form_only`` variant.  Every routine here has a direct-quadrature
counterpart in the test suite acting as the master oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import channel_access, channel_fso, channel_thz, specfun
from .errors import DomainError, MeijerGUnsupportedError
from .switching import (HardPolicy, SwitchPolicy, activation_threshold,
                        hard_combined_outage, soft_combined_outage,
                        soft_fso_off_probability)

__all__ = [
    "Modulation",
    "SystemSpec",
    "DiversityOrders",
    "outage_fso",
    "outage_thz",
    "outage_access",
    "outage_hybrid",
    "outage_e2e",
    "outage_link",
    "capacity_link",
    "aber_link",
    "asymptotic_cdf_fso",
    "asymptotic_cdf_thz",
    "asymptotic_cdf_access",
    "asymptotic_outage",
    "diversity_order",
    "capacity_fso",
    "capacity_thz",
    "capacity_access",
    "capacity_hybrid",
    "capacity_e2e",
    "aber_fso",
    "aber_thz",
    "aber_access",
    "aber_hybrid",
    "aber_hybrid_unconditional",
    "aber_e2e",
]

KernelValue = specfun.KernelValue

# "Arbitrary large number" in the ln(x) ~ varpi (x^(1/varpi) - 1) step of the
# printed lower capacity identities (the ``closed_form_only`` variant).
VARPI = 1e4

# Craig's theta over (0, pi/2) as (pi/2) t^2, on 64 Gauss-Legendre nodes in
# t: the squares crowd the nodes toward theta = 0, where at a zero threshold
# the integrand, averaged over small SNR ceilings, rises like theta^(2k)
# from corners near sqrt(B gamma_max).
_CRAIG_T, _CRAIG_WEIGHTS = np.polynomial.legendre.leggauss(64)
_CRAIG_T = 0.5 * (_CRAIG_T + 1.0)
_CRAIG_WEIGHTS = 0.5 * math.pi * _CRAIG_T * _CRAIG_WEIGHTS
_CRAIG_INV_SIN2 = 1.0 / np.sin(0.5 * math.pi * _CRAIG_T ** 2) ** 2
# The access capacity's fixed Gauss-Legendre rule: 16 nodes on each panel
# between these edges, as fractions of the u range; the geometric panels at
# the lower end resolve the Q(k, r u) ~ 1 - c u^k corner of a zero threshold.
_CAPACITY_EDGES = np.concatenate(([0.0], 4.0 ** np.arange(-12, -2),
                                  np.arange(1, 17) / 16.0))
_CAPACITY_NODES, _CAPACITY_WEIGHTS = np.polynomial.legendre.leggauss(16)
# terms of the positive series of :func:`_lower_moment`
LOWER_MOMENT_TERMS = 30
# Tanh-sinh rule on (0, 1) for the conditional capacity given the ceiling:
# step 1/12 out to 3.5, where the weights fall to 1e-22.  Its nodes
# crowd both ends, where the inner integrand has a boundary layer of width
# 1/k (near the ceiling) and a (gamma / gamma_max)^k corner (a zero
# threshold); against quadrature it keeps about 1e-14 relative accuracy.
_TS_J = np.arange(-42, 43) / 12.0
_TS_S = 0.5 * math.pi * np.sinh(_TS_J)
_TS_NODES = 1.0 / (1.0 + np.exp(-2.0 * _TS_S))
_TS_COMPLEMENTS = 1.0 / (1.0 + np.exp(2.0 * _TS_S))     # 1 - _TS_NODES
_TS_WEIGHTS = (math.pi / 48.0) * np.cosh(_TS_J) / np.cosh(_TS_S) ** 2

# The printed capacity identities approximate the part below the threshold;
# where one is further than this, relatively, from the production kernel its
# row says so.
PRINTED_CAPACITY_RTOL = 1e-6
FLAG_LOW_SNR_CAPACITY = "capacity-low-snr-approx"
_NO_FLAGS = frozenset()


def __getattr__(name: str):
    # ``perfbench/tracing.py`` wraps ``metrics_analytic.integrate.quad`` by
    # attribute, and is the only reader of this name: nothing here
    # integrates numerically, so scipy.integrate loads only when it is read.
    if name == "integrate":
        from scipy import integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class Modulation:
    """Conditional-error-probability parameters A * erfc(sqrt(B_p gamma)).

    ``scheme`` is one of ook/bpsk/mpsk/mqam; OOK implies IM/DD (tau = 2) at
    the FSO receiver, everything else heterodyne (tau = 1).
    """

    scheme: str
    order: int = 0

    def __post_init__(self):
        if self.scheme not in ("ook", "bpsk", "mpsk", "mqam"):
            raise DomainError(f"unknown modulation scheme {self.scheme!r}")
        if self.scheme in ("mpsk", "mqam"):
            m = self.order
            if m < 4 or (m & (m - 1)) != 0:
                raise DomainError(
                    f"{self.scheme} order must be a power of 2 >= 4, got {m}")
            if self.scheme == "mqam" and int(math.isqrt(m)) ** 2 != m:
                raise DomainError(f"mqam order must be a perfect square, got {m}")

    @classmethod
    def ook(cls) -> "Modulation":
        return cls("ook")

    @classmethod
    def bpsk(cls) -> "Modulation":
        return cls("bpsk")

    @classmethod
    def mpsk(cls, order: int) -> "Modulation":
        return cls("mpsk", order)

    @classmethod
    def mqam(cls, order: int) -> "Modulation":
        return cls("mqam", order)

    @property
    def name(self) -> str:
        if self.scheme in ("ook", "bpsk"):
            return self.scheme
        suffix = "psk" if self.scheme == "mpsk" else "qam"
        return f"{self.order}{suffix}"

    @property
    def tau(self) -> int:
        return 2 if self.scheme == "ook" else 1

    @property
    def n0(self) -> int:
        if self.scheme in ("ook", "bpsk"):
            return 1
        if self.scheme == "mpsk":
            return max(self.order // 4, 1)
        return math.isqrt(self.order) // 2

    @property
    def a(self) -> float:
        if self.scheme in ("ook", "bpsk"):
            return 0.5
        if self.scheme == "mpsk":
            return 1.0 / max(2.0, math.log2(self.order))
        return 2.0 / math.log2(self.order) * (1.0 - 1.0 / math.sqrt(self.order))

    @property
    def b_list(self) -> tuple:
        if self.scheme == "ook":
            return (0.5,)
        if self.scheme == "bpsk":
            return (1.0,)
        if self.scheme == "mpsk":
            return tuple(math.sin((2 * p - 1) * math.pi / self.order) ** 2
                         for p in range(1, self.n0 + 1))
        return tuple(3.0 * (2 * p - 1) ** 2 / (2.0 * (self.order - 1))
                     for p in range(1, self.n0 + 1))


@dataclass(frozen=True, slots=True)
class SystemSpec:
    """Full dual-hop scenario: three links, switch policy, thresholds, power."""

    fso: channel_fso.FsoLinkSpec
    thz: channel_thz.ThzLinkSpec
    access: channel_access.AccessLinkSpec
    policy: SwitchPolicy
    gamma_r_th: float
    transmit_snr_db: float

    def __post_init__(self):
        if not self.gamma_r_th > 0:
            raise DomainError("gamma_r_th must be positive")

    def at_snr(self, transmit_snr_db: float) -> "SystemSpec":
        return SystemSpec(self.fso, self.thz, self.access, self.policy,
                          self.gamma_r_th, transmit_snr_db)


def _merge(value: float, *parts: KernelValue) -> KernelValue:
    """``value`` with the union of the parts' flags; a part's flag set is
    reused, not copied, wherever it already holds all the others."""
    flags = _NO_FLAGS
    for part in parts:
        if not part.flags <= flags:
            flags = part.flags if flags <= part.flags else flags | part.flags
    return KernelValue(value, flags)


# ---------------------------------------------------------------------------
# Outage
# ---------------------------------------------------------------------------

def outage_fso(spec: SystemSpec, gamma_th: float) -> KernelValue:
    return channel_fso.fso_snr_cdf(gamma_th, spec.fso, spec.transmit_snr_db)


def outage_thz(spec: SystemSpec, gamma_th: float) -> KernelValue:
    return channel_thz.thz_snr_cdf(gamma_th, spec.thz, spec.transmit_snr_db)


def outage_access(spec: SystemSpec) -> KernelValue:
    return KernelValue(channel_access.access_snr_cdf(
        spec.gamma_r_th, spec.access, spec.transmit_snr_db))


def outage_hybrid(spec: SystemSpec) -> KernelValue:
    """Hybrid FSO/THz outage under the configured switching policy."""
    pol = spec.policy
    if isinstance(pol, HardPolicy):
        ff = outage_fso(spec, pol.gamma_th)
        ft = outage_thz(spec, pol.gamma_th)
        return _merge(hard_combined_outage(pol.gamma_th, ff.value, ft.value), ff, ft)
    fu = outage_fso(spec, pol.gamma_f_th_u)
    fl = outage_fso(spec, pol.gamma_f_th_l)
    ft = outage_thz(spec, pol.gamma_t_th)
    return _merge(soft_combined_outage(pol, fu.value, fl.value, ft.value),
                  fu, fl, ft)


def outage_link(spec: SystemSpec, link: str) -> KernelValue:
    """Per-link outage under the configured policy.

    Under soft switching the FSO figure is the hysteresis off-probability
    (not a plain CDF), matching what the trace estimator measures.
    """
    pol = spec.policy
    if link == "fso":
        if isinstance(pol, HardPolicy):
            return outage_fso(spec, pol.gamma_th)
        fu = outage_fso(spec, pol.gamma_f_th_u)
        fl = outage_fso(spec, pol.gamma_f_th_l)
        return _merge(soft_fso_off_probability(
            fl.value, fu.value - fl.value, 1.0 - fu.value), fu, fl)
    if link == "thz":
        return outage_thz(spec, activation_threshold(pol, link))
    if link == "access":
        return outage_access(spec)
    if link == "hybrid":
        return outage_hybrid(spec)
    if link == "e2e":
        return outage_e2e(spec)
    raise DomainError(f"unknown link {link!r}")


def capacity_link(spec: SystemSpec, link: str) -> KernelValue:
    """Per-link ergodic capacity at the policy's activation threshold."""
    if link == "fso":
        return capacity_fso(activation_threshold(spec.policy, link), spec)
    if link == "thz":
        return capacity_thz(activation_threshold(spec.policy, link), spec)
    if link == "access":
        return capacity_access(spec.gamma_r_th, spec)
    if link == "hybrid":
        return capacity_hybrid(spec)
    if link == "e2e":
        return capacity_e2e(spec)
    raise DomainError(f"unknown link {link!r}")


def aber_link(spec: SystemSpec, mod: "Modulation", link: str) -> KernelValue:
    """Per-link ABER at the policy's activation threshold."""
    if link == "fso":
        return aber_fso(activation_threshold(spec.policy, link), spec, mod)
    if link == "thz":
        return aber_thz(activation_threshold(spec.policy, link), spec, mod)
    if link == "access":
        return aber_access(spec.gamma_r_th, spec, mod)
    if link == "hybrid":
        return aber_hybrid(spec, mod)
    if link == "e2e":
        return aber_e2e(spec, mod)
    raise DomainError(f"unknown link {link!r}")


def outage_e2e(spec: SystemSpec) -> KernelValue:
    """Selective-DF end-to-end outage 1 - (1 - P_hyb)(1 - P_access).

    Evaluated as P_hyb + P_acc - P_hyb P_acc, which stays accurate deep in
    the high-SNR tail where the factored form would round to zero.
    """
    hyb = outage_hybrid(spec)
    acc = outage_access(spec)
    value = hyb.value + acc.value - hyb.value * acc.value
    return _merge(value, hyb, acc)


# ---------------------------------------------------------------------------
# Asymptotics and diversity
# ---------------------------------------------------------------------------

def _closed_form_blocks(fso: channel_fso.FsoLinkSpec) -> tuple:
    """The FSO link's Meijer-G CDF blocks, for the forms built on them."""
    if fso.cdf_blocks is None:
        raise DomainError("the Gamma-Gamma shapes put the closed-form FSO "
                          "CDF constant beyond the double range")
    return fso.cdf_blocks


def asymptotic_cdf_fso(gamma: float, fso: channel_fso.FsoLinkSpec,
                       transmit_snr_db: float) -> float:
    """High-SNR FSO CDF: the leading residue of each pole family of the
    closed form that :func:`channel_fso.fso_snr_cdf` sums in full."""
    tau = fso.detection_tau
    rho1, rho2, d1, d2 = _closed_form_blocks(fso)
    z = d2 * gamma / (fso.pointing.a0 ** tau * fso.delta_tau(transmit_snr_db))
    return d1 * specfun.meijer_g_leading(specfun.MeijerGSpec(
        a_front=(1.0,), a_back=rho1, b_front=rho2, b_back=(0.0,), z=z))


def asymptotic_cdf_thz(gamma: float, thz: channel_thz.ThzLinkSpec,
                       transmit_snr_db: float) -> float:
    """Two-term high-SNR THz CDF."""
    gbar = thz.gamma_bar(transmit_snr_db)
    xi2 = thz.xi_t ** 2
    c1, c2, c3 = thz.c1, thz.c2, thz.c3
    ratio = gamma / gbar
    term1 = c1 * math.gamma(c2) / xi2 * ratio ** (xi2 / 2.0)
    anrmu = thz.alpha * thz.n_rx * thz.mu
    term2 = c1 * c3 ** c2 / (c2 * anrmu) * ratio ** (anrmu / 2.0)
    return term1 - term2


def asymptotic_cdf_access(gamma: float, access: channel_access.AccessLinkSpec,
                          transmit_snr_db: float) -> float:
    """Leading Gamma-CDF term (m gamma / gamma_bar_R)^(m N_t) / Gamma(m N_t + 1)."""
    k = access.shape
    x = access.rate(transmit_snr_db) * gamma
    return math.exp(k * math.log(x) - math.lgamma(k + 1.0))


def asymptotic_outage(spec: SystemSpec, link: str = "e2e") -> float:
    """High-SNR outage approximation for a link or the E2E composition,
    from the asymptotic CDFs of only the links that ``link`` composes."""
    pol, snr = spec.policy, spec.transmit_snr_db
    if link == "access":
        return asymptotic_cdf_access(spec.gamma_r_th, spec.access, snr)
    if link == "thz":
        return asymptotic_cdf_thz(activation_threshold(pol, "thz"), spec.thz, snr)
    if link not in ("fso", "hybrid", "e2e"):
        raise DomainError(f"unknown link {link!r}")
    if isinstance(pol, HardPolicy):
        f_fso = asymptotic_cdf_fso(pol.gamma_th, spec.fso, snr)
    else:
        p_low = asymptotic_cdf_fso(pol.gamma_f_th_l, spec.fso, snr)
        p_hig = 1.0 - asymptotic_cdf_fso(pol.gamma_f_th_u, spec.fso, snr)
        f_fso = p_low / (p_low + p_hig)
    if link == "fso":
        return f_fso
    f_hyb = f_fso * asymptotic_outage(spec, "thz")
    if link == "hybrid":
        return f_hyb
    return f_hyb + asymptotic_outage(spec, "access")


@dataclass(frozen=True)
class DiversityOrders:
    fso: float
    thz: float
    hybrid: float
    access: float
    e2e: float


def diversity_order(spec: SystemSpec) -> DiversityOrders:
    """min-rule diversity orders of every link and the E2E composition."""
    tau = spec.fso.detection_tau
    xi2_f = spec.fso.pointing.xi ** 2
    d_fso = min(xi2_f / tau, spec.fso.alpha_f / tau, spec.fso.beta_f / tau)
    xi2_t = spec.thz.xi_t ** 2
    anrmu = spec.thz.alpha * spec.thz.n_rx * spec.thz.mu
    d_thz = min(xi2_t / 2.0, anrmu / 2.0)
    fso_terms = (xi2_f / tau, spec.fso.alpha_f / tau, spec.fso.beta_f / tau)
    thz_terms = (xi2_t / 2.0, anrmu / 2.0)
    d_hyb = min(f + t for f in fso_terms for t in thz_terms)
    d_acc = spec.access.shape
    return DiversityOrders(d_fso, d_thz, d_hyb, d_acc, min(d_hyb, d_acc))


# ---------------------------------------------------------------------------
# Ergodic capacity
# ---------------------------------------------------------------------------

def _xi_factor(tau: int) -> float:
    """Capacity SNR prefactor: e/(2 pi) for IM/DD (lower bound), 1 otherwise."""
    return math.e / (2.0 * math.pi) if tau == 2 else 1.0


def _capacity_on_rule(gamma_th: float, k: float, xi: float,
                      gmax: np.ndarray, w: np.ndarray) -> float:
    """sum_i w_i E[log2(1 + xi gamma); gamma > gamma_th | gamma_max_i].

    Given the ceiling M > gamma_th, with P(gamma <= g | M) = (g / M)^k,
    integration by parts in u = ln(1 + xi gamma) leaves two positive terms,

        ln 2 E[...| M] = u_th (1 - (gamma_th / M)^k)
                         + int_{u_th}^{u_M} 1 - (gamma(u) / M)^k du,

    the second on the tanh-sinh rule in x = u_M - u over (0, u_M - u_th).
    There q = gamma / M is expm1(u) / (xi M) and 1 - q is (1 + 1 / (xi M))
    (1 - e^-x), each taken from the end of the range where it is small.
    """
    a = xi * gmax
    u_th = math.log1p(xi * gamma_th)
    span = np.log1p(xi * (gmax - gamma_th) / (1.0 + xi * gamma_th))
    x = span[:, None] * _TS_NODES
    q = np.expm1(u_th + span[:, None] * _TS_COMPLEMENTS) / a[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_q = np.where(q < 0.5, np.log(q),
                         np.log1p(np.expm1(-x) * (1.0 + 1.0 / a)[:, None]))
    inner = span * (-np.expm1(k * log_q) @ _TS_WEIGHTS)
    head = -u_th * np.expm1(k * np.log(gamma_th / gmax)) if gamma_th > 0.0 else 0.0
    return float(np.dot(w, head + inner)) / math.log(2.0)


def _low_snr_flagged(printed: KernelValue, kernel: KernelValue) -> KernelValue:
    """A printed capacity identity, flagged ``capacity-low-snr-approx`` where
    it lies further than PRINTED_CAPACITY_RTOL, relatively, from the
    production kernel's value."""
    if abs(printed.value - kernel.value) > PRINTED_CAPACITY_RTOL * kernel.value:
        return printed.with_flags(FLAG_LOW_SNR_CAPACITY)
    return printed


def _printed_capacity_fso(gamma_th: float, spec: SystemSpec) -> KernelValue:
    """The source's FSO capacity identity: the full-range Meijer-G term
    minus, above a zero threshold, the varpi identity of the part below."""
    fso = spec.fso
    tau = fso.detection_tau
    rho1, rho2, d1, d2 = _closed_form_blocks(fso)
    xi = _xi_factor(tau)
    scale = fso.pointing.a0 ** tau * fso.delta_tau(spec.transmit_snr_db)
    g = specfun.meijer_g(specfun.MeijerGSpec(
        a_front=(0.0,), a_back=(1.0,) + rho1,
        b_front=rho2 + (0.0, 0.0), b_back=(), z=d2 / (xi * scale)))
    upper = KernelValue(d1 / math.log(2.0) * g.value, g.flags)
    if gamma_th == 0.0:
        return upper
    inv = 1.0 / VARPI
    ga, gb = (specfun.meijer_g(specfun.MeijerGSpec(
        a_front=(1.0 - shift,), a_back=rho1, b_front=rho2, b_back=(-shift,),
        z=d2 * gamma_th / scale)) for shift in (inv, 0.0))
    lower = (d1 * VARPI / math.log(2.0)
             * ((xi * gamma_th) ** inv * ga.value - gb.value))
    return _merge(upper.value - lower, upper, ga, gb)


def capacity_fso(gamma_th: float, spec: SystemSpec,
                 closed_form_only: bool = False) -> KernelValue:
    """Ergodic capacity of the FSO link above ``gamma_th`` in bits/s/Hz.

    :func:`_capacity_on_rule` on :func:`channel_fso.fso_ceiling_rule`, with
    k = xi^2 / tau and the IM/DD prefactor of :func:`_xi_factor`.
    ``closed_form_only`` gives the source's printed identity instead.
    """
    if gamma_th < 0:
        raise DomainError("gamma_th must be >= 0")
    if closed_form_only:
        return _low_snr_flagged(_printed_capacity_fso(gamma_th, spec),
                                capacity_fso(gamma_th, spec))
    fso = spec.fso
    tau = fso.detection_tau
    gmax, w = channel_fso.fso_ceiling_rule(gamma_th, math.inf, fso,
                                           spec.transmit_snr_db)
    return KernelValue(_capacity_on_rule(
        gamma_th, fso.pointing.xi ** 2 / tau, _xi_factor(tau), gmax, w))


def _printed_capacity_thz(gamma_th: float, spec: SystemSpec) -> KernelValue:
    """The source's THz capacity identity, as :func:`_printed_capacity_fso`.
    Its full-range term comes from Gauss multiplication of order alpha, so
    it exists for integer alpha only."""
    thz = spec.thz
    alpha = thz.alpha
    if abs(alpha - round(alpha)) > 1e-9:
        raise DomainError(
            f"the printed THz capacity identity needs an integer alpha, got {alpha}")
    ai = int(round(alpha))
    gbar = thz.gamma_bar(spec.transmit_snr_db)
    c = thz.xi_t ** 2 / 2.0
    rho3 = (tuple((j - c - 1.0) / alpha for j in range(1, ai + 1))
            + tuple((j - c) / alpha for j in range(1, ai + 1))
            + (0.5, 1.0))
    rho4 = ((0.0, 0.5, thz.c2 / 2.0, (thz.c2 + 1.0) / 2.0)
            + tuple((j - 1.0 - c) / alpha for j in range(1, ai + 1)) * 2)
    g = specfun.meijer_g(specfun.MeijerGSpec(
        a_front=rho3[:ai], a_back=rho3[ai:], b_front=rho4, b_back=(),
        z=thz.c3 ** 2 / (4.0 * gbar ** alpha)))
    logv = (thz.log_c1 + (thz.c2 - 1.5) * math.log(2.0)
            - math.log(math.log(2.0)) - c * math.log(gbar) - math.log(alpha)
            - (alpha - 0.5) * math.log(2.0 * math.pi)
            + (math.log(g.value) if g.value > 0.0 else -math.inf))
    upper = KernelValue(math.exp(logv) if logv > -745.0 else 0.0, g.flags)
    if gamma_th == 0.0:
        return upper
    # the THz CDF's G^{2,1}_{2,3} factors, the first with rho shifted, by
    # their incomplete-gamma reduction as in channel_thz.thz_snr_cdf
    z = thz.c3 * (gamma_th / gbar) ** (alpha / 2.0)
    ga, gb = (_igamma_reduction(rho, thz.c2, z)
              for rho in ((2.0 * c + 2.0 / VARPI) / alpha, 2.0 * c / alpha))
    log_ratio = c * math.log(gamma_th / gbar)
    pref = thz.c1 * VARPI / (math.log(2.0) * alpha)
    pref *= math.exp(log_ratio) if log_ratio > -745.0 else 0.0
    lower = pref * (gamma_th ** (1.0 / VARPI) * ga - gb)
    return KernelValue(upper.value - lower, upper.flags)


def _igamma_reduction(rho: float, beta: float, z: float) -> float:
    """G^{2,1}_{2,3}[z | (1-rho, 1); (0, beta, -rho)] from
    :func:`specfun.igamma_reduction_log`, where it is a double."""
    log_g = specfun.igamma_reduction_log(rho, beta, z)
    if log_g > 709.0:
        raise MeijerGUnsupportedError(
            "incomplete-gamma reduction exceeds the double range")
    return math.exp(log_g) if log_g > -745.0 else 0.0


def capacity_thz(gamma_th: float, spec: SystemSpec,
                 closed_form_only: bool = False) -> KernelValue:
    """Ergodic capacity of the THz link above ``gamma_th`` in bits/s/Hz.

    :func:`_capacity_on_rule` on :func:`channel_thz.thz_ceiling_rule` with
    k = xi^2 / 2; ``closed_form_only`` as in :func:`capacity_fso`.
    """
    if gamma_th < 0:
        raise DomainError("gamma_th must be >= 0")
    if closed_form_only:
        return _low_snr_flagged(_printed_capacity_thz(gamma_th, spec),
                                capacity_thz(gamma_th, spec))
    gmax, w = channel_thz.thz_ceiling_rule(gamma_th, math.inf, spec.thz,
                                           spec.transmit_snr_db)
    return KernelValue(_capacity_on_rule(
        gamma_th, spec.thz.xi_t ** 2 / 2.0, 1.0, gmax, w))


def capacity_access(gamma_r_th: float, spec: SystemSpec) -> KernelValue:
    """Ergodic capacity of the mmWave access link above ``gamma_r_th``.

    Integration by parts in u = ln(1 + gamma), with Q(k, x) the regularized
    upper incomplete gamma (the survival of the Gamma(k, rate r) SNR),
        C ln 2 = ln(1 + gamma_th) Q(k, r gamma_th)
                 + int_{ln(1 + gamma_th)}^inf Q(k, r (e^u - 1)) du,
    leaves two non-negative terms.  The integral stops where Q falls to
    1e-300.
    """
    if gamma_r_th < 0:
        raise DomainError("gamma_r_th must be >= 0")
    k = spec.access.shape
    rate = spec.access.rate(spec.transmit_snr_db)
    u_lo = math.log1p(gamma_r_th)
    u_hi = max(math.log1p(special.gammainccinv(k, 1e-300) / rate), u_lo)
    edges = u_lo + (u_hi - u_lo) * _CAPACITY_EDGES
    half = np.diff(edges)[:, None] / 2.0
    u = edges[:-1, None] + half * (_CAPACITY_NODES + 1.0)
    tail = np.sum(half * _CAPACITY_WEIGHTS
                  * special.gammaincc(k, rate * np.expm1(u)))
    head = u_lo * special.gammaincc(k, rate * gamma_r_th)
    return KernelValue(float(head + tail) / math.log(2.0))


def _fso_states(spec: SystemSpec):
    """((gamma_u, gamma_l, gamma_t), p_off, p_on, parts) of the hybrid link.

    The thresholds are one value for a hard policy.  p_off is the FSO
    side's hysteresis off-probability and p_on = p_hig / (p_low + p_hig)
    its complement, with p_hig the survival above gamma_u taken directly:
    p_on keeps its digits where the FSO side is almost never on.
    """
    pol = spec.policy
    if isinstance(pol, HardPolicy):
        pol = pol.as_soft()
    g_u, g_l = pol.gamma_f_th_u, pol.gamma_f_th_l
    snr = spec.transmit_snr_db
    fu = outage_fso(spec, g_u)
    su = channel_fso.fso_snr_survival(g_u, spec.fso, snr)
    fl = fu if g_l == g_u else outage_fso(spec, g_l)
    p_off = soft_fso_off_probability(fl.value, fu.value - fl.value, su.value)
    p_on = su.value / (fl.value + su.value)
    return (g_u, g_l, pol.gamma_t_th), p_off, p_on, (fu, su, fl)


def _switched(states, fso_term, thz_term) -> KernelValue:
    """E[f(gamma); the hybrid link transmits] from each link's expectation
    above a threshold: FSO above gamma_u, FSO in the mid-band while it stays
    on, and THz above gamma_t while the FSO side is off."""
    (g_u, g_l, g_t), p_off, p_on, parts = states
    fu = fso_term(g_u)
    fl = fu if g_l == g_u else fso_term(g_l)
    t = thz_term(g_t)
    return _merge(fu.value + p_off * t.value + (fl.value - fu.value) * p_on,
                  fu, fl, t, *parts)


def capacity_hybrid(spec: SystemSpec) -> KernelValue:
    """Hybrid backhaul capacity under the configured switching policy."""
    return _switched(_fso_states(spec), lambda g: capacity_fso(g, spec),
                     lambda g: capacity_thz(g, spec))


def capacity_e2e(spec: SystemSpec) -> KernelValue:
    """End-to-end capacity: min of the backhaul and access ergodic capacities."""
    hyb = capacity_hybrid(spec)
    acc = capacity_access(spec.gamma_r_th, spec)
    return _merge(min(hyb.value, acc.value), hyb, acc)


# ---------------------------------------------------------------------------
# ABER
# ---------------------------------------------------------------------------

def _require_tau_match(spec: SystemSpec, mod: Modulation) -> None:
    if mod.tau != spec.fso.detection_tau:
        raise DomainError(
            f"modulation {mod.name} implies FSO detection tau={mod.tau}, "
            f"spec has tau={spec.fso.detection_tau}")


def _lower_moment(k: float, x: np.ndarray) -> np.ndarray:
    """Gamma(k+1) x^-k P(k, x), i.e. E[e^(-x V)] for V with density
    k v^(k-1) on (0, 1).

    Below max(1, (k+1)/4) this is e^-x sum_n x^n / ((k+1)...(k+n)), a
    series of positive terms, each at most a quarter (or 1/n) of the one
    before, summed to LOWER_MOMENT_TERMS terms; above it the regularized
    gamma cannot underflow for k below about 1000.
    """
    out = np.empty_like(x)
    small = x < max(1.0, 0.25 * (k + 1.0))
    xs = x[small]
    acc = np.ones_like(xs)
    for n in range(LOWER_MOMENT_TERMS, 0, -1):
        acc = 1.0 + acc * xs / (k + n)
    out[small] = np.exp(-xs) * acc
    xl = x[~small]
    out[~small] = (np.exp(math.lgamma(k + 1.0) - k * np.log(xl))
                   * special.gammainc(k, xl))
    return out


def _upper_moment(k: float, x: np.ndarray) -> np.ndarray:
    """Gamma(k+1) x^-k Q(k, x), for x > k."""
    return np.exp(math.lgamma(k + 1.0) - k * np.log(x)) * special.gammaincc(k, x)


def _craig_knee(k: float, mod: Modulation) -> float:
    """gamma_knee of the envelope min(1, (gamma_knee / gamma_max)^k) that
    bounds the truncated moments of :func:`_craig_aber`."""
    return math.exp(math.lgamma(k + 1.0) / k) / min(mod.b_list)


def _craig_aber(gamma_th: float, k: float, gmax: np.ndarray, w: np.ndarray,
                mod: Modulation) -> float:
    """A sum_p E[erfc(sqrt(B_p gamma)); gamma > gamma_th] on a ceiling rule.

    Given the ceiling, gamma = gamma_max V with P(V <= v) = v^k.  Craig's
    form erfc(sqrt(B g)) = (2/pi) int_0^{pi/2} e^(-s g) dtheta, with s = B /
    sin^2 theta, leaves the truncated moment

        E[e^(-s gamma); gamma_th < gamma <= gamma_max | gamma_max]
            = Gamma(k+1) (s gamma_max)^-k [P(k, s gamma_max) - P(k, s gamma_th)]

    for gamma_max > gamma_th, taken as a difference of Q where s gamma_th
    > k, so that no two nearly equal terms cancel; every term is positive.
    theta runs on the rule of :func:`aber_access`.  The rule must
    start at gamma_lo = gamma_th, windowed on the envelope of
    :func:`_craig_knee`.
    """
    b = np.array(mod.b_list)
    s = (b[:, None] * _CRAIG_INV_SIN2).reshape(-1, 1)
    x_max = s * gmax
    x_th = s * gamma_th
    r_k = (gamma_th / gmax) ** k
    low = x_th[:, 0] <= k
    term = np.empty_like(x_max)
    term[low] = (_lower_moment(k, x_max[low])
                 - r_k * _lower_moment(k, x_th[low]))
    term[~low] = (r_k * _upper_moment(k, x_th[~low])
                  - _upper_moment(k, x_max[~low]))
    moments = (term @ w).reshape(len(b), -1)
    return 2.0 * mod.a / math.pi * float(np.sum(moments @ _CRAIG_WEIGHTS))


def aber_fso(gamma_th: float, spec: SystemSpec, mod: Modulation) -> KernelValue:
    """FSO error mass above gamma_th, A sum_p E[erfc(sqrt(B_p gamma)); gamma >
    gamma_th]: the FSO term of the hybrid ABER numerator.

    :func:`_craig_aber` on :func:`channel_fso.fso_ceiling_rule`, k = xi^2 /
    tau.  (The source composes this term as the full-range average plus the
    below-threshold one; the sign is a minus, and this form needs neither.)
    """
    _require_tau_match(spec, mod)
    if gamma_th < 0:
        raise DomainError("gamma_th must be >= 0")
    fso = spec.fso
    k = fso.pointing.xi ** 2 / fso.detection_tau
    gmax, w = channel_fso.fso_ceiling_rule(gamma_th, _craig_knee(k, mod), fso,
                                           spec.transmit_snr_db)
    return KernelValue(_craig_aber(gamma_th, k, gmax, w, mod))


def aber_thz(gamma_th: float, spec: SystemSpec, mod: Modulation) -> KernelValue:
    """THz error mass above gamma_th, A sum_p E[erfc(sqrt(B_p gamma)); gamma >
    gamma_th]: :func:`_craig_aber` on :func:`channel_thz.thz_ceiling_rule`,
    k = xi^2 / 2."""
    if gamma_th < 0:
        raise DomainError("gamma_th must be >= 0")
    k = spec.thz.xi_t ** 2 / 2.0
    gmax, w = channel_thz.thz_ceiling_rule(gamma_th, _craig_knee(k, mod),
                                           spec.thz, spec.transmit_snr_db)
    return KernelValue(_craig_aber(gamma_th, k, gmax, w, mod))


def aber_access(gamma_r_th: float, spec: SystemSpec, mod: Modulation) -> KernelValue:
    """Average BER of the mmWave access link above ``gamma_r_th``.

    Craig's form erfc(x) = (2/pi) int_0^{pi/2} exp(-x^2 / sin^2 theta) dtheta
    turns each term into a truncated moment of the Gamma(k, rate r) SNR,
        E[exp(-s gamma); gamma > gamma_th] = (r/s)^k Q(k, s gamma_th),
    s = r + B_p / sin^2 theta, so the integrand over theta is never negative;
    it runs on a fixed 64-node rule (Gauss-Legendre in sqrt(theta)).
    """
    if gamma_r_th < 0:
        raise DomainError("gamma_r_th must be >= 0")
    k = spec.access.shape
    rate = spec.access.rate(spec.transmit_snr_db)
    s = rate + np.array(mod.b_list)[:, None] * _CRAIG_INV_SIN2
    moments = (rate / s) ** k * special.gammaincc(k, s * gamma_r_th)
    return KernelValue(2.0 * mod.a / math.pi
                       * float(np.sum(moments @ _CRAIG_WEIGHTS)))


def _aber_numerator(spec: SystemSpec, mod: Modulation, states) -> KernelValue:
    return _switched(states, lambda g: aber_fso(g, spec, mod),
                     lambda g: aber_thz(g, spec, mod))


def aber_hybrid_unconditional(spec: SystemSpec, mod: Modulation) -> KernelValue:
    """Numerator of the hybrid ABER: error mass carried by transmitted slots."""
    _require_tau_match(spec, mod)
    return _aber_numerator(spec, mod, _fso_states(spec))


def aber_hybrid(spec: SystemSpec, mod: Modulation) -> KernelValue:
    """Hybrid-link ABER normalized by the non-outage probability.

    1 - P_out is built from survivals, p_on + p_off P(gamma_T > gamma_t),
    not as 1 minus an outage near 1.
    """
    _require_tau_match(spec, mod)
    states = _fso_states(spec)
    (_, _, g_t), p_off, p_on, _ = states
    num = _aber_numerator(spec, mod, states)
    st = channel_thz.thz_snr_survival(g_t, spec.thz, spec.transmit_snr_db)
    return _merge(num.value / (p_on + p_off * st.value), num, st)


def aber_e2e(spec: SystemSpec, mod: Modulation) -> KernelValue:
    """End-to-end ABER: independent bit-flip composition of the two hops."""
    b1 = aber_hybrid(spec, mod)
    b2 = aber_access(spec.gamma_r_th, spec, mod)
    return _merge(b1.value + b2.value - 2.0 * b1.value * b2.value, b1, b2)
