"""Closed-form outage, diversity, ergodic-capacity and ABER expressions.

The FSO and THz capacities and the THz ABER compose their link SNR laws
through Meijer-G identities; their alternating lower-tail series carry the
shared truncation policy and switch to quadrature where cancellation would
dominate (erfc-series arguments beyond 25).  The FSO ABER above threshold
and the access hop's capacity and ABER are evaluated on forms whose
integrand is never negative: Craig's form of erfc on the FSO SNR given the
scintillation, and for the Gamma-distributed access SNR integration by
parts against the incomplete gamma survival and Craig's form again.  Every
routine here has a direct-quadrature counterpart in the test suite acting
as the master oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from . import channel_access, channel_fso, channel_thz, specfun
from .errors import DomainError
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
# lower capacity identities; doubling it must move the result by < 1e-4
# relative or the lower integral is done by quadrature instead.
VARPI = 1e4

# Alternating erfc-series arguments beyond this bound lose too many digits
# to cancellation; the lower-tail integrals switch to quadrature there.
ERFC_SERIES_MAX_ARG = 25.0

# Beyond this Meijer-G argument the shifted-parameter series terms of the
# lower-tail identities degrade (deep cancellation in every inner G), so the
# lower tail is integrated numerically instead.
LOWER_SERIES_MAX_Z = 20.0

# Fixed Gauss-Legendre rules of the access-hop integrals.  ABER: 64 nodes in
# Craig's theta over (0, pi/2).  Capacity: 16 nodes on each panel between
# these edges, as fractions of the u range; the geometric panels at the lower
# end resolve the Q(k, r u) ~ 1 - c u^k corner of a zero threshold.
_CRAIG_NODES, _CRAIG_WEIGHTS = np.polynomial.legendre.leggauss(64)
_CRAIG_WEIGHTS = math.pi / 4.0 * _CRAIG_WEIGHTS
_CRAIG_INV_SIN2 = 1.0 / np.sin(math.pi / 4.0 * (_CRAIG_NODES + 1.0)) ** 2
_CAPACITY_EDGES = np.concatenate(([0.0], 4.0 ** np.arange(-12, -2),
                                  np.arange(1, 17) / 16.0))
_CAPACITY_NODES, _CAPACITY_WEIGHTS = np.polynomial.legendre.leggauss(16)
# terms of the positive series of the FSO ABER's lower incomplete moment
LOWER_MOMENT_TERMS = 30

FLAG_TAIL_QUADRATURE = "tail-quadrature"
FLAG_LOW_SNR_CAPACITY = "capacity-low-snr-approx"
FLAG_NONINT_ALPHA = "noninteger-alpha-quadrature"
_NO_FLAGS = frozenset()


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

def asymptotic_cdf_fso(gamma: float, fso: channel_fso.FsoLinkSpec,
                       transmit_snr_db: float) -> float:
    """High-SNR FSO CDF: the leading residue of each pole family."""
    tau = fso.detection_tau
    rho1, rho2, d1, d2 = channel_fso._cdf_blocks(fso)
    z = d2 * gamma / (fso.pointing.a0 ** tau * fso.delta_tau(transmit_snr_db))
    logz = math.log(z)
    total = 0.0
    for h, bp in enumerate(rho2):
        logmag = bp * logz
        sign = 1.0
        lg, sg = specfun._log_gamma_signed(bp)        # Gamma(1 - a1 + bp), a1 = 1
        logmag += lg
        sign *= sg
        for j, bq in enumerate(rho2):
            if j != h:
                lg, sg = specfun._log_gamma_signed(bq - bp)
                logmag += lg
                sign *= sg
        for aq in rho1:
            lg, sg = specfun._log_gamma_signed(aq - bp)
            logmag -= lg
            sign *= sg
        logmag -= math.lgamma(1.0 + bp)               # Gamma(1 - 0 + bp)
        total += sign * math.exp(logmag)
    return d1 * total


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
    """High-SNR outage approximation for a link or the E2E composition."""
    pol = spec.policy
    snr = spec.transmit_snr_db
    if isinstance(pol, HardPolicy):
        f_hyb = (asymptotic_cdf_fso(pol.gamma_th, spec.fso, snr)
                 * asymptotic_cdf_thz(pol.gamma_th, spec.thz, snr))
        f_fso = asymptotic_cdf_fso(pol.gamma_th, spec.fso, snr)
        f_thz = asymptotic_cdf_thz(pol.gamma_th, spec.thz, snr)
    else:
        p_low = asymptotic_cdf_fso(pol.gamma_f_th_l, spec.fso, snr)
        p_hig = 1.0 - asymptotic_cdf_fso(pol.gamma_f_th_u, spec.fso, snr)
        f_fso = p_low / (p_low + p_hig)
        f_thz = asymptotic_cdf_thz(pol.gamma_t_th, spec.thz, snr)
        f_hyb = f_fso * f_thz
    f_acc = asymptotic_cdf_access(spec.gamma_r_th, spec.access, snr)
    if link == "fso":
        return f_fso
    if link == "thz":
        return f_thz
    if link == "hybrid":
        return f_hyb
    if link == "access":
        return f_acc
    if link == "e2e":
        return f_hyb + f_acc
    raise DomainError(f"unknown link {link!r}")


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


def _exp_or_zero(logv: float) -> float:
    return math.exp(logv) if logv > -745.0 else 0.0


def _capacity_fso_upper(spec: SystemSpec) -> KernelValue:
    """Full-range FSO capacity term (threshold 0)."""
    fso = spec.fso
    tau = fso.detection_tau
    rho1, rho2, d1, d2 = channel_fso._cdf_blocks(fso)
    xi = _xi_factor(tau)
    z = d2 / (xi * fso.pointing.a0 ** tau * fso.delta_tau(spec.transmit_snr_db))
    g = specfun.meijer_g(specfun.MeijerGSpec(
        a_front=(0.0,), a_back=(1.0,) + rho1,
        b_front=rho2 + (0.0, 0.0), b_back=(), z=z))
    return KernelValue(d1 / math.log(2.0) * g.value, g.flags)


def _quad_capacity_fso_lower(gamma_th: float, spec: SystemSpec) -> float:
    xi = _xi_factor(spec.fso.detection_tau)

    def integrand(g):
        return (math.log1p(xi * g) / math.log(2.0)
                * channel_fso.fso_snr_pdf(g, spec.fso, spec.transmit_snr_db).value)

    val, _ = integrate.quad(integrand, 0.0, gamma_th, limit=200)
    return val


def _capacity_fso_lower(gamma_th: float, spec: SystemSpec,
                        allow_quadrature: bool = True) -> KernelValue:
    """Lower-tail capacity integral via the varpi identity, with self-check."""
    fso = spec.fso
    tau = fso.detection_tau
    rho1, rho2, d1, d2 = channel_fso._cdf_blocks(fso)
    xi = _xi_factor(tau)
    zth = d2 * gamma_th / (fso.pointing.a0 ** tau * fso.delta_tau(spec.transmit_snr_db))
    if allow_quadrature and zth > LOWER_SERIES_MAX_Z:
        return KernelValue(_quad_capacity_fso_lower(gamma_th, spec),
                           frozenset({FLAG_TAIL_QUADRATURE}))

    def theta2(varpi: float) -> KernelValue:
        inv = 1.0 / varpi
        ga = specfun.meijer_g(specfun.MeijerGSpec(
            a_front=(1.0 - inv,), a_back=rho1,
            b_front=rho2, b_back=(-inv,), z=zth))
        gb = specfun.meijer_g(specfun.MeijerGSpec(
            a_front=(1.0,), a_back=rho1,
            b_front=rho2, b_back=(0.0,), z=zth))
        val = (d1 * varpi / math.log(2.0)
               * ((xi * gamma_th) ** inv * ga.value - gb.value))
        return _merge(val, ga, gb)

    first = theta2(VARPI)
    second = theta2(2.0 * VARPI)
    scale = max(abs(first.value), abs(second.value), 1e-12)
    if allow_quadrature and abs(second.value - first.value) > 1e-4 * scale:
        return KernelValue(_quad_capacity_fso_lower(gamma_th, spec),
                           first.flags | {FLAG_TAIL_QUADRATURE})
    return first


LOW_SNR_MASS = 0.01


def capacity_fso(gamma_th: float, spec: SystemSpec,
                 closed_form_only: bool = False) -> KernelValue:
    """Ergodic capacity of the FSO link above ``gamma_th`` in bits/s/Hz.

    The full-range term is exact; the lower-tail term uses the large-varpi
    log identity, which is only accurate while the SNR mass below the
    threshold is negligible.  When that mass exceeds 1% the lower tail is
    escalated to direct quadrature and flagged; ``closed_form_only``
    suppresses the escalation to expose the printed identity as-is.
    """
    if gamma_th < 0:
        raise DomainError("gamma_th must be >= 0")
    upper = _capacity_fso_upper(spec)
    if gamma_th == 0.0:
        return upper
    mass = channel_fso.fso_snr_cdf(gamma_th, spec.fso, spec.transmit_snr_db)
    low_snr = mass.value > LOW_SNR_MASS
    if low_snr and not closed_form_only:
        lower = KernelValue(_quad_capacity_fso_lower(gamma_th, spec),
                            frozenset({FLAG_TAIL_QUADRATURE}))
    else:
        lower = _capacity_fso_lower(gamma_th, spec,
                                    allow_quadrature=not closed_form_only)
    out = _merge(max(upper.value - lower.value, 0.0), upper, lower)
    if low_snr:
        out = out.with_flags(FLAG_LOW_SNR_CAPACITY)
    return out


def _thz_cdf_g(gamma: float, spec: SystemSpec, shift: float = 0.0) -> KernelValue:
    """G^{2,1}_{2,3} factor of the THz CDF with the rho exponent shifted."""
    thz = spec.thz
    gbar = thz.gamma_bar(spec.transmit_snr_db)
    rho = thz.xi_t ** 2 / thz.alpha + shift
    z = thz.c3 * (gamma / gbar) ** (thz.alpha / 2.0)
    return specfun.meijer_g(specfun.MeijerGSpec(
        a_front=(1.0 - rho,), a_back=(1.0,),
        b_front=(0.0, thz.c2), b_back=(-rho,), z=z))


def _capacity_thz_upper(spec: SystemSpec) -> KernelValue:
    """Full-range THz capacity via the duplicated Meijer-G identity.

    The printed identity assumes integer alpha (it comes from Gauss
    multiplication of order alpha); non-integer alpha is answered by
    quadrature and flagged.
    """
    thz = spec.thz
    alpha = thz.alpha
    if abs(alpha - round(alpha)) > 1e-9:
        val = _quad_capacity_thz(0.0, math.inf, spec)
        return KernelValue(val, frozenset({FLAG_NONINT_ALPHA}))
    ai = int(round(alpha))
    gbar = thz.gamma_bar(spec.transmit_snr_db)
    xi2 = thz.xi_t ** 2
    c = xi2 / 2.0
    rho3 = (tuple((j - c - 1.0) / alpha for j in range(1, ai + 1))
            + tuple((j - c) / alpha for j in range(1, ai + 1))
            + (0.5, 1.0))
    rho4 = ((0.0, 0.5, thz.c2 / 2.0, (thz.c2 + 1.0) / 2.0)
            + tuple((j - 1.0 - c) / alpha for j in range(1, ai + 1)) * 2)
    z = thz.c3 ** 2 / (4.0 * gbar ** alpha)
    g = specfun.meijer_g(specfun.MeijerGSpec(
        a_front=rho3[:ai], a_back=rho3[ai:], b_front=rho4, b_back=(), z=z))
    if g.value <= 0.0:
        return KernelValue(0.0, g.flags)
    logv = (thz.log_c1 + (thz.c2 - 1.5) * math.log(2.0)
            - math.log(math.log(2.0)) - c * math.log(gbar) - math.log(alpha)
            - (alpha - 0.5) * math.log(2.0 * math.pi) + math.log(g.value))
    return KernelValue(_exp_or_zero(logv), g.flags)


def _quad_split(integrand, lo: float, hi: float, anchor: float) -> float:
    """Adaptive quadrature of a peaked integrand, split at a scale anchor."""
    if math.isinf(hi):
        mid = max(anchor, 2.0 * lo + 1e-12)
        if mid <= lo:
            val, _ = integrate.quad(integrand, lo, math.inf, limit=400)
            return val
        head, _ = integrate.quad(integrand, lo, mid, limit=400)
        tail, _ = integrate.quad(integrand, mid, math.inf, limit=400)
        return head + tail
    val, _ = integrate.quad(integrand, lo, hi, limit=400,
                            points=[anchor] if lo < anchor < hi else None)
    return val


def _quad_capacity_thz(lo: float, hi: float, spec: SystemSpec) -> float:
    def integrand(g):
        return (math.log1p(g) / math.log(2.0)
                * channel_thz.thz_snr_pdf(g, spec.thz, spec.transmit_snr_db).value)

    return _quad_split(integrand, lo, hi, spec.thz.gamma_bar(spec.transmit_snr_db))


def _capacity_thz_lower(gamma_th: float, spec: SystemSpec,
                        allow_quadrature: bool = True) -> KernelValue:
    thz = spec.thz
    gbar = thz.gamma_bar(spec.transmit_snr_db)
    xi2 = thz.xi_t ** 2

    def theta4(varpi: float) -> KernelValue:
        shift = 2.0 / (thz.alpha * varpi)
        ga = _thz_cdf_g(gamma_th, spec, shift=shift)
        gb = _thz_cdf_g(gamma_th, spec)
        pref = thz.c1 * varpi / (math.log(2.0) * thz.alpha)
        lg_ratio = xi2 / 2.0 * math.log(gamma_th / gbar)
        val = pref * (gamma_th ** (1.0 / varpi) * _exp_or_zero(lg_ratio) * ga.value
                      - _exp_or_zero(lg_ratio) * gb.value)
        return _merge(val, ga, gb)

    first = theta4(VARPI)
    second = theta4(2.0 * VARPI)
    scale = max(abs(first.value), abs(second.value), 1e-12)
    if allow_quadrature and abs(second.value - first.value) > 1e-4 * scale:
        return KernelValue(_quad_capacity_thz(0.0, gamma_th, spec),
                           first.flags | {FLAG_TAIL_QUADRATURE})
    return first


def capacity_thz(gamma_th: float, spec: SystemSpec,
                 closed_form_only: bool = False) -> KernelValue:
    """Ergodic capacity of the THz link above ``gamma_th`` in bits/s/Hz.

    Escalation policy mirrors :func:`capacity_fso`.
    """
    if gamma_th < 0:
        raise DomainError("gamma_th must be >= 0")
    upper = _capacity_thz_upper(spec)
    if gamma_th == 0.0:
        return upper
    mass = channel_thz.thz_snr_cdf(gamma_th, spec.thz, spec.transmit_snr_db)
    low_snr = mass.value > LOW_SNR_MASS
    if low_snr and not closed_form_only:
        lower = KernelValue(_quad_capacity_thz(0.0, gamma_th, spec),
                            frozenset({FLAG_TAIL_QUADRATURE}))
    else:
        lower = _capacity_thz_lower(gamma_th, spec,
                                    allow_quadrature=not closed_form_only)
    out = _merge(max(upper.value - lower.value, 0.0), upper, lower)
    if low_snr:
        out = out.with_flags(FLAG_LOW_SNR_CAPACITY)
    return out


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


def capacity_fso_integral(gamma_th: float, spec: SystemSpec) -> KernelValue:
    """FSO capacity with the lower tail integrated numerically (reference form)."""
    upper = _capacity_fso_upper(spec)
    if gamma_th == 0.0:
        return upper
    lower = _quad_capacity_fso_lower(gamma_th, spec)
    return KernelValue(max(upper.value - lower, 0.0), upper.flags)


def capacity_thz_integral(gamma_th: float, spec: SystemSpec) -> KernelValue:
    """THz capacity with the lower tail integrated numerically (reference form)."""
    upper = _capacity_thz_upper(spec)
    if gamma_th == 0.0:
        return upper
    lower = _quad_capacity_thz(0.0, gamma_th, spec)
    return KernelValue(max(upper.value - lower, 0.0), upper.flags)


def capacity_hybrid(spec: SystemSpec) -> KernelValue:
    """Hybrid backhaul capacity under the configured switching policy."""
    pol = spec.policy
    if isinstance(pol, HardPolicy):
        cf = capacity_fso(pol.gamma_th, spec)
        ct = capacity_thz(pol.gamma_th, spec)
        ff = outage_fso(spec, pol.gamma_th)
        return _merge(cf.value + ff.value * ct.value, cf, ct, ff)
    cfu = capacity_fso(pol.gamma_f_th_u, spec)
    cfl = capacity_fso(pol.gamma_f_th_l, spec)
    ct = capacity_thz(pol.gamma_t_th, spec)
    fu = outage_fso(spec, pol.gamma_f_th_u)
    fl = outage_fso(spec, pol.gamma_f_th_l)
    p_low, p_hig = fl.value, 1.0 - fu.value
    p_off = soft_fso_off_probability(p_low, fu.value - fl.value, p_hig)
    value = (cfu.value + p_off * ct.value
             + (cfl.value - cfu.value) * p_hig / (p_low + p_hig))
    return _merge(value, cfu, cfl, ct, fu, fl)


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


def _quad_aber_upper(pdf, gamma_th: float, mod: Modulation) -> KernelValue:
    """A * int_th^inf erfc(sqrt(B_p g)) f(g) dg summed over p, by quadrature.

    The part above the threshold is integrated directly, to relative
    accuracy: where the lower-tail series cannot be trusted, "full minus
    lower" cancels down to the rounding error of the full term.
    """
    def integrand(g):
        err = sum(math.erfc(math.sqrt(b * g)) for b in mod.b_list)
        return mod.a * err * pdf(g)

    val, _ = integrate.quad(integrand, gamma_th, math.inf, limit=200,
                            epsabs=0.0, epsrel=1e-9)
    return KernelValue(val, frozenset({FLAG_TAIL_QUADRATURE}))


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


def aber_fso(gamma_th: float, spec: SystemSpec, mod: Modulation) -> KernelValue:
    """FSO error mass above gamma_th, A sum_p E[erfc(sqrt(B_p gamma)); gamma >
    gamma_th]: the FSO term of the hybrid ABER numerator.

    Given u = ln I_a the SNR is gamma_max h^tau, with P(gamma <= g | u) =
    (g / gamma_max)^k, k = xi^2 / tau, below gamma_max = delta (A0 e^u)^tau.
    Craig's form erfc(sqrt(B g)) = (2/pi) int_0^{pi/2} e^(-s g) dtheta, with
    s = B / sin^2 theta, leaves the truncated moment

        E[e^(-s gamma); gamma_th < gamma <= gamma_max | u]
            = Gamma(k+1) (s gamma_max)^-k [P(k, s gamma_max) - P(k, s gamma_th)]

    for gamma_max > gamma_th, taken as a difference of Q where s gamma_th
    > k, so that no two nearly equal terms cancel; every term is positive.
    The expectation over u runs on :func:`channel_fso.fso_ceiling_rule`,
    windowed on the envelope min(1, (gamma_knee / gamma_max)^k) with
    gamma_knee = Gamma(k+1)^(1/k) / min_p B_p, and theta on the 64-node rule
    of :func:`aber_access`.  (The source composes this term as the
    full-range average plus the below-threshold one; the sign is a minus,
    and this form needs neither.)
    """
    _require_tau_match(spec, mod)
    if gamma_th < 0:
        raise DomainError("gamma_th must be >= 0")
    fso = spec.fso
    k = fso.pointing.xi ** 2 / fso.detection_tau
    b = np.array(mod.b_list)
    knee = math.exp(math.lgamma(k + 1.0) / k) / float(b.min())
    gmax, w = channel_fso.fso_ceiling_rule(gamma_th, knee, fso,
                                           spec.transmit_snr_db)
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
    return KernelValue(2.0 * mod.a / math.pi
                       * float(np.sum(moments @ _CRAIG_WEIGHTS)))


def _aber_thz_full(spec: SystemSpec, mod: Modulation) -> KernelValue:
    """Threshold-free THz ABER via the duplicated identity (integer alpha)."""
    thz = spec.thz
    alpha = thz.alpha
    if abs(alpha - round(alpha)) > 1e-9:
        val = _quad_aber_thz_range(spec, mod, 0.0, math.inf)
        return KernelValue(val, frozenset({FLAG_NONINT_ALPHA}))
    ai = int(round(alpha))
    gbar = thz.gamma_bar(spec.transmit_snr_db)
    xi2 = thz.xi_t ** 2
    c = xi2 / 2.0
    rho5 = (tuple((j - c) / alpha for j in range(1, ai + 1))
            + tuple((j - c - 0.5) / alpha for j in range(1, ai + 1))
            + (0.5, 1.0))
    rho6 = ((0.0, 0.5, thz.c2 / 2.0, (thz.c2 + 1.0) / 2.0)
            + tuple((j - c - 1.0) / alpha for j in range(1, ai + 1)))
    total = 0.0
    flags = set()
    for b in mod.b_list:
        z = thz.c3 ** 2 * alpha ** alpha / (4.0 * gbar ** alpha * b ** alpha)
        g = specfun.meijer_g(specfun.MeijerGSpec(
            a_front=rho5[:2 * ai], a_back=rho5[2 * ai:],
            b_front=rho6[:4], b_back=rho6[4:], z=z))
        flags |= g.flags
        if g.value <= 0.0:
            continue
        logv = (math.log(mod.a / (2.0 * math.sqrt(math.pi))) + thz.log_c1
                + (thz.c2 - 0.5) * math.log(2.0)
                + (c - 1.0) * math.log(alpha)
                - c * math.log(gbar)
                - (alpha / 2.0) * math.log(2.0 * math.pi)
                - c * math.log(b)
                + math.log(g.value))
        total += _exp_or_zero(logv)
    return KernelValue(total, frozenset(flags))


def _quad_aber_thz_range(spec: SystemSpec, mod: Modulation,
                         lo: float, hi: float) -> float:
    def integrand(g):
        err = sum(math.erfc(math.sqrt(b * g)) for b in mod.b_list)
        return mod.a * err * channel_thz.thz_snr_pdf(
            g, spec.thz, spec.transmit_snr_db).value

    gbar = spec.thz.gamma_bar(spec.transmit_snr_db)
    return _quad_split(integrand, lo, hi, min(1.0 / max(mod.b_list), gbar))


def _aber_thz_lower(gamma_th: float, spec: SystemSpec,
                    mod: Modulation) -> KernelValue | None:
    """Below-threshold THz ABER term; None beyond the erfc-series bound."""
    thz = spec.thz
    if max(mod.b_list) * gamma_th > ERFC_SERIES_MAX_ARG:
        return None
    gbar = thz.gamma_bar(spec.transmit_snr_db)
    xi2 = thz.xi_t ** 2
    log_ratio = xi2 / 2.0 * math.log(gamma_th / gbar)
    cdf_g = _thz_cdf_g(gamma_th, spec)
    flags = set(cdf_g.flags)
    total = 0.0
    for b in mod.b_list:
        series = 0.0
        coeff = 2.0 / math.sqrt(math.pi)
        for j in range(specfun.SERIES_MAX_TERMS):
            ex = (2 * j + 1) / 2.0
            g = specfun.meijer_g(specfun.MeijerGSpec(
                a_front=(1.0 - (xi2 + 2 * j + 1) / thz.alpha,), a_back=(1.0,),
                b_front=(0.0, thz.c2),
                b_back=(-(xi2 + 2 * j + 1) / thz.alpha,),
                z=thz.c3 * (gamma_th / gbar) ** (thz.alpha / 2.0)))
            term = (coeff * (b * gamma_th) ** ex / (2 * j + 1)
                    * _exp_or_zero(log_ratio) * g.value)
            series += term
            flags |= g.flags
            if abs(term) < specfun.SERIES_REL_TOL * max(abs(series), 1e-300):
                break
            coeff *= -1.0 / (j + 1.0)
        else:
            flags.add(specfun.FLAG_TRUNCATION_CAP)
        piece = _exp_or_zero(log_ratio) * cdf_g.value - series
        total += mod.a * thz.c1 / thz.alpha * piece
    return KernelValue(total, frozenset(flags))


def aber_thz(gamma_th: float, spec: SystemSpec, mod: Modulation) -> KernelValue:
    """Average BER of the THz link conditioned on transmission above gamma_th.

    Beyond the erfc-series bound the part above the threshold is integrated
    directly and flagged ``tail-quadrature``, as in :func:`aber_fso`.
    """
    if gamma_th < 0:
        raise DomainError("gamma_th must be >= 0")
    if gamma_th == 0.0:
        return _aber_thz_full(spec, mod)
    lower = _aber_thz_lower(gamma_th, spec, mod)
    if lower is None:
        return _quad_aber_upper(
            lambda g: channel_thz.thz_snr_pdf(g, spec.thz, spec.transmit_snr_db).value,
            gamma_th, mod)
    full = _aber_thz_full(spec, mod)
    return _merge(max(full.value - lower.value, 0.0), full, lower)


def aber_access(gamma_r_th: float, spec: SystemSpec, mod: Modulation) -> KernelValue:
    """Average BER of the mmWave access link above ``gamma_r_th``.

    Craig's form erfc(x) = (2/pi) int_0^{pi/2} exp(-x^2 / sin^2 theta) dtheta
    turns each term into a truncated moment of the Gamma(k, rate r) SNR,
        E[exp(-s gamma); gamma > gamma_th] = (r/s)^k Q(k, s gamma_th),
    s = r + B_p / sin^2 theta, so the integrand over theta is never negative;
    it runs on a fixed 64-node Gauss-Legendre rule.
    """
    if gamma_r_th < 0:
        raise DomainError("gamma_r_th must be >= 0")
    k = spec.access.shape
    rate = spec.access.rate(spec.transmit_snr_db)
    s = rate + np.array(mod.b_list)[:, None] * _CRAIG_INV_SIN2
    moments = (rate / s) ** k * special.gammaincc(k, s * gamma_r_th)
    return KernelValue(2.0 * mod.a / math.pi
                       * float(np.sum(moments @ _CRAIG_WEIGHTS)))


def aber_hybrid_unconditional(spec: SystemSpec, mod: Modulation) -> KernelValue:
    """Numerator of the hybrid ABER: error mass carried by transmitted slots."""
    _require_tau_match(spec, mod)
    pol = spec.policy
    if isinstance(pol, HardPolicy):
        bf = aber_fso(pol.gamma_th, spec, mod)
        bt = aber_thz(pol.gamma_th, spec, mod)
        ff = outage_fso(spec, pol.gamma_th)
        return _merge(bf.value + ff.value * bt.value, bf, bt, ff)
    bfu = aber_fso(pol.gamma_f_th_u, spec, mod)
    bfl = aber_fso(pol.gamma_f_th_l, spec, mod)
    bt = aber_thz(pol.gamma_t_th, spec, mod)
    fu = outage_fso(spec, pol.gamma_f_th_u)
    fl = outage_fso(spec, pol.gamma_f_th_l)
    p_low, p_hig = fl.value, 1.0 - fu.value
    p_off = soft_fso_off_probability(p_low, fu.value - fl.value, p_hig)
    value = (bfu.value + p_off * bt.value
             + (bfl.value - bfu.value) * p_hig / (p_low + p_hig))
    return _merge(value, bfu, bfl, bt, fu, fl)


def aber_hybrid(spec: SystemSpec, mod: Modulation) -> KernelValue:
    """Hybrid-link ABER normalized by the non-outage probability."""
    num = aber_hybrid_unconditional(spec, mod)
    p_out = outage_hybrid(spec)
    return _merge(num.value / (1.0 - p_out.value), num, p_out)


def aber_e2e(spec: SystemSpec, mod: Modulation) -> KernelValue:
    """End-to-end ABER: independent bit-flip composition of the two hops."""
    b1 = aber_hybrid(spec, mod)
    b2 = aber_access(spec.gamma_r_th, spec, mod)
    return _merge(b1.value + b2.value - 2.0 * b1.value * b2.value, b1, b2)
