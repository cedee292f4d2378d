"""Deterministic special-function kernels behind the closed-form link metrics.

Everything here is a pure function: same inputs give bit-identical outputs,
safe for concurrent use.  The one piece of state is a cache of the
z-independent half of each residue series (:func:`_residue_families`),
keyed on the Meijer-G parameters, which changes no result.

* residue series over the right pole families, returned unflagged only
  while its peak term is at most RESIDUE_CONDITION_MAX (1e3) times its
  sum, which keeps the FSO CDFs of the presets within 1e-11 of mpmath;
* Mellin-Barnes contour quadrature on a vertical line, the evaluator of
  the printed capacity identities' logarithmic pole layouts (integer pole
  differences) and the residue series' fallback;
* the incomplete-gamma closed form of the THz CDF's G^{2,1}_{2,3}.

Results that involve series truncation or cancellation carry warning flags
instead of silently degrading.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import DomainError, MeijerGUnsupportedError

__all__ = [
    "KernelValue",
    "MeijerGSpec",
    "upper_incomplete_gamma",
    "igamma_reduction_log",
    "meijer_g",
    "meijer_g_residue",
    "meijer_g_leading",
    "meijer_g_contour",
]

# Shared truncation policy: stop when |term| < REL_TOL * |partial sum|,
# cap at MAX_TERMS and flag if the cap is hit.
SERIES_REL_TOL = 1e-14
SERIES_MAX_TERMS = 500

FLAG_TRUNCATION_CAP = "truncation-cap"
FLAG_RESIDUE_ILL_CONDITIONED = "residue-ill-conditioned"
FLAG_CONTOUR_REFINE_CAP = "contour-refine-cap"

# Largest ratio of the peak residue term to the series sum that is returned
# unflagged: at 1e3 the FSO CDFs of the presets stay within 1e-11 of mpmath,
# at 1e4 within 1e-10, and at 1e7 they are off in the eighth digit.
RESIDUE_CONDITION_MAX = 1e3

# Pole differences closer to an integer than this are treated as integer
# (logarithmic case) and routed off the residue path.
INTEGER_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class KernelValue:
    """A numeric result plus any warning flags raised while computing it."""

    value: float
    flags: frozenset = frozenset()

    def __float__(self) -> float:
        return self.value

    def with_flags(self, *extra: str) -> "KernelValue":
        return KernelValue(self.value, self.flags | frozenset(extra))


# ---------------------------------------------------------------------------
# Elementary kernels
# ---------------------------------------------------------------------------

def upper_incomplete_gamma(a: float, x: float) -> float:
    """Upper incomplete Gamma(a, x).

    For x > 0 the defining integral converges for every real ``a`` and the
    closed-form THz CDF needs a <= 0 at the reference link geometry, so the
    domain is extended beyond a > 0; only x = 0 (where the integral requires
    a > 0) keeps the restriction.
    """
    if x < 0:
        raise DomainError(f"upper_incomplete_gamma requires x >= 0, got x={x}")
    if x == 0.0:
        if not a > 0:
            raise DomainError(
                f"upper_incomplete_gamma at x=0 requires a > 0, got a={a}")
        return math.exp(math.lgamma(a))
    if a > 0:
        q = sp.gammaincc(a, x)
        if q > 0.0:
            return float(q * math.exp(math.lgamma(a)))
        # Tail underflows the regularized form: continued fraction directly.
        return math.exp(_log_upper_gamma_cf(a, x))
    if a == 0.0:
        return float(sp.exp1(x))
    if a <= -50.0:
        # the continued fraction converges immediately for x + 1 - a >> 1;
        # over/underflow of x^a e^-x is the honest double-precision answer
        logmag = _log_upper_gamma_cf(a, x)
        return math.exp(logmag) if logmag < 709.0 else math.inf
    # moderate a < 0: recurse down from a positive shape,
    #   Gamma(a, x) = (Gamma(a+1, x) - x^a e^-x) / a,
    # substituting Gamma(0, x) = E1(x) where the chain crosses zero.
    n = int(math.ceil(-a)) + 1
    val = upper_incomplete_gamma(a + n, x)
    logx = math.log(x)
    for k in range(n):
        ak = a + n - 1 - k
        if ak == 0.0:
            val = float(sp.exp1(x))
            continue
        power = math.exp(ak * logx - x)
        val = (val - power) / ak
    return val


def _log_upper_gamma_cf(a: float, x: float) -> float:
    """log Gamma(a, x) by the modified Lentz continued fraction, which
    converges within a few terms where x + 1 - a is well above 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return a * math.log(x) - x + math.log(h)


def _log_lower_gamma(a: float, x: float) -> float:
    """log of gamma(a, x) (lower incomplete), a > 0, x > 0."""
    p = sp.gammainc(a, x)
    if p > 0.0:
        return float(math.log(p) + math.lgamma(a))
    return a * math.log(x) - x - math.log(a)


def igamma_reduction_log(rho: float, beta: float, z: float):
    """log of (Gamma(beta, z) + z^-rho gamma(beta+rho, z)) / rho.

    This is the closed form of G^{2,1}_{2,3}[z | (1-rho, 1); (0, beta, -rho)]
    for rho > 0, beta + rho > 0, z > 0; both terms are positive, so only the
    log magnitude is needed.  Stays finite for pointing exponents far beyond
    the double-precision range of the linear value.
    """
    if not (rho > 0 and beta + rho > 0 and z > 0):
        raise DomainError(
            f"igamma reduction requires rho > 0, beta + rho > 0, z > 0; "
            f"got rho={rho}, beta={beta}, z={z}")
    t2 = -rho * math.log(z) + _log_lower_gamma(beta + rho, z)
    if beta <= -50.0:
        t1 = _log_upper_gamma_cf(beta, z)
    else:
        v = upper_incomplete_gamma(beta, z)
        t1 = math.log(v) if v > 0.0 else -math.inf
    if math.isinf(t1) and t1 > 0:
        return math.inf
    return np.logaddexp(t1, t2) - math.log(rho)


# ---------------------------------------------------------------------------
# Meijer-G
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeijerGSpec:
    """Parameters of G^{m,n}_{p,q}[z | a_front, a_back ; b_front, b_back].

    ``b_front`` lists the m lower parameters whose Gamma factors supply the
    right pole families, ``a_front`` the n upper parameters, and the back
    lists the remaining q-m / p-n parameters.
    """

    a_front: tuple
    a_back: tuple
    b_front: tuple
    b_back: tuple
    z: float

    def __post_init__(self):
        object.__setattr__(self, "a_front", tuple(float(v) for v in self.a_front))
        object.__setattr__(self, "a_back", tuple(float(v) for v in self.a_back))
        object.__setattr__(self, "b_front", tuple(float(v) for v in self.b_front))
        object.__setattr__(self, "b_back", tuple(float(v) for v in self.b_back))
        object.__setattr__(self, "z", float(self.z))

    @property
    def m(self) -> int:
        return len(self.b_front)

    @property
    def n(self) -> int:
        return len(self.a_front)

    @property
    def p(self) -> int:
        return len(self.a_front) + len(self.a_back)

    @property
    def q(self) -> int:
        return len(self.b_front) + len(self.b_back)

    @property
    def delta(self) -> float:
        """Decay exponent of the Mellin-Barnes integrand: m+n-(p+q)/2."""
        return self.m + self.n - 0.5 * (self.p + self.q)


def _is_near_integer(x: float, tol: float = INTEGER_TOL) -> bool:
    return abs(x - round(x)) < tol


def _validate_z(z: float) -> None:
    if not (z > 0 and math.isfinite(z)):
        raise DomainError(f"meijer_g requires finite z > 0, got z={z}")


def _validate(spec: MeijerGSpec) -> None:
    _validate_z(spec.z)
    # Contour pinch: a right pole b_h + k coinciding with a left pole
    # a_j - 1 - l happens iff a_j - b_h is a positive integer.
    for aj in spec.a_front:
        for bh in spec.b_front:
            d = aj - bh
            if d > 0.5 and _is_near_integer(d):
                raise MeijerGUnsupportedError(
                    f"upper parameter {aj} exceeds lower parameter {bh} by the "
                    f"positive integer {round(d)}; pole families coincide")


def _canonical(spec: MeijerGSpec) -> MeijerGSpec:
    """Cancel identical numerator/denominator Gamma factors.

    Gamma(b - s) with b in b_front cancels Gamma(a - s) with a in a_back when
    a == b; likewise a_front against b_back.  The printed capacity identities
    arrive with such removable pairs from the Gauss-multiplication step.
    """
    bf = list(spec.b_front)
    ab = list(spec.a_back)
    for v in list(bf):
        if v in ab:
            bf.remove(v)
            ab.remove(v)
    af = list(spec.a_front)
    bb = list(spec.b_back)
    for v in list(af):
        if v in bb:
            af.remove(v)
            bb.remove(v)
    if len(bf) == spec.m and len(af) == spec.n:
        return spec
    return MeijerGSpec(tuple(af), tuple(ab), tuple(bf), tuple(bb), spec.z)


def _has_log_poles(spec: MeijerGSpec) -> bool:
    """True when two right pole families differ by an integer (incl. zero)."""
    bf = spec.b_front
    for i in range(len(bf)):
        for j in range(i + 1, len(bf)):
            if _is_near_integer(bf[i] - bf[j]):
                return True
    # A back lower parameter exceeding a front one by a positive integer
    # zeroes the series tail in a way the ratio recursion cannot follow.
    for bb in spec.b_back:
        for bh in spec.b_front:
            d = bb - bh
            if d > 0.5 and _is_near_integer(d):
                return True
    return False


_LARGE_GAMMA_ARG = 100.0


def _sinpi(x: float) -> float:
    """sin(pi x) with exact argument reduction."""
    n = round(x)
    return (-1.0) ** (n % 2) * math.sin(math.pi * (x - n))


def _lgamma_ratio(u: float, v: float) -> float:
    """log(Gamma(u)/Gamma(v)) for large u, v of similar size.

    The naive lgamma difference loses |lgamma| * eps absolutely, which for
    pointing-error exponents of order 1e8 destroys the residue series; the
    paired Stirling form below stays well-conditioned.
    """
    d = u - v
    if abs(d) > 64.0 or min(u, v) < _LARGE_GAMMA_ARG:
        return float(sp.gammaln(u)) - float(sp.gammaln(v))
    return ((v - 0.5) * math.log1p(d / v) + d * (math.log(u) - 1.0)
            + (1.0 / u - 1.0 / v) / 12.0
            - (u ** -3 - v ** -3) / 360.0
            + (u ** -5 - v ** -5) / 1260.0)


def _log_gamma_product(num_args, den_args):
    """(log magnitude, sign) of prod Gamma(num) / prod Gamma(den).

    Negative arguments are reflected; large positive arguments from the two
    sides are paired and differenced stably.
    """
    logmag = 0.0
    sign = 1.0
    large_num, large_den = [], []
    for args, direction, large in ((num_args, +1.0, large_num),
                                   (den_args, -1.0, large_den)):
        for x in args:
            if x < 0.5:
                # reflect: |Gamma(x)| = pi / (|sin(pi x)| Gamma(1 - x));
                # a negative Gamma factor flips the overall sign either way
                s = _sinpi(x)
                logmag += direction * (math.log(math.pi) - math.log(abs(s)))
                sign *= math.copysign(1.0, s)
                (large_den if direction > 0 else large_num).append(1.0 - x)
            elif x >= _LARGE_GAMMA_ARG:
                large.append(x)
            else:
                logmag += direction * math.lgamma(x)
    large_num.sort(reverse=True)
    large_den.sort(reverse=True)
    while large_num and large_den:
        logmag += _lgamma_ratio(large_num.pop(0), large_den.pop(0))
    for x in large_num:
        logmag += math.lgamma(x)
    for x in large_den:
        logmag -= math.lgamma(x)
    return logmag, sign


@dataclass(frozen=True, slots=True)
class _ResidueFamilies:
    """The z-independent part of a residue series (see :func:`_residue_families`)."""

    p: int
    q: int
    unsupported: str       # why the series does not apply, or ""
    families: tuple


@functools.lru_cache(maxsize=512)
def _residue_families(a_front: tuple, a_back: tuple, b_front: tuple,
                      b_back: tuple) -> _ResidueFamilies:
    """Everything of the residue series of G[z | a; b] that z does not change.

    The canonical form's p and q, the reason it is unsupported (a contour
    pinch or a logarithmic pole layout), and one tuple per live pole family
    b_h: (b_h, log magnitude and sign of the leading residue without its
    z^b_h, then the k-loop's factor offsets: 1 - a_j + b_h over a_front,
    a_j - b_h over a_back, b_j - b_h over the other b_front and 1 - b_j + b_h
    over b_back).  The offsets are the partial sums that the loop's factors
    start from, so adding k to them repeats its arithmetic exactly.
    """
    # z = 1 only fills the field: nothing built here depends on it
    spec = _canonical(MeijerGSpec(a_front, a_back, b_front, b_back, 1.0))
    p, q = spec.p, spec.q
    try:
        _validate(spec)
    except MeijerGUnsupportedError as exc:
        return _ResidueFamilies(p, q, exc.condition, ())
    if _has_log_poles(spec):
        return _ResidueFamilies(
            p, q, "integer difference between lower-front parameters "
            "(logarithmic pole case); use the contour path", ())
    families = []
    for h, bh in enumerate(spec.b_front):
        # leading (k = 0) residue, assembled in log space with large
        # numerator/denominator Gamma arguments paired for stability
        others = tuple(bj - bh for j, bj in enumerate(spec.b_front) if j != h)
        up = tuple(1.0 - aj + bh for aj in spec.a_front)
        back = tuple(1.0 - bj + bh for bj in spec.b_back)
        down = tuple(aj - bh for aj in spec.a_back)
        if any(arg <= 0 and _is_near_integer(arg) for arg in down):
            continue  # 1/Gamma at a pole: the family vanishes
        logmag, sign = _log_gamma_product(others + up, back + down)
        if sign != 0.0:
            families.append((bh, logmag, sign, up, down, others, back))
    return _ResidueFamilies(p, q, "", tuple(families))


def meijer_g_residue(spec: MeijerGSpec,
                     rel_tol: float = SERIES_REL_TOL,
                     max_terms: int = SERIES_MAX_TERMS) -> KernelValue:
    """Sum of residues over the right pole families of the MB integrand.

    Requires all pairwise b_front differences non-integer (simple poles) and
    either p < q, or p == q with z < 1.  What does not depend on z comes
    from the cache of :func:`_residue_families`, so a sweep of one
    parameter set pays per point only for its powers of z and its k-loops.
    """
    z = spec.z
    _validate_z(z)
    fams = _residue_families(spec.a_front, spec.a_back, spec.b_front,
                             spec.b_back)
    if fams.unsupported:
        raise MeijerGUnsupportedError(fams.unsupported)
    if fams.p > fams.q or (fams.p == fams.q and z >= 1.0):
        raise MeijerGUnsupportedError(
            f"residue series diverges for p={fams.p}, q={fams.q}, z={z}")

    logz = math.log(z)
    flags = set()
    total = 0.0
    max_term = 0.0
    for bh, logmag, sign, up, down, others, back in fams.families:
        logmag += bh * logz
        if logmag > 709.0:
            raise MeijerGUnsupportedError(
                "residue leading term overflows double precision; use the "
                "contour path")
        term = sign * math.exp(logmag)

        fam_sum = term
        for k in range(max_terms):
            ratio = -z / (k + 1.0)
            for c in up:
                ratio *= (c + k)
            for d in down:
                # denominator Gamma(a_j - s) walks onto a pole: the factor
                # vanishes here and for every later k.
                ratio *= (d - k - 1.0)
            for d in others:
                ratio *= 1.0 / (d - k - 1.0)
            for c in back:
                ratio *= 1.0 / (c + k)
            if ratio == 0.0:
                break
            term *= ratio
            fam_sum += term
            at = abs(term)
            if at > max_term:
                max_term = at
            if at <= rel_tol * abs(fam_sum) and k >= 1:
                break
        else:
            flags.add(FLAG_TRUNCATION_CAP)
        total += fam_sum
        if abs(fam_sum) > max_term:
            max_term = abs(fam_sum)

    # Alternating-term cancellation: a few ulps of the peak term bound the
    # absolute error, so cap the amplification at RESIDUE_CONDITION_MAX to
    # keep the relative error below about 1e-11; beyond that the caller
    # reroutes to the contour.  Cancellation down to exact zero is the
    # extreme case of the same.
    if max_term > 0.0 and (total == 0.0
                           or max_term / abs(total) > RESIDUE_CONDITION_MAX):
        flags.add(FLAG_RESIDUE_ILL_CONDITIONED)
    if not math.isfinite(total):
        raise MeijerGUnsupportedError("residue series overflowed")
    return KernelValue(total, frozenset(flags))


def meijer_g_leading(spec: MeijerGSpec) -> float:
    """The leading (k = 0) residues of :func:`meijer_g_residue`'s series
    summed over its cached pole families: the small-z asymptote."""
    _validate_z(spec.z)
    fams = _residue_families(spec.a_front, spec.a_back, spec.b_front,
                             spec.b_back)
    if fams.unsupported:
        raise MeijerGUnsupportedError(fams.unsupported)
    logz = math.log(spec.z)
    return sum(sign * math.exp(logmag + bh * logz)
               for bh, logmag, sign, *_ in fams.families)


# Gauss-Legendre nodes/weights reused across contour panels.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def meijer_g_contour(spec: MeijerGSpec,
                     rel_tol: float = 1e-11) -> KernelValue:
    """Mellin-Barnes integral on a vertical line separating the pole families.

    Handles the logarithmic (integer pole difference) cases the residue
    series cannot.  Requires delta = m + n - (p+q)/2 > 0 so the integrand
    decays, and a gap between the rightmost left pole and the leftmost right
    pole for the straight contour to pass through.
    """
    spec = _canonical(spec)
    _validate(spec)
    delta = spec.delta
    if delta <= 0:
        raise MeijerGUnsupportedError(
            f"contour integrand does not decay (delta = {delta} <= 0)")
    right = min(spec.b_front)
    if spec.n > 0:
        left = max(spec.a_front) - 1.0
    else:
        left = right - 1.5
    if not left < right:
        raise MeijerGUnsupportedError(
            "no vertical line separates the pole families "
            f"(max(a_front)-1 = {left} >= min(b_front) = {right})")
    # |z^c| = exp(c ln z) sets the integrand scale while the result scale is
    # fixed, so cancellation grows with |c ln z|; hug the strip edge that
    # minimizes it, keeping a margin from the poles.
    margin = 0.25 * min(1.0, right - left)
    if spec.z < 1.0:
        c = right - margin
    elif spec.z > 1.0:
        c = left + margin
    else:
        c = 0.5 * (left + right)

    bf = np.asarray(spec.b_front)
    af = np.asarray(spec.a_front)
    bb = np.asarray(spec.b_back)
    ab = np.asarray(spec.a_back)
    logz = math.log(spec.z)

    def log_integrand(t: np.ndarray) -> np.ndarray:
        s = c + 1j * t
        acc = np.zeros_like(s)
        for b in bf:
            acc += sp.loggamma(b - s)
        for a in af:
            acc += sp.loggamma(1.0 - a + s)
        for b in bb:
            acc -= sp.loggamma(1.0 - b + s)
        for a in ab:
            acc -= sp.loggamma(a - s)
        return acc + s * logz

    # Panel width resolves both the Gamma decay scale and the z-oscillation.
    osc = abs(logz)
    panel = min(1.0, (2.0 * math.pi / osc) / 4.0 if osc > 0 else 1.0,
                4.0 / (math.pi * delta))

    def integrate(width: float) -> float:
        half = 0.5 * width
        total = 0.0
        scale = None
        t0 = 0.0
        idle = 0
        for _ in range(4000):
            t = t0 + half + half * _GL_NODES
            vals = log_integrand(t)
            if scale is None:
                scale = float(np.max(vals.real))
            contrib = half * float(np.dot(_GL_WEIGHTS, np.exp(vals - scale).real))
            total += contrib
            t0 += width
            if abs(contrib) < 1e-17 * max(abs(total), 1e-300) and t0 * math.pi * delta > 40:
                idle += 1
                if idle >= 2:
                    break
            else:
                idle = 0
        if total == 0.0:
            return 0.0
        logv = math.log(abs(total)) + scale - math.log(math.pi)
        if logv > 709.0:
            raise MeijerGUnsupportedError(
                "contour value exceeds the double range")
        return math.copysign(math.exp(logv) if logv > -745.0 else 0.0, total)

    flags = set()
    coarse = integrate(panel)
    fine = integrate(panel / 2.0)
    for _ in range(3):
        if abs(fine - coarse) <= rel_tol * max(abs(fine), 1e-300):
            break
        panel /= 2.0
        coarse, fine = fine, integrate(panel / 4.0)
    else:
        flags.add(FLAG_CONTOUR_REFINE_CAP)
    if not math.isfinite(fine):
        raise MeijerGUnsupportedError("contour quadrature overflowed")
    return KernelValue(fine, frozenset(flags))


def meijer_g(spec: MeijerGSpec) -> KernelValue:
    """Evaluate a Meijer-G function, routing to the appropriate method.

    The contour path takes logarithmic pole layouts; everything else takes
    the residue series, with the contour as the fallback where the series
    raises or is flagged ``truncation-cap`` or ``residue-ill-conditioned``.
    """
    spec = _canonical(spec)
    _validate(spec)
    if _has_log_poles(spec):
        return meijer_g_contour(spec)
    try:
        result = meijer_g_residue(spec)
    except MeijerGUnsupportedError:
        return meijer_g_contour(spec).with_flags("contour-fallback")
    if result.flags & {FLAG_TRUNCATION_CAP, FLAG_RESIDUE_ILL_CONDITIONED}:
        try:
            return meijer_g_contour(spec).with_flags("contour-fallback")
        except MeijerGUnsupportedError:
            return result
    return result
