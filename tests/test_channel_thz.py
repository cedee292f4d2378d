"""THz channel tests: absorption model, path gain, alpha-mu SNR laws."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy import special as sp

from fsothz.channel_thz import (SPEED_OF_LIGHT, ThzEnvironment, ThzLinkSpec,
                                absorption_total, default_rx_radius_m,
                                thz_ceiling_rule, thz_path_gain, thz_snr_cdf,
                                thz_snr_pdf, thz_snr_survival,
                                water_vapor_fraction)
from fsothz.errors import DomainError

from conftest import thz_spec

SNR_DB = 30.0

# Golden values for the reference environment (298 K, 101325 Pa, 50% RH,
# 119 GHz, 200 m, 55 dBi both ends), frozen after dual-transcription checks.
NU_REF = 0.6498975369483003
KAPPA_119 = 0.01571073019163347
H_L_REF = 0.06587574487881746


def _env(**kw):
    base = dict(temperature_k=298.0, pressure_pa=101325.0,
                relative_humidity_pct=50.0, frequency_hz=119e9,
                distance_m=200.0, tx_gain_dbi=55.0, rx_gain_dbi=55.0)
    base.update(kw)
    return ThzEnvironment(**base)


def _nu_transcription(t, p, chi):
    """Independent transcription of the mixing-ratio formula."""
    buck = 6.1121 * (1.0007 + 3.46e-6 * p) * math.exp(17.502 * t / (240.97 + t))
    return chi / (100.0 * p) * buck


def _kappa_transcription(f, nu):
    """Independent transcription of the six-line absorption block."""
    j = (3.96, 6.11, 10.84, 12.68, 14.65, 14.94)
    g1 = 1.0 - nu
    h = (5.159e-5 * g1 * (-6.65e-5 * g1 + 0.0159),
         (-2.09e-4 * g1 + 0.05) ** 2,
         0.1925 * nu * (0.1350 * nu + 0.0318),
         (0.4241 * nu + 0.0998) ** 2,
         0.2251 * nu * (0.1314 * nu + 0.0297),
         (0.4127 * nu + 0.0932) ** 2,
         2.053 * nu * (0.1717 * nu + 0.0306),
         (0.5394 * nu + 0.0961) ** 2,
         0.177 * nu * (0.0832 * nu + 0.0213),
         (0.2615 * nu + 0.0668) ** 2,
         2.146 * nu * (0.1206 * nu + 0.0277),
         (0.3789 * nu + 0.0871) ** 2)
    x = f / (100.0 * SPEED_OF_LIGHT)
    total = sum(h[2 * i] / (h[2 * i + 1] + (x - j[i]) ** 2) for i in range(6))
    return total + nu / 0.0157 * (2e-4 + 0.915e-112 * f ** 9.42)


class TestWaterVapor:
    def test_dry_air(self):
        assert water_vapor_fraction(_env(relative_humidity_pct=0.0)) == 0.0

    def test_dual_transcription(self):
        got = water_vapor_fraction(_env())
        want = _nu_transcription(298.0, 101325.0, 50.0)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(NU_REF, rel=1e-12)

    def test_increasing_in_humidity(self):
        vals = [water_vapor_fraction(_env(relative_humidity_pct=chi))
                for chi in range(10, 100, 10)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestAbsorption:
    def test_dry_air_only_first_line_survives(self):
        # nu = 0 zeroes every nu-proportional numerator and the continuum
        kappa = absorption_total(119e9, 0.0)
        x = 119e9 / (100.0 * SPEED_OF_LIGHT)
        h1 = 5.159e-5 * (-6.65e-5 + 0.0159)
        h2 = (-2.09e-4 + 0.05) ** 2
        assert kappa == pytest.approx(h1 / (h2 + (x - 3.96) ** 2), rel=1e-12)

    def test_golden_reference(self):
        nu = water_vapor_fraction(_env())
        assert absorption_total(119e9, nu) == pytest.approx(KAPPA_119, rel=1e-12)
        assert _kappa_transcription(119e9, nu) == pytest.approx(KAPPA_119,
                                                                rel=1e-12)

    def test_nonnegative_over_band(self):
        nu = water_vapor_fraction(_env())
        for f in np.linspace(100e9, 448e9, 100):
            assert absorption_total(f, nu) >= 0.0

    def test_band_guard(self):
        with pytest.raises(DomainError):
            absorption_total(60e9, 0.1)
        with pytest.raises(DomainError):
            ThzEnvironment(298.0, 101325.0, 50.0, 500e9, 200.0, 55.0, 55.0)


class TestPathGain:
    def test_friis_amplitude_composition(self):
        # spreading factor times the absorption decay, checked separately
        env = _env(tx_gain_dbi=0.0, rx_gain_dbi=0.0)
        kappa = absorption_total(env.frequency_hz, water_vapor_fraction(env))
        spreading = SPEED_OF_LIGHT / (4.0 * math.pi * 119e9 * 200.0)
        assert thz_path_gain(env) == pytest.approx(
            spreading * math.exp(-0.5 * 200.0 * kappa), rel=1e-12)

    def test_golden_reference(self):
        assert thz_path_gain(_env()) == pytest.approx(H_L_REF, rel=1e-12)

    def test_monotone_decay(self):
        for d in (50.0, 120.0, 333.0):
            assert thz_path_gain(_env(distance_m=2 * d)) < thz_path_gain(
                _env(distance_m=d))

    def test_default_rx_radius(self):
        lam = SPEED_OF_LIGHT / 119e9
        assert default_rx_radius_m(119e9, 55.0) == pytest.approx(
            lam * math.sqrt(10 ** 5.5) / (2.0 * math.pi), rel=1e-14)

    def test_zero_distance_rejected(self):
        with pytest.raises(DomainError):
            thz_path_gain(_env(distance_m=0.0))


def _quad_pdf(spec, lo, hi):
    val, _ = integrate.quad(lambda g: thz_snr_pdf(g, spec, SNR_DB).value,
                            lo, hi, limit=400)
    return val


class TestSnrDistribution:
    def test_channel_constants(self):
        spec = thz_spec()
        xi2 = spec.xi_t ** 2
        nrmu = spec.n_rx * spec.mu
        assert spec.c2 == pytest.approx((spec.alpha * nrmu - xi2) / spec.alpha)
        assert spec.c3 == pytest.approx(nrmu / (spec.a0_t * spec.omega) ** spec.alpha)
        assert spec.c2 < 0  # reference geometry: misalignment-dominated

    def test_pdf_normalization(self):
        spec = thz_spec()
        gbar = spec.gamma_bar(SNR_DB)
        edges = [0.0] + list(gbar * np.geomspace(1e-6, 1e3, 19)) + [math.inf]
        total = sum(_quad_pdf(spec, a, b) for a, b in zip(edges, edges[1:]))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_pdf_nonnegative_on_log_grid(self):
        spec = thz_spec()
        for g in np.geomspace(1e-6, 1e6, 40):
            assert thz_snr_pdf(g, spec, SNR_DB).value >= 0.0

    def test_cdf_at_zero(self):
        assert thz_snr_cdf(0.0, thz_spec(), SNR_DB).value == 0.0

    def test_cdf_monotone(self):
        spec = thz_spec()
        vals = [thz_snr_cdf(g, spec, SNR_DB).value
                for g in np.geomspace(1e-4, 1e5, 60)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_cdf_equals_pdf_integral(self):
        spec = thz_spec()
        gbar = spec.gamma_bar(SNR_DB)
        acc = 0.0
        prev = 0.0
        for g in np.geomspace(1e-3 * gbar, 10.0 * gbar, 20):
            acc += _quad_pdf(spec, prev, g)
            prev = g
            assert thz_snr_cdf(g, spec, SNR_DB).value == pytest.approx(
                acc, abs=1e-6)

    def test_pdf_is_cdf_derivative(self):
        # audits the gamma_bar = N_r gamma_bar_T normalization between the
        # printed PDF and CDF, at 10 interior points of the distribution
        spec = thz_spec()
        grid = np.geomspace(1e-6, 1e3, 400) * spec.gamma_bar(SNR_DB)
        cdf = np.array([thz_snr_cdf(g, spec, SNR_DB).value for g in grid])
        interior = grid[(cdf > 0.05) & (cdf < 0.95)]
        points = np.geomspace(interior[0], interior[-1], 10)
        for g in points:
            h = 1e-5 * g
            deriv = (thz_snr_cdf(g + h, spec, SNR_DB).value
                     - thz_snr_cdf(g - h, spec, SNR_DB).value) / (2.0 * h)
            pdf = thz_snr_pdf(g, spec, SNR_DB).value
            assert deriv == pytest.approx(pdf, rel=1e-4)

    def test_misalignment_free_limit(self):
        # xi_T -> infinity: for alpha = 2 the branch-power sum is Gamma and
        # gamma -> gamma_bar_T A0^2 * Gamma(N_r mu, scale Omega^2/mu)
        base = thz_spec()
        w_leq = base.pointing.w_leq_m
        spec = thz_spec(jitter_std_m=w_leq / (2.0 * 1e4))
        assert spec.xi_t == pytest.approx(1e4, rel=1e-12)
        a0 = spec.a0_t
        gbar_t = spec.gamma_bar_t(SNR_DB)
        shape = spec.n_rx * spec.mu
        scale = spec.omega ** 2 / spec.mu

        def gamma_sum_cdf(g):
            val, _ = integrate.quad(
                lambda s: s ** (shape - 1.0) * math.exp(-s / scale)
                / (math.gamma(shape) * scale ** shape),
                0.0, g / (gbar_t * a0 * a0), limit=300)
            return val

        for g in np.geomspace(0.05, 3.0, 6) * gbar_t * a0 * a0 * shape * scale:
            got = thz_snr_cdf(g, spec, SNR_DB).value
            assert got == pytest.approx(gamma_sum_cdf(g), abs=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            thz_snr_pdf(0.0, thz_spec(), SNR_DB)
        with pytest.raises(DomainError):
            ThzLinkSpec(env=_env(), alpha=0.0, mu=1.0, n_rx=1, omega=1.0,
                        pointing=thz_spec().pointing)


def _scaled_quad(f, points):
    """mpmath.quad of f over the breakpoints, relative to f's largest value
    on them (mpmath's tolerance is absolute)."""
    top = max(f(p) for p in points[:-1])
    return top * mpmath.quad(lambda y: f(y) / top, points)


def _mpmath_fading_law(gamma, spec, snr_db):
    """(CDF, survival) of the THz SNR by mpmath.quad over the fading Y.

    Given Y ~ Gamma(n), n = N_r mu, P(gamma <= g | Y) = min(1, (z / Y)^rho)
    with z = C3 (g / gamma_bar)^(alpha / 2) and rho = xi^2 / alpha, so
    F = P(Y <= z) + E[(z / Y)^rho; Y > z] and 1 - F = E[1 - (z / Y)^rho;
    Y > z], each integrated at 20 digits with breakpoints at z + 4^j, at
    z 4^j up to n and across the Gamma bulk.
    """
    with mpmath.workdps(20):
        n = mpmath.mpf(spec.n_rx) * spec.mu
        rho = mpmath.mpf(spec.xi_t) ** 2 / spec.alpha
        z = (mpmath.mpf(spec.c3) * (mpmath.mpf(gamma) / spec.gamma_bar(snr_db))
             ** (mpmath.mpf(spec.alpha) / 2))

        def density(y):
            return mpmath.exp((n - 1) * mpmath.log(y) - y - mpmath.loggamma(n))

        points = ({z + mpmath.mpf(4) ** j for j in range(-2, 4)}
                  | {n + i * mpmath.sqrt(n) for i in range(-2, 8, 2)}
                  | {z * mpmath.mpf(4) ** j for j in range(1, 40)
                     if z * mpmath.mpf(4) ** (j - 1) < n})
        points = [z] + sorted(p for p in points if p > z) + [mpmath.inf]
        below = _scaled_quad(lambda y: (z / y) ** rho * density(y), points)
        above = _scaled_quad(
            lambda y: -mpmath.expm1(rho * mpmath.log(z / y)) * density(y), points)
        head = mpmath.gammainc(n, 0, z, regularized=True)
        return float(head + below), float(above)


class TestCeilingRule:
    """The rule over ln Y against the closed-form CDF and mpmath."""

    @pytest.mark.parametrize("n_rx,mu,jitter", [(2, 3.0, 0.06), (1, 1.0, 0.2)])
    def test_cdf_and_survival(self, n_rx, mu, jitter):
        spec = thz_spec(mu=mu, n_rx=n_rx, jitter_std_m=jitter)
        n, k = n_rx * mu, 0.5 * spec.xi_t ** 2
        for snr in (0.0, 70.0):
            gbar = spec.gamma_bar(snr)
            for gamma in gbar * np.array([1e-4, 1e-2, 1.0, 10.0]):
                # F = P(Y <= z) + E[(gamma / gamma_max)^k; gamma_max > gamma]
                z = spec.c3 * (gamma / gbar) ** (spec.alpha / 2.0)
                gmax, w = thz_ceiling_rule(gamma, gamma, spec, snr)
                cdf = sp.gammainc(n, z) + float(np.dot(w, (gamma / gmax) ** k))
                want_cdf, want_sf = _mpmath_fading_law(gamma, spec, snr)
                at = (snr, gamma / gbar)
                assert cdf == pytest.approx(want_cdf, rel=1e-12, abs=0.0), at
                assert cdf == pytest.approx(thz_snr_cdf(gamma, spec, snr).value,
                                            rel=1e-12, abs=0.0), at
                # the survival keeps its digits where the CDF rounds to 1
                assert thz_snr_survival(gamma, spec, snr).value == pytest.approx(
                    want_sf, rel=1e-12, abs=0.0), at

    def test_survival_domain(self):
        spec = thz_spec()
        assert thz_snr_survival(0.0, spec, SNR_DB).value == 1.0
        with pytest.raises(DomainError):
            thz_snr_survival(-1.0, spec, SNR_DB)
        with pytest.raises(DomainError):
            thz_ceiling_rule(1.0, 0.0, spec, SNR_DB)
