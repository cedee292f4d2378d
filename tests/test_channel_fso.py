"""FSO channel model tests: attenuation, turbulence, pointing, SNR laws."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, optimize, special

from fsothz import channel_fso, figures, specfun
from fsothz.channel_fso import (PointingGeometry, attenuation,
                                attenuation_coefficient_per_km, fso_snr_cdf,
                                fso_snr_pdf, fso_snr_survival,
                                rytov_turbulence_params)
from fsothz.errors import DomainError, MeijerGUnsupportedError

from conftest import fso_spec

SNR_DB = 30.0


class TestAttenuation:
    def test_zero_path(self):
        assert attenuation(10.0, 1550e-9, 0.0) == 1.0

    def test_branch_table(self):
        # the three visibility regimes select q = 1.6 / 1.3 / 0.585 Vi^(1/3)
        lam_ratio = 1550.0 / 550.0
        sig60 = attenuation_coefficient_per_km(60.0, 1550e-9)
        assert sig60 == pytest.approx(3.912 / 60.0 * lam_ratio ** 1.6, rel=1e-14)
        sig10 = attenuation_coefficient_per_km(10.0, 1550e-9)
        assert sig10 == pytest.approx(3.912 / 10.0 * lam_ratio ** 1.3, rel=1e-14)
        sig2 = attenuation_coefficient_per_km(2.0, 1550e-9)
        q2 = 0.585 * 2.0 ** (1.0 / 3.0)
        assert sig2 == pytest.approx(3.912 / 2.0 * lam_ratio ** q2, rel=1e-14)

    def test_dual_path_oracle(self):
        # independent transcription of the Beer-Lambert/Kim chain
        got = attenuation(10.0, 1550e-9, 200.0)
        sigma = 3.912 / 10.0 * (1550.0 / 550.0) ** 1.3
        want = math.exp(-sigma * 0.2)
        assert got == want
        assert got == pytest.approx(0.7401690320453023, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            attenuation(0.0, 1550e-9, 100.0)
        with pytest.raises(DomainError):
            attenuation(10.0, 1550e-9, -1.0)


class TestRytovParams:
    def test_strong_reference_values(self):
        alpha, beta = rytov_turbulence_params(1e-12, 1550e-9, 200.0)
        assert alpha == pytest.approx(4.343, rel=0.05)
        assert beta == pytest.approx(2.492, rel=0.05)

    def test_moderate_reference_values(self):
        alpha, beta = rytov_turbulence_params(5e-13, 1550e-9, 200.0)
        assert alpha == pytest.approx(5.838, rel=0.05)
        assert beta == pytest.approx(4.249, rel=0.05)

    def test_vanishing_turbulence_limit(self):
        alpha, beta = rytov_turbulence_params(1e-17, 1550e-9, 200.0)
        assert alpha > 100.0 and beta > 100.0

    def test_shapes_decrease_with_turbulence(self):
        pairs = [rytov_turbulence_params(c, 1550e-9, 200.0)
                 for c in (1e-14, 1e-13, 5e-13, 1e-12)]
        alphas = [p[0] for p in pairs]
        betas = [p[1] for p in pairs]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))
        assert all(a > b for a, b in zip(betas, betas[1:]))


class TestPointingGeometry:
    def test_reference_geometry_dual_path(self):
        # a = 20 cm, w_L = 40 cm, sigma_j = 5 cm, recomputed independently
        pg = PointingGeometry(0.20, 0.40, 0.05)
        v0 = math.sqrt(math.pi * 0.20 ** 2 / (2.0 * 0.40 ** 2))
        assert v0 == math.sqrt(math.pi * 0.125)
        assert pg.v0 == v0
        a0 = math.erf(v0) ** 2
        assert pg.a0 == a0
        w_leq = math.sqrt(math.sqrt(math.pi * a0) * 0.40 ** 2
                          / (2.0 * v0 * math.exp(-v0 ** 2)))
        assert pg.w_leq_m == w_leq
        assert pg.xi == w_leq / 0.10

    def test_validity_flag(self):
        # reference geometry violates w_L > 6a; computation proceeds anyway
        assert not PointingGeometry(0.20, 0.40, 0.05).beamwidth_valid
        assert PointingGeometry(0.05, 0.40, 0.05).beamwidth_valid

    def test_domain(self):
        with pytest.raises(DomainError):
            PointingGeometry(0.0, 0.4, 0.05)


def _quad_pdf(spec, lo, hi):
    val, _ = integrate.quad(
        lambda g: fso_snr_pdf(g, spec, SNR_DB).value, lo, hi, limit=400)
    return val


def _quad_pdf_full(spec):
    """Piecewise integral of the pdf over (0, inf) on a log-spaced splitting."""
    delta = spec.delta_tau(SNR_DB)
    edges = [0.0] + list(delta * np.geomspace(1e-7, 1e3, 21)) + [math.inf]
    return sum(_quad_pdf(spec, a, b) for a, b in zip(edges, edges[1:]))


def _mpmath_pdf(gamma, spec, snr_db):
    """The density as G^{3,0}_{1,3}, evaluated by mpmath at 30 digits."""
    tau = spec.detection_tau
    with mpmath.workdps(30):
        xi2 = mpmath.mpf(spec.pointing.xi) ** 2
        al, be = mpmath.mpf(spec.alpha_f), mpmath.mpf(spec.beta_f)
        z = (al * be / spec.pointing.a0
             * (mpmath.mpf(gamma) / spec.delta_tau(snr_db)) ** (mpmath.mpf(1) / tau))
        g = mpmath.meijerg([[], [xi2 + 1]], [[xi2, al, be], []], z)
        return float(xi2 / (tau * mpmath.gamma(al) * mpmath.gamma(be) * gamma) * g)


# turbulence and pointing of the figure presets: fig5/fig12 strong case (a)
# and moderate case (b) (xi^2 = 20.9), fig10 at 0.2 m jitter (xi^2 = 0.53)
# and at 0.1 m jitter, whose xi^2 = 4.27 sits just above beta_F = 4.25
DENSITY_GEOMETRIES = {
    "strong": dict(cn2=1e-12),
    "moderate": dict(cn2=5e-13),
    "fig10_jitter0.2": dict(cn2=5e-13, aperture_radius_m=0.10,
                            beamwidth_m=0.27, jitter_std_m=0.20),
    "fig10_jitter0.1": dict(cn2=5e-13, aperture_radius_m=0.10,
                            beamwidth_m=0.40, jitter_std_m=0.10),
}


class TestPdfAgainstMpmath:
    @pytest.mark.parametrize("tau", [1, 2])
    @pytest.mark.parametrize("geometry", sorted(DENSITY_GEOMETRIES))
    def test_matches_meijer_g(self, geometry, tau):
        spec = fso_spec(tau=tau, **DENSITY_GEOMETRIES[geometry])
        scale = spec.pointing.a0 / (spec.alpha_f * spec.beta_f)
        for z in np.geomspace(1e-3, 1e3, 7):
            gamma = spec.delta_tau(SNR_DB) * (z * scale) ** tau
            assert fso_snr_pdf(gamma, spec, SNR_DB).value == pytest.approx(
                _mpmath_pdf(gamma, spec, SNR_DB), rel=1e-9, abs=0.0)

    # fig12 moderate case (b) at 5.3 dB: z = 386 and z = 1.27e3, where the
    # Meijer-G contour stopped at its refinement cap (-9.3e-5 relative) and
    # the leading-term asymptotic was used out of its regime (+44 %)
    @pytest.mark.parametrize("gamma", [15.2, 50.0])
    def test_deep_tail_points(self, gamma):
        spec = fso_spec(cn2=5e-13)
        assert fso_snr_pdf(gamma, spec, 5.3).value == pytest.approx(
            _mpmath_pdf(gamma, spec, 5.3), rel=1e-9, abs=0.0)

    def test_no_meijer_g_flags(self):
        spec = fso_spec(cn2=5e-13)
        assert fso_snr_pdf(50.0, spec, 5.3).flags == frozenset()


class TestPeakSearch:
    """The rule's Newton peak search against brentq on the density grid."""

    def test_density_matches_brentq_peak(self, monkeypatch):
        points = []
        for geometry in sorted(DENSITY_GEOMETRIES):
            for tau in (1, 2):
                spec = fso_spec(tau=tau, **DENSITY_GEOMETRIES[geometry])
                scale = spec.pointing.a0 / (spec.alpha_f * spec.beta_f)
                for z in np.geomspace(1e-3, 1e3, 13):
                    points.append(
                        (spec.delta_tau(SNR_DB) * (z * scale) ** tau, spec))
        searches = []
        newton = channel_fso._log_gg_peak

        def counted(*args):
            searches.append(args)
            return newton(*args)

        monkeypatch.setattr(channel_fso, "_log_gg_peak", counted)
        got = [fso_snr_pdf(gamma, spec, SNR_DB).value for gamma, spec in points]
        assert len(searches) > 10

        def brentq_peak(lo, hi, z0, nu, slope):
            return optimize.brentq(
                lambda s: channel_fso._log_gg_derivatives(s, z0, nu, slope)[0],
                lo, hi, xtol=1e-9, rtol=1e-12)

        monkeypatch.setattr(channel_fso, "_log_gg_peak", brentq_peak)
        for (gamma, spec), value in zip(points, got):
            assert value == pytest.approx(fso_snr_pdf(gamma, spec, SNR_DB).value,
                                          rel=1e-13, abs=0.0), gamma
        for args in searches:
            peak = newton(*args)
            assert args[0] < peak < args[1]
            assert peak == pytest.approx(brentq_peak(*args), abs=1e-8)


def _mpmath_cdf(gamma, spec, snr_db, survival=False):
    """P(I_a I_p <= A0 c) as G^{3,1}_{2,4}, by mpmath at 30 digits (or 1
    minus it at 30 digits)."""
    tau = spec.detection_tau
    with mpmath.workdps(30):
        xi2 = mpmath.mpf(spec.pointing.xi) ** 2
        al, be = mpmath.mpf(spec.alpha_f), mpmath.mpf(spec.beta_f)
        z = (al * be / spec.pointing.a0
             * (mpmath.mpf(gamma) / spec.delta_tau(snr_db)) ** (mpmath.mpf(1) / tau))
        g = mpmath.meijerg([[1], [xi2 + 1]], [[xi2, al, be], [0]], z)
        cdf = xi2 / (mpmath.gamma(al) * mpmath.gamma(be)) * g
        return float(1 - cdf if survival else cdf)


def _residue_cdf(gamma, spec, snr_db):
    """The residue-series CDF, or None where the Meijer-G engine would
    leave it for the contour (it raises or is flagged)."""
    tau = spec.detection_tau
    rho1, rho2, d1, d2 = spec.cdf_blocks
    z = d2 * gamma / (spec.pointing.a0 ** tau * spec.delta_tau(snr_db))
    try:
        g = specfun.meijer_g_residue(
            specfun.MeijerGSpec((1.0,), rho1, rho2, (0.0,), z))
    except MeijerGUnsupportedError:
        return None
    if g.flags & {specfun.FLAG_TRUNCATION_CAP,
                  specfun.FLAG_RESIDUE_ILL_CONDITIONED}:
        return None
    return d1 * g.value


def _preset_cdf_points():
    """(spec, SNR, threshold) of the fig10, fig12 and fig13 FSO CDF calls."""
    points = []
    fig10 = figures.figure_jobs("fig10")[0].config
    for jitter in (0.2, 0.1):        # xi^2 = 0.53 and 4.27
        cfg = fig10.replaced("fso", jitter_std_m=jitter)
        for snr in range(0, 75, 10):
            spec = cfg.system_spec(float(snr))
            points.append((spec.fso, float(snr), spec.policy.gamma_th))
    for fig_id in ("fig12", "fig13"):
        for job in figures.figure_jobs(fig_id):
            for snr in range(0, 75, 5):
                spec = job.config.with_sweep_value(float(snr)).system_spec()
                pol = spec.policy
                for gamma in {getattr(pol, name) for name in
                              ("gamma_th", "gamma_f_th_u", "gamma_f_th_l")
                              if hasattr(pol, name)}:
                    points.append((spec.fso, float(snr), gamma))
    return sorted(set(points), key=lambda p: (p[1], p[2], repr(p[0])))


class TestCdfAgainstMpmath:
    """The scintillation-conditioned CDF where the residue series fails."""

    @pytest.mark.parametrize("tau", [1, 2])
    @pytest.mark.parametrize("geometry", sorted(DENSITY_GEOMETRIES))
    def test_kernel_matches_meijer_g(self, geometry, tau):
        spec = fso_spec(tau=tau, **DENSITY_GEOMETRIES[geometry])
        scale = spec.pointing.a0 / (spec.alpha_f * spec.beta_f)
        for z in np.geomspace(1e-3, 1e3, 13):
            gamma = spec.delta_tau(SNR_DB) * (z * scale) ** tau
            assert channel_fso._by_scintillation(
                gamma, spec, SNR_DB, survival=False) == pytest.approx(
                    _mpmath_cdf(gamma, spec, SNR_DB), rel=1e-12, abs=0.0), z

    def test_presets_route_and_value(self):
        kernel = 0
        for spec, snr, gamma in _preset_cdf_points():
            got = fso_snr_cdf(gamma, spec, snr)
            residue = _residue_cdf(gamma, spec, snr)
            assert "contour-fallback" not in got.flags
            if residue is not None:
                assert got.value == min(max(residue, 0.0), 1.0)
                continue
            kernel += 1
            assert got.value == pytest.approx(
                _mpmath_cdf(gamma, spec, snr), rel=1e-12, abs=0.0), (snr, gamma)
        assert kernel > 10

    def test_no_contour_calls(self, monkeypatch):
        calls = {"contour": 0}
        contour = specfun.meijer_g_contour

        def counted_contour(*args, **kwargs):
            calls["contour"] += 1
            return contour(*args, **kwargs)

        monkeypatch.setattr(specfun, "meijer_g_contour", counted_contour)
        for spec, snr, gamma in _preset_cdf_points():
            fso_snr_cdf(gamma, spec, snr)
            fso_snr_survival(gamma, spec, snr)
        assert calls["contour"] == 0

    def test_survival_on_the_cdf_route(self):
        # 1 - F on the residue series; on the kernel the survival itself,
        # which keeps its digits where F rounds to 1
        kernel = 0
        for spec, snr, gamma in _preset_cdf_points():
            got = fso_snr_survival(gamma, spec, snr).value
            if _residue_cdf(gamma, spec, snr) is not None:
                assert got == 1.0 - fso_snr_cdf(gamma, spec, snr).value
                continue
            kernel += 1
            assert got == pytest.approx(
                _mpmath_cdf(gamma, spec, snr, survival=True),
                rel=1e-12, abs=0.0), (snr, gamma)
            assert got + fso_snr_cdf(gamma, spec, snr).value == pytest.approx(
                1.0, abs=1e-15)
        assert kernel > 10


class TestSnrDistribution:
    @pytest.mark.parametrize("tau", [1, 2])
    def test_pdf_normalization(self, tau):
        assert _quad_pdf_full(fso_spec(tau=tau)) == pytest.approx(1.0, abs=1e-6)

    def test_pdf_nonnegative_on_log_grid(self):
        spec = fso_spec()
        delta = spec.delta_tau(SNR_DB)
        for g in np.geomspace(1e-6, 1e6 * delta, 40):
            assert fso_snr_pdf(g, spec, SNR_DB).value >= 0.0

    def test_cdf_at_zero(self):
        assert fso_snr_cdf(0.0, fso_spec(), SNR_DB).value == 0.0

    def test_cdf_monotone(self):
        spec = fso_spec()
        grid = np.geomspace(1e-4, 1e6, 60)
        vals = [fso_snr_cdf(g, spec, SNR_DB).value for g in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("tau", [1, 2])
    def test_cdf_equals_pdf_integral(self, tau):
        spec = fso_spec(tau=tau)
        delta = spec.delta_tau(SNR_DB)
        acc = 0.0
        prev = 0.0
        for g in np.geomspace(1e-3 * delta, 10.0 * delta, 20):
            acc += _quad_pdf(spec, prev, g)
            prev = g
            assert fso_snr_cdf(g, spec, SNR_DB).value == pytest.approx(
                acc, abs=1e-6)

    def test_heterodyne_beats_imdd(self):
        # tau=1 CDF <= tau=2 CDF at every gamma above 0 dB (strong turbulence)
        het = fso_spec(tau=1)
        imdd = fso_spec(tau=2)
        for g in np.geomspace(1.0, 10.0 ** (SNR_DB / 10.0), 25):
            assert (fso_snr_cdf(g, het, SNR_DB).value
                    <= fso_snr_cdf(g, imdd, SNR_DB).value + 1e-12)

    def test_no_pointing_limit(self):
        # xi -> infinity collapses the misalignment factor to A0
        base = fso_spec()
        w_leq = base.pointing.w_leq_m
        spec = fso_spec(jitter_std_m=w_leq / (2.0 * 1e4))
        assert spec.pointing.xi == pytest.approx(1e4, rel=1e-12)
        al, be = spec.alpha_f, spec.beta_f
        a0 = spec.pointing.a0
        delta = spec.delta_tau(SNR_DB)

        def gg_pdf(x):
            return (2.0 * (al * be) ** ((al + be) / 2.0)
                    / (math.gamma(al) * math.gamma(be))
                    * x ** ((al + be) / 2.0 - 1.0)
                    * special.kv(al - be, 2.0 * math.sqrt(al * be * x)))

        for g in np.geomspace(0.05 * delta, 2.0 * delta, 6):
            upper = (g / delta) ** (1.0 / spec.detection_tau) / a0
            want, _ = integrate.quad(gg_pdf, 0.0, upper, limit=300)
            got = fso_snr_cdf(g, spec, SNR_DB).value
            assert got == pytest.approx(want, abs=1e-3)

    def test_validity_flag_carried(self):
        flags = fso_snr_cdf(1.0, fso_spec(), SNR_DB).flags
        assert "beamwidth-validity" in flags

    def test_domain(self):
        with pytest.raises(DomainError):
            fso_snr_pdf(0.0, fso_spec(), SNR_DB)
        with pytest.raises(DomainError):
            fso_snr_cdf(-1.0, fso_spec(), SNR_DB)
