"""Kernel tests: each special function against an independent oracle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from fsothz import channel_fso, specfun
from fsothz import metrics_analytic as ma
from fsothz.errors import DomainError, MeijerGUnsupportedError
from fsothz.figures import FIGURE_IDS, figure_jobs
from fsothz.specfun import MeijerGSpec, meijer_g, meijer_g_contour, meijer_g_residue
from fsothz.switching import activation_threshold

mpmath = pytest.importorskip("mpmath")

# 50-digit reference value of ln Gamma(4.343), frozen from mpmath.
LN_GAMMA_4343 = 2.2387897368119507


class TestLnGamma:
    def test_one(self):
        assert math.lgamma(1.0) == 0.0

    def test_half(self):
        assert math.lgamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)),
                                                      rel=1e-14)

    def test_reference_value(self):
        assert math.lgamma(4.343) == pytest.approx(LN_GAMMA_4343, rel=1e-14)
        mpmath.mp.dps = 50
        live = float(mpmath.loggamma(mpmath.mpf("4.343")))
        assert math.lgamma(4.343) == pytest.approx(live, rel=1e-14)

    def test_exp_matches_gamma(self):
        for x in (0.1, 0.9, 2.5, 4.343, 20.0, 100.0):
            assert math.exp(math.lgamma(x)) == pytest.approx(
                math.gamma(x), rel=1e-12)

    def test_domain(self):
        # the poles of Gamma
        with pytest.raises(ValueError):
            math.lgamma(0.0)
        with pytest.raises(ValueError):
            math.lgamma(-2.0)


class TestUpperIncompleteGamma:
    def test_at_zero_is_complete(self):
        for a in (0.5, 1.0, 2.5, 7.0):
            assert specfun.upper_incomplete_gamma(a, 0.0) == pytest.approx(
                math.gamma(a), rel=1e-14)

    def test_a_one_closed_form(self):
        for x in (0.0, 0.3, 2.0, 10.0):
            assert specfun.upper_incomplete_gamma(1.0, x) == pytest.approx(
                math.exp(-x), rel=1e-13)

    def test_quadrature_oracle(self):
        val, err = integrate.quad(lambda t: t ** 1.5 * math.exp(-t), 3.0,
                                  math.inf, limit=200, epsabs=1e-14,
                                  epsrel=1e-13)
        assert err < 1e-11 * val
        assert specfun.upper_incomplete_gamma(2.5, 3.0) == pytest.approx(
            val, rel=1e-10)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 12.0, 30)
        vals = [specfun.upper_incomplete_gamma(2.5, x) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_negative_a_against_mpmath(self):
        # the THz CDF needs a < 0 at the reference geometry
        for a in (-0.3, -2.5, -4.788437547527607):
            for x in (0.2, 2.0, 19.9, 80.0):
                want = float(mpmath.gammainc(a, x))
                assert specfun.upper_incomplete_gamma(a, x) == pytest.approx(
                    want, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.upper_incomplete_gamma(-1.0, 0.0)
        with pytest.raises(DomainError):
            specfun.upper_incomplete_gamma(1.0, -0.1)


def _erfc_series(x, terms=200):
    total = 0.0
    term = x
    for j in range(terms):
        total += term / (2 * j + 1)
        term *= -x * x / (j + 1)
    return 1.0 - 2.0 / math.sqrt(math.pi) * total


def _erfc_continued_fraction(x, depth=2000):
    # erfc(x) = exp(-x^2)/sqrt(pi) / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    cf = 0.0
    for k in range(depth, 0, -1):
        cf = (k / 2.0) / (x + cf)
    return math.exp(-x * x) / math.sqrt(math.pi) / (x + cf)


class TestErfc:
    def test_at_zero(self):
        assert math.erfc(0.0) == 1.0

    def test_reflection(self):
        for x in (0.2, 0.6267, 1.7, 3.0):
            assert math.erfc(x) + math.erfc(-x) == pytest.approx(2.0,
                                                                       abs=1e-15)

    def test_tail_no_premature_underflow(self):
        assert 0.0 < math.erfc(10.0) < 3e-45
        assert math.erfc(11.9) > 0.0

    def test_dual_method_oracle(self):
        x = 0.6267
        series = _erfc_series(x)
        cf = _erfc_continued_fraction(x)
        assert series == pytest.approx(cf, abs=1e-13)
        assert math.erfc(x) == pytest.approx(series, abs=1e-12)


def _mp_meijerg(spec):
    mpmath.mp.dps = 30
    val = mpmath.meijerg([list(spec.a_front), list(spec.a_back)],
                         [list(spec.b_front), list(spec.b_back)], spec.z)
    return float(val)


# Parameter blocks of the reference strong-turbulence FSO CDF (tau = 1)
XI2_F, ALPHA_F, BETA_F = 20.927519918950376, 4.3438490233637, 2.4929899425800346
# and of the THz CDF at case (a): alpha=2, mu=3, N_r=2
XI2_T, C2_T = 21.57687475505561, -4.788437547527607
RHO_T = XI2_T / 2.0


def fso_cdf_spec(z):
    return MeijerGSpec((1.0,), (XI2_F + 1.0,), (XI2_F, ALPHA_F, BETA_F),
                       (0.0,), z)


def thz_cdf_spec(z):
    return MeijerGSpec((1.0 - RHO_T,), (1.0,), (0.0, C2_T), (-RHO_T,), z)


class TestMeijerG:
    def test_exp_reduction(self):
        for z in (0.2, 1.0, 4.5):
            got = meijer_g(MeijerGSpec((), (), (0.0,), (), z))
            assert got.value == pytest.approx(math.exp(-z), rel=1e-13)

    @pytest.mark.parametrize("z", [1e-6, 1e-3, 0.1, 1.0, 10.0, 87.0])
    def test_fso_cdf_instance_vs_mpmath(self, z):
        assert meijer_g(fso_cdf_spec(z)).value == pytest.approx(
            _mp_meijerg(fso_cdf_spec(z)), rel=1e-9)

    @pytest.mark.parametrize("z", [1e-5, 0.3, 2.0, 30.0, 400.0])
    def test_thz_cdf_instance_vs_mpmath(self, z):
        got = math.exp(specfun.igamma_reduction_log(RHO_T, C2_T, z))
        assert got == pytest.approx(_mp_meijerg(thz_cdf_spec(z)), rel=1e-9)

    def test_unsupported_pinch_raises(self):
        spec = MeijerGSpec((2.0,), (), (1.0,), (0.5, 0.5, 0.5), 0.5)
        with pytest.raises(MeijerGUnsupportedError):
            meijer_g(spec)
        for _ in range(2):      # the second call reads the cached outcome
            with pytest.raises(MeijerGUnsupportedError, match="coincide") as err:
                meijer_g_residue(spec)
            assert str(err.value).count("unsupported Meijer-G parameters") == 1

    def test_log_case_routes_to_contour(self):
        spec = MeijerGSpec((0.0,), (1.0, XI2_F + 1.0),
                           (XI2_F, ALPHA_F, BETA_F, 0.0, 0.0), (), 0.2)
        with pytest.raises(MeijerGUnsupportedError):
            meijer_g_residue(spec)
        got = meijer_g(spec)
        assert got.value == pytest.approx(meijer_g_contour(spec).value,
                                          rel=1e-10)

    def test_pure(self):
        spec = fso_cdf_spec(0.37)
        assert meijer_g(spec).value == meijer_g(spec).value


def _capacity_identity_specs(z):
    """The parameter tuples of the printed capacity identities: the FSO and
    THz full-range terms (theta1, theta3) and lower terms (theta2, theta4)."""
    rho1 = (XI2_F + 1.0,)
    rho2 = (XI2_F, ALPHA_F, BETA_F)
    alpha = 2.0
    c = XI2_T / 2.0
    rho3 = tuple((j - c - 1.0) / alpha for j in (1, 2)) \
        + tuple((j - c) / alpha for j in (1, 2)) + (0.5, 1.0)
    rho4 = (0.0, 0.5, C2_T / 2.0, (C2_T + 1.0) / 2.0) \
        + tuple((j - 1.0 - c) / alpha for j in (1, 2)) * 2
    return {
        "theta1": MeijerGSpec((0.0,), (1.0,) + rho1, rho2 + (0.0, 0.0), (), z),
        "theta2": MeijerGSpec((1.0 - 1e-4,), rho1, rho2, (-1e-4,), z),
        "theta3": MeijerGSpec(rho3[:2], rho3[2:], rho4, (), z),
        "theta4": MeijerGSpec((1.0 - RHO_T - 1e-4,), (1.0,), (0.0, C2_T),
                              (-RHO_T - 1e-4,), z),
    }


class TestDualPathAgreement:
    """Residue series and contour quadrature agree where both apply.

    Logarithmic instances (integer pole differences) are routed to exactly
    one supported path: the residue series must refuse them and the contour
    value must match the production routing.
    """

    @pytest.mark.parametrize("name", sorted(_capacity_identity_specs(1.0)))
    def test_identity_instances(self, name):
        compared = 0
        for z in np.geomspace(1e-6, 1e3, 7):
            spec = _capacity_identity_specs(float(z))[name]
            prod = meijer_g(spec)
            try:
                res = meijer_g_residue(spec)
            except MeijerGUnsupportedError:
                res = None
            con = None
            try:
                con = meijer_g_contour(spec)
            except MeijerGUnsupportedError:
                pass
            if res is not None and con is not None \
                    and not res.flags and not con.flags:
                compared += 1
                assert res.value == pytest.approx(con.value, rel=1e-8), z
            # the production router must agree with any clean direct path
            for direct in (res, con):
                if direct is not None and not direct.flags and prod.value != 0.0:
                    assert prod.value == pytest.approx(direct.value, rel=1e-7)

    @pytest.mark.parametrize("make_spec", [fso_cdf_spec, thz_cdf_spec])
    def test_metric_instances(self, make_spec):
        compared = 0
        for z in np.geomspace(1e-6, 1e3, 10):
            spec = make_spec(z)
            try:
                res = meijer_g_residue(spec)
                if res.flags:
                    continue  # routed to one supported path in production
            except MeijerGUnsupportedError:
                continue
            con = meijer_g_contour(spec)
            if con.flags:
                continue
            compared += 1
            assert res.value == pytest.approx(con.value, rel=1e-8)
        assert compared >= 5  # both paths genuinely exercised

    def test_perturbed_residue_brackets_contour(self):
        # logarithmic case: +-1e-7 perturbation of one repeated parameter
        # bounds the contour value
        eps = 1e-7
        z = 0.2

        def perturbed(sign):
            return meijer_g_residue(MeijerGSpec(
                (0.0,), (1.0, XI2_F + 1.0),
                (XI2_F, ALPHA_F, BETA_F, 0.0, sign * eps), (), z)).value

        exact = meijer_g_contour(MeijerGSpec(
            (0.0,), (1.0, XI2_F + 1.0),
            (XI2_F, ALPHA_F, BETA_F, 0.0, 0.0), (), z)).value
        avg = 0.5 * (perturbed(+1.0) + perturbed(-1.0))
        spread = abs(perturbed(+1.0) - perturbed(-1.0))
        assert abs(avg - exact) <= max(spread, 1e-8 * abs(exact))


def _preset_fso_cdf_points():
    """(G parameters, z) of the FSO CDF of every distinct FSO link of the
    figure presets, at tau = 1 and 2, at their jobs' SNR thresholds and
    transmit SNRs from 0 to 70 dB in 2.5 dB steps."""
    links = {}
    for fig_id in FIGURE_IDS:
        for job in figure_jobs(fig_id):
            spec = job.config.system_spec()
            pol = spec.policy
            gammas = {getattr(pol, name) for name in
                      ("gamma_th", "gamma_f_th_u", "gamma_f_th_l")
                      if hasattr(pol, name)}
            for tau in (1, 2):
                fso = dataclasses.replace(spec.fso, detection_tau=tau)
                links.setdefault(fso, set()).update(gammas)
    points = []
    for fso, gammas in links.items():
        tau = fso.detection_tau
        rho1, rho2, _, d2 = fso.cdf_blocks
        for snr in np.arange(0.0, 71.0, 2.5):
            scale = fso.pointing.a0 ** tau * fso.delta_tau(float(snr))
            for gamma in sorted(gammas):
                points.append(((1.0,), rho1, rho2, (0.0,), d2 * gamma / scale))
    return points


class TestResidueAgainstMpmath:
    """The residue route against mpmath.meijerg on the presets' FSO CDFs."""

    def test_unflagged_values_match(self):
        compared = 0
        for params in _preset_fso_cdf_points():
            spec = MeijerGSpec(*params)
            try:
                got = meijer_g_residue(spec)
            except MeijerGUnsupportedError:
                continue
            if got.flags & {specfun.FLAG_RESIDUE_ILL_CONDITIONED,
                            specfun.FLAG_TRUNCATION_CAP}:
                continue
            compared += 1
            assert got.value == pytest.approx(_mp_meijerg(spec), rel=1e-11,
                                              abs=0.0), params
        assert compared > 200

    def test_sweep_builds_families_once(self):
        job = figure_jobs("fig5")[0]
        gamma = job.config.system_spec().policy.gamma_th
        specfun._residue_families.cache_clear()
        for snr in np.linspace(0.0, 70.0, 50):
            spec = job.config.with_sweep_value(float(snr)).system_spec()
            channel_fso.fso_snr_cdf(gamma, spec.fso, spec.transmit_snr_db)
        info = specfun._residue_families.cache_info()
        assert (info.misses, info.hits) == (1, 49)


@pytest.fixture(scope="module")
def fig14a_printed_calls():
    """The MeijerGSpecs that the printed capacity identities pass to
    meijer_g, and the (rho, beta, z) they pass to igamma_reduction_log, at
    every point of the fig14a ``closed`` job."""
    job = {j.label: j for j in figure_jobs("fig14a")}["closed"]
    specs, reductions = [], []
    meijer, reduction = specfun.meijer_g, specfun.igamma_reduction_log

    def recorded_meijer(spec):
        specs.append(spec)
        return meijer(spec)

    def recorded_reduction(*args):
        reductions.append(args)
        return reduction(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specfun, "meijer_g", recorded_meijer)
        mp.setattr(specfun, "igamma_reduction_log", recorded_reduction)
        for value in job.config.sweep.values():
            spec = job.config.with_sweep_value(float(value)).system_spec()
            ma._printed_capacity_fso(activation_threshold(spec.policy, "fso"),
                                     spec)
            ma._printed_capacity_thz(activation_threshold(spec.policy, "thz"),
                                     spec)
    return specs, reductions


class TestPrintedIdentitiesAgainstMpmath:
    """The routes of the printed capacity identities (fig14a ``closed``)
    against mpmath.meijerg at 30 digits, at that bundle's arguments."""

    def test_full_range_terms_on_contour(self, fig14a_printed_calls):
        # theta1 (FSO) and theta3 (THz) at 0 to 50 dB; mpmath's series need
        # seconds at the THz z of 10 dB (9.9e4) and minutes at 0 and 5 dB
        # (9.9e6, 9.9e5), which stay unchecked
        specs, _ = fig14a_printed_calls
        full = [spec for spec in specs if not spec.b_back]
        assert len(full) == 22
        checked = 0
        for spec in full:
            got = meijer_g_contour(spec)
            assert not got.flags
            assert meijer_g(spec) == got
            if spec.z > 1e5:
                continue
            checked += 1
            want = _mp_meijerg(specfun._canonical(spec))
            assert got.value == pytest.approx(want, rel=1e-11, abs=0.0), spec
        assert checked == 20

    def test_fso_lower_terms(self, fig14a_printed_calls):
        # theta2: the residue series, or the contour where it is flagged
        specs, _ = fig14a_printed_calls
        lower = [spec for spec in specs if spec.b_back]
        assert len(lower) == 22
        for spec in lower:
            want = _mp_meijerg(spec)
            assert meijer_g(spec).value == pytest.approx(
                want, rel=1e-11, abs=0.0), spec

    def test_thz_lower_terms_by_reduction(self, fig14a_printed_calls):
        # theta4: G^{2,1}_{2,3}[z | (1-rho, 1); (0, beta, -rho)]
        _, reductions = fig14a_printed_calls
        assert len(reductions) == 22
        for rho, beta, z in reductions:
            with mpmath.workdps(30):
                want = mpmath.log(mpmath.meijerg([[1 - rho], [1]],
                                                 [[0, beta], [-rho]], z))
            got = specfun.igamma_reduction_log(rho, beta, z)
            assert got == pytest.approx(float(want), rel=0.0, abs=1e-12), z


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.01, max_value=20.0),
       st.floats(min_value=0.01, max_value=5.0))
def test_upper_gamma_recurrence_property(a, x):
    """Gamma(a+1,x) = a Gamma(a,x) + x^a e^-x for all sampled (a, x)."""
    lhs = specfun.upper_incomplete_gamma(a + 1.0, x)
    rhs = (a * specfun.upper_incomplete_gamma(a, x)
           + math.exp(a * math.log(x) - x))
    assert lhs == pytest.approx(rhs, rel=1e-10)
