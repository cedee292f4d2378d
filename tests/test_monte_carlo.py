"""Monte Carlo tests: sampler laws, estimator agreement, reproducibility."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import special, stats

import fsothz
import fsothz.metrics_analytic as ma
import fsothz.monte_carlo as mc
from fsothz import cli, figures
from fsothz.channel_access import access_snr_cdf
from fsothz.channel_fso import fso_snr_cdf
from fsothz.channel_thz import thz_snr_cdf
from fsothz.errors import DomainError
from fsothz.switching import HardPolicy, evaluate_soft_trace

from conftest import (GTH_5DB, access_spec, fso_spec, soft_policy,
                      system_spec, thz_spec)

Modulation = ma.Modulation


def ks_pvalue(samples, cdf_grid_fn, n_eff=None):
    """Kolmogorov-Smirnov p-value against an analytic CDF.

    The CDF is interpolated from a dense log grid (cheap and far below the
    KS noise floor).  ``n_eff`` discounts serially correlated samples.
    """
    samples = np.sort(samples)
    lo = max(samples[0] * 0.5, 1e-300)
    grid = np.geomspace(lo, samples[-1] * 2.0, 4000)
    cdf = np.array([cdf_grid_fn(g) for g in grid])
    interp = np.interp(samples, grid, cdf)
    n = samples.size
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    d = max(np.max(np.abs(emp_hi - interp)), np.max(np.abs(interp - emp_lo)))
    n_stat = n if n_eff is None else n_eff
    return float(stats.kstwobign.sf(math.sqrt(n_stat) * d))


N = 400_000
SNR = 20.0
# transmit SNR at which the hard hybrid link of system_spec() is in outage
# for a sizeable share of slots
SNR_LOSSY = 12.0


class TestRngStream:
    def test_reproducible(self):
        a = mc.RngStream(123, 4).generator().standard_normal(16)
        b = mc.RngStream(123, 4).generator().standard_normal(16)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = mc.RngStream(123, 0).generator().standard_normal(16)
        b = mc.RngStream(123, 1).generator().standard_normal(16)
        assert not np.array_equal(a, b)


class TestSamplers:
    def test_fso_pointing_freezes_with_tiny_jitter(self):
        spec = fso_spec(jitter_std_m=1e-12)
        rng = mc.RngStream(1).generator()
        gamma = mc.sample_fso_snr(spec, SNR, rng, 1000)
        # with I_p = A0 every draw, gamma / (delta A0^tau) is pure turbulence
        ia = gamma / (spec.delta_tau(SNR) * spec.pointing.a0 ** spec.detection_tau)
        assert np.all(ia > 0)
        spec2 = fso_spec(jitter_std_m=1e-12)
        ia2 = mc.sample_fso_snr(spec2, SNR, mc.RngStream(1).generator(), 1000) \
            / (spec2.delta_tau(SNR) * spec2.pointing.a0 ** spec2.detection_tau)
        assert np.allclose(ia, ia2)

    def test_fso_turbulence_unit_mean(self):
        spec = fso_spec(jitter_std_m=1e-12)
        rng = mc.RngStream(2).generator()
        gamma = mc.sample_fso_snr(spec, SNR, rng, N)
        ia = gamma / (spec.delta_tau(SNR) * spec.pointing.a0)
        scint = (1.0 + 1.0 / spec.alpha_f) * (1.0 + 1.0 / spec.beta_f) - 1.0
        assert ia.mean() == pytest.approx(1.0, abs=3.0 * math.sqrt(scint / N))

    def test_fso_empirical_cdf_matches_closed_form(self):
        spec = fso_spec()
        rng = mc.RngStream(3).generator()
        gamma = mc.sample_fso_snr(spec, SNR, rng, N)
        p = ks_pvalue(gamma, lambda g: fso_snr_cdf(g, spec, SNR).value)
        assert p > 0.01

    def test_thz_rayleigh_reduction(self):
        # alpha=2, mu=1, N_r=1, no misalignment: exponential SNR
        spec = thz_spec(mu=1.0, n_rx=1)
        spec = thz_spec(mu=1.0, n_rx=1,
                        jitter_std_m=spec.pointing.w_leq_m / (2.0 * 1e6))
        rng = mc.RngStream(4).generator()
        gamma = mc.sample_thz_snr(spec, SNR, rng, N)
        mean = spec.gamma_bar_t(SNR) * spec.a0_t ** 2
        d, p = stats.kstest(gamma / mean, "expon")
        assert p > 0.01

    def test_thz_branch_power_construction(self):
        spec = thz_spec()
        rng = mc.RngStream(5).generator()
        gamma = mc.sample_thz_snr(spec, SNR, rng, N)
        hp2_mean = (spec.a0_t ** 2 * spec.xi_t ** 2 / (spec.xi_t ** 2 + 2.0))
        want = spec.gamma_bar_t(SNR) * hp2_mean * spec.n_rx * spec.omega ** 2
        assert gamma.mean() == pytest.approx(want, rel=0.02)

    def test_thz_empirical_cdf_matches_closed_form(self):
        # for alpha = 2 the single alpha-mu MRC replacement is exact, so the
        # KS distance also measures the approximation error: report it
        spec = thz_spec()
        rng = mc.RngStream(6).generator()
        gamma = mc.sample_thz_snr(spec, SNR, rng, N)
        p = ks_pvalue(gamma, lambda g: thz_snr_cdf(g, spec, SNR).value)
        assert p > 0.01

    def test_access_exponential_reduction(self):
        spec = access_spec(m=1.0, n_tx=1)
        rng = mc.RngStream(7).generator()
        gamma = mc.sample_access_snr(spec, SNR, rng, N)
        d, p = stats.kstest(gamma / spec.gamma_bar_r(SNR), "expon")
        assert p > 0.01

    def test_access_mean_matches_shape_scale(self):
        spec = access_spec()
        rng = mc.RngStream(8).generator()
        gamma = mc.sample_access_snr(spec, SNR, rng, N)
        want = spec.n_tx * spec.gamma_bar_r(SNR)
        sd = want / math.sqrt(spec.m * spec.n_tx)
        assert gamma.mean() == pytest.approx(want, abs=3.0 * sd / math.sqrt(N))

    def test_access_empirical_cdf_matches_closed_form(self):
        spec = access_spec()
        rng = mc.RngStream(9).generator()
        gamma = mc.sample_access_snr(spec, SNR, rng, N)
        p = ks_pvalue(gamma, lambda g: access_snr_cdf(g, spec, SNR))
        assert p > 0.01


class TestEstimators:
    def test_minimum_n_refusal(self):
        with pytest.raises(DomainError, match="at least"):
            mc.estimate_outage(system_spec(), 100, 1)

    def test_deterministic_channel_zero_outage(self):
        # freeze every fading factor near its mean with SNRs above threshold
        spec = ma.SystemSpec(
            fso=fso_spec(cn2=1e-18, jitter_std_m=1e-12),
            thz=thz_spec(mu=5e4, jitter_std_m=1e-12),
            access=access_spec(m=500.0),
            policy=HardPolicy(GTH_5DB), gamma_r_th=GTH_5DB,
            transmit_snr_db=30.0)
        est = mc.estimate_outage(spec, mc.MIN_SAMPLES, 1, "e2e")
        assert est.value == 0.0

    def test_hard_outage_matches_analytic(self):
        spec = system_spec(snr_db=30.0)
        est = mc.estimate_outage(spec, 1_000_000, 11, "hybrid")
        ana = ma.outage_hybrid(spec).value
        lo, hi = est.interval(3.0)
        assert lo <= ana <= hi

    def test_soft_outage_matches_analytic_via_trace(self):
        spec = system_spec(snr_db=25.0, policy=soft_policy())
        est = mc.estimate_outage(spec, 1_000_000, 12, "hybrid")
        ana = ma.outage_hybrid(spec).value
        lo, hi = est.interval(3.5)
        assert lo <= ana <= hi

    def test_capacity_matches_analytic(self):
        spec = system_spec(snr_db=30.0)
        est = mc.estimate_capacity(spec, 600_000, 13, "hybrid")
        ana = ma.capacity_hybrid(spec).value
        lo, hi = est.interval(3.0)
        assert lo <= ana <= hi

    def test_aber_matches_analytic(self):
        spec = system_spec(snr_db=30.0)
        mod = Modulation.bpsk()
        est = mc.estimate_aber(spec, mod, 1_000_000, 14, "hybrid")
        ana = ma.aber_hybrid(spec, mod).value
        lo, hi = est.interval(3.0)
        assert lo <= ana <= hi

    def test_estimates_bit_identical_across_runs(self):
        spec = system_spec(snr_db=25.0)
        a = mc.estimate_outage(spec, 200_000, 21, "e2e")
        b = mc.estimate_outage(spec, 200_000, 21, "e2e")
        assert a == b

    def test_estimate_result_invariants(self):
        spec = system_spec(snr_db=25.0)
        for link in mc.LINKS:
            est = mc.estimate_outage(spec, 50_000, 31, link)
            assert est.ci_lo <= est.value <= est.ci_hi
            assert est.n_samples >= 50_000

    def test_soft_outage_carries_memory_across_blocks(self):
        # one trace over burn-in + n slots, counted after the burn-in, must
        # equal the block-wise estimate; with this seed the first block ends
        # with the FSO memory set and the second opens on a mid-band slot in
        # THz outage, so dropping the memory would lose one outage slot
        spec = system_spec(snr_db=15.0, policy=soft_policy())
        n = mc.BLOCK_SIZE + 5000
        est = mc.estimate_outage(spec, n, 34, "hybrid")
        gf, gt = mc.sample_trace_snrs(spec, n + mc.TRACE_BURN_IN, 0.0, 34)
        states = evaluate_soft_trace(gf, gt, spec.policy)[mc.TRACE_BURN_IN:]
        assert est.n_samples == n
        assert est.value == np.count_nonzero(states == 2) / n

    def test_hard_e2e_outage_counts_draws_in_stream_order(self):
        spec = system_spec(snr_db=20.0)
        n = 50_000
        rng = mc.RngStream(19, 0).generator()
        gf = mc.sample_fso_snr(spec.fso, 20.0, rng, n)
        gt = mc.sample_thz_snr(spec.thz, 20.0, rng, n)
        gr = mc.sample_access_snr(spec.access, 20.0, rng, n)
        th = spec.policy.gamma_th
        fail = ((gf < th) & (gt < th)) | (gr < spec.gamma_r_th)
        est = mc.estimate_outage(spec, n, 19, "e2e")
        assert est.value == np.count_nonzero(fail) / n

    def test_hybrid_aber_ratio_stderr_by_delta_method(self):
        spec = system_spec(snr_db=SNR_LOSSY)
        mod = Modulation.bpsk()
        n = mc.MIN_SAMPLES
        rng = mc.RngStream(23, 0).generator()
        gf = mc.sample_fso_snr(spec.fso, SNR_LOSSY, rng, n)
        gt = mc.sample_thz_snr(spec.thz, SNR_LOSSY, rng, n)
        th = spec.policy.gamma_th
        sent = (gf >= th) | (gt >= th)
        v = np.where(gf >= th, 0.5 * special.erfc(np.sqrt(gf)),
                     np.where(gt >= th, 0.5 * special.erfc(np.sqrt(gt)), 0.0))
        ratio = v.sum() / sent.sum()
        want = math.sqrt(np.sum((v - ratio * sent) ** 2)) / sent.sum()
        assert 0.1 < sent.mean() < 0.9
        est = mc.estimate_aber(spec, mod, n, 23, "hybrid")
        assert est.value == pytest.approx(ratio, rel=1e-12)
        assert est.stderr == pytest.approx(want, rel=1e-9)

    def test_hybrid_aber_without_transmission_is_undefined(self):
        spec = system_spec(snr_db=-20.0, policy=soft_policy())
        mod = Modulation.mpsk(16)
        est = mc.estimate_aber(spec, mod, mc.MIN_SAMPLES, 7, "hybrid")
        assert math.isnan(est.value) and math.isnan(est.stderr)
        assert est.ci95 == (0.0, mod.a * mod.n0)

    def test_e2e_aber_without_transmission_spans_composition(self):
        job = {j.label: j for j in figures.figure_jobs("fig12")}["soft_str_a"]
        spec = job.config.system_spec(transmit_snr_db=0.0)
        mod = job.modulation
        assert math.isnan(mc.estimate_aber(spec, mod, 20_000, 7, "hybrid").value)
        acc = mc.estimate_aber(spec, mod, 20_000, 7, "access").value
        est = mc.estimate_aber(spec, mod, 20_000, 7, "e2e")
        assert math.isnan(est.value) and math.isnan(est.stderr)
        top = mod.a * mod.n0
        ends = sorted([acc, top + acc - 2.0 * top * acc])
        assert est.ci95 == pytest.approx(ends, rel=1e-12)

    def test_ci_coverage_smoke(self):
        # 95% Wilson interval covers the analytic value in >= 90/100 runs
        spec = system_spec(snr_db=20.0)
        ana = ma.outage_hybrid(spec).value
        hits = sum(1 for run in range(100)
                   if (lambda e: e.ci_lo <= ana <= e.ci_hi)(
                       mc.estimate_outage(spec, mc.MIN_SAMPLES, 500 + run,
                                          "hybrid")))
        assert hits >= 90


class TestTraces:
    def test_iid_lag1_autocorrelation_near_zero(self):
        spec = system_spec(snr_db=25.0, policy=soft_policy())
        gf, _ = mc.sample_trace_snrs(spec, 100_000, 0.0, 41)
        lg = np.log(gf)
        r = np.corrcoef(lg[:-1], lg[1:])[0, 1]
        assert abs(r) < 3.0 / math.sqrt(gf.size)

    def test_ar1_driver_autocorrelation(self):
        spec = system_spec(snr_db=25.0, policy=soft_policy())
        gf, _ = mc.sample_trace_snrs(spec, 200_000, 0.9, 42)
        # the log-SNR is a monotone transform of correlated drivers; its
        # rank autocorrelation tracks the Gaussian-copula correlation
        u = stats.rankdata(gf) / (gf.size + 1.0)
        z = stats.norm.ppf(u)
        r = np.corrcoef(z[:-1], z[1:])[0, 1]
        assert r == pytest.approx(0.9, abs=0.01)

    def test_marginals_preserved_under_correlation(self):
        spec = system_spec(snr_db=20.0, policy=soft_policy())
        rho = 0.9
        gf, gt = mc.sample_trace_snrs(spec, 300_000, rho, 43)
        n_eff = gf.size * (1.0 - rho) / (1.0 + rho)
        p_f = ks_pvalue(gf, lambda g: fso_snr_cdf(g, spec.fso, 20.0).value,
                        n_eff=n_eff)
        p_t = ks_pvalue(gt, lambda g: thz_snr_cdf(g, spec.thz, 20.0).value,
                        n_eff=n_eff)
        assert p_f > 0.01 and p_t > 0.01

    def test_run_trace_reproducible(self):
        spec = system_spec(snr_db=25.0, policy=soft_policy())
        a = mc.sample_trace_snrs(spec, 50_000, 0.9, 44)
        b = mc.sample_trace_snrs(spec, 50_000, 0.9, 44)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_rho_domain(self):
        spec = system_spec(policy=soft_policy())
        with pytest.raises(DomainError):
            mc.sample_trace_snrs(spec, 10_000, 1.0, 1)


def _split_tail_quantile(shape, z):
    """Gamma quantile at normal score z, inverting the upper tail for z >= 0."""
    z = np.asarray(z, dtype=float)
    return np.where(z < 0.0, special.gammaincinv(shape, special.ndtr(z)),
                    special.gammainccinv(shape, special.ndtr(-z)))


class TestCopulaKernels:
    SHAPES = (0.2, 0.6, 1.0, 3.0, 4.25, 5.84, 20.0, 200.0, 2000.0)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_gamma_quantile_matches_split_tail_reference(self, shape):
        z = np.concatenate([
            np.linspace(mc.Z_LO, mc.Z_HI, 20_001),
            np.random.default_rng(7).uniform(mc.Z_LO, mc.Z_HI, 20_000)])
        got = mc._gamma_quantile(shape, z)
        ref = _split_tail_quantile(shape, z)
        assert np.max(np.abs(got / ref - 1.0)) < 1e-10

    @pytest.mark.parametrize("shape", (0.2, 3.0, 5.84, 2000.0))
    @pytest.mark.parametrize("z", (-8.0, 8.0))
    def test_gamma_quantile_mpmath_tails(self, shape, z):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            a = mpmath.mpf(shape)
            if z < 0:
                target = mpmath.ncdf(z)
                law = lambda x: mpmath.gammainc(a, 0, x, regularized=True)
            else:
                target = mpmath.ncdf(-z)
                law = lambda x: mpmath.gammainc(a, x, mpmath.inf,
                                                regularized=True)
            # solved for ln x: the lower quantile of shape 0.2 is ~1e-69
            start = math.log(_split_tail_quantile(shape, z))
            log_x = mpmath.findroot(
                lambda y: mpmath.log(law(mpmath.exp(y)) / target), start)
            exact = float(mpmath.exp(log_x))
        got = float(mc._gamma_quantile(shape, np.array([z]))[0])
        assert got == pytest.approx(exact, rel=1e-10)

    def test_gamma_quantile_clips_to_driver_range(self):
        got = mc._gamma_quantile(3.0, np.array([-40.0, mc.Z_LO, mc.Z_HI, 40.0]))
        assert got[0] == got[1] and got[2] == got[3]
        assert got[0] == pytest.approx(special.gammaincinv(3.0, 1e-16),
                                       rel=1e-13)

    def test_gamma_quantile_table_built_once_per_shape(self):
        mc._gamma_log_quantile_table.cache_clear()
        z = np.linspace(-3.0, 3.0, 7)
        first = mc._gamma_quantile(2.5, z)
        assert np.array_equal(first, mc._gamma_quantile(2.5, z))
        info = mc._gamma_log_quantile_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("rho", (0.5, 0.9, 0.99))
    @pytest.mark.parametrize("n", (37, 4 * mc.AR1_BLOCK, 10_007))
    def test_ar1_filter_matches_scalar_recurrence(self, rho, n):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, n))
        initial = np.array([2.5, -1.75, 0.5])
        gain = math.sqrt(1.0 - rho * rho)
        ref = np.empty_like(x)
        for row in range(3):
            state = initial[row]
            for t in range(n):
                state = rho * state + gain * x[row, t]
                ref[row, t] = state
        got = mc._ar1_filter(x, rho, gain, initial)
        assert got.shape == x.shape
        assert np.max(np.abs(got - ref)) < 1e-13

    def test_correlated_trace_does_not_import_scipy_signal(self):
        src = os.path.dirname(os.path.dirname(fsothz.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        script = (
            "import sys\n"
            "import fsothz.monte_carlo as mc\n"
            "from fsothz.config import bundled_config_path, load_config\n"
            "spec = load_config(bundled_config_path('default')).system_spec()\n"
            "gf, gt = mc.sample_trace_snrs(spec, 20_000, 0.9, 1)\n"
            "assert gf.size == gt.size == 20_000\n"
            "print('scipy.signal' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestFigureFlags:
    """Out-of-range and undefined rows of the figure bundles carry a flag."""

    @staticmethod
    def _rows(fig_id, tmp_path):
        path = tmp_path / f"{fig_id}.csv"
        assert cli.main(["figure", fig_id, "--samples", "20000", "--seed", "7",
                         "--out", str(path)]) == 0
        lines = path.read_text().splitlines()[1:]
        return [line.split(",") for line in lines]

    def test_flag_scan(self, tmp_path):
        counts = {"asymptotic": 0, "mc": 0, "tail-quadrature": 0,
                  "capacity-low-snr-approx": 0}
        for fig_id in ("fig6a", "fig12", "fig13", "fig14a", "fig14b"):
            for _, metric, method, value, _, _, flags in self._rows(fig_id,
                                                                    tmp_path):
                flags = set(flags.split(";")) - {""}
                value = float(value)
                if method == "asymptotic":
                    out = not 0.0 <= value <= 1.0
                    assert ("asymptotic-out-of-regime" in flags) == out
                    counts["asymptotic"] += out
                if method == "mc":
                    undefined = math.isnan(value)
                    assert ("mc-no-transmission" in flags) == undefined
                    counts["mc"] += undefined
                if fig_id == "fig13":
                    assert "truncation-cap" not in flags, metric
                counts["tail-quadrature"] += "tail-quadrature" in flags
                # only the printed identity (fig14a "closed") is approximate
                low = "capacity-low-snr-approx" in flags
                assert not low or metric.endswith(":closed"), metric
                counts["capacity-low-snr-approx"] += low
        assert counts == {"asymptotic": 35, "mc": 4, "tail-quadrature": 0,
                          "capacity-low-snr-approx": 15}
