"""Closed-form metric tests against quadrature and classical reductions."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import fsothz.metrics_analytic as ma
import fsothz.monte_carlo as mc
from fsothz import channel_fso, cli, figures, specfun
from fsothz.config import bundled_config_path, load_config
from fsothz.channel_access import access_snr_pdf
from fsothz.channel_fso import fso_snr_pdf
from fsothz.channel_thz import thz_snr_pdf
from fsothz.errors import DomainError
from fsothz.switching import HardPolicy, SoftPolicy

from conftest import GTH_5DB, access_spec, soft_policy, system_spec

Modulation = ma.Modulation


class TestModulationTable:
    def test_ook(self):
        m = Modulation.ook()
        assert (m.n0, m.a, m.b_list, m.tau) == (1, 0.5, (0.5,), 2)

    def test_bpsk(self):
        m = Modulation.bpsk()
        assert (m.n0, m.a, m.b_list, m.tau) == (1, 0.5, (1.0,), 1)

    def test_16psk(self):
        m = Modulation.mpsk(16)
        assert m.n0 == 4
        assert m.a == pytest.approx(0.25)
        assert m.b_list[0] == pytest.approx(math.sin(math.pi / 16.0) ** 2)

    def test_16qam(self):
        m = Modulation.mqam(16)
        assert m.n0 == 2
        assert m.a == pytest.approx(2.0 / 4.0 * (1.0 - 0.25))
        assert m.b_list == tuple(pytest.approx(3.0 * (2 * p - 1) ** 2 / 30.0)
                                 for p in (1, 2))

    def test_qpsk_equals_4qam(self):
        qpsk, qam4 = Modulation.mpsk(4), Modulation.mqam(4)
        assert qpsk.n0 == qam4.n0 == 1
        assert qpsk.a == pytest.approx(qam4.a, abs=1e-15)
        assert qpsk.b_list[0] == pytest.approx(qam4.b_list[0], abs=1e-15)

    def test_qpsk_equals_4qam_aber_curves(self):
        for snr in (20.0, 30.0, 40.0):
            spec = system_spec(snr_db=snr)
            a = ma.aber_e2e(spec, Modulation.mpsk(4)).value
            b = ma.aber_e2e(spec, Modulation.mqam(4)).value
            assert a == pytest.approx(b, rel=1e-12)

    def test_invalid_orders(self):
        with pytest.raises(DomainError):
            Modulation.mpsk(6)
        with pytest.raises(DomainError):
            Modulation.mqam(32)


class TestOutageCompositions:
    def test_perfect_access_leaves_hybrid(self):
        spec = system_spec(snr_db=150.0)  # gamma_bar_R -> infinity proxy
        hyb = ma.outage_hybrid(spec).value
        e2e = ma.outage_e2e(spec).value
        assert e2e == pytest.approx(hyb, rel=1e-6)

    def test_outage_free_limit(self):
        spec = system_spec(snr_db=200.0)
        assert ma.outage_e2e(spec).value < 1e-12

    def test_coincident_soft_equals_hard(self):
        hard = system_spec()
        soft = system_spec(policy=HardPolicy(GTH_5DB).as_soft())
        assert ma.outage_e2e(soft).value == pytest.approx(
            ma.outage_e2e(hard).value, abs=1e-15)

    def test_soft_thz_threshold_to_zero_leaves_access(self):
        pol = SoftPolicy(GTH_5DB, GTH_5DB, 1e-12)
        spec = system_spec(policy=pol)
        acc = ma.outage_access(spec.threshold("access"), spec).value
        assert ma.outage_e2e(spec).value == pytest.approx(acc, rel=1e-6)


class TestDiversity:
    def test_reference_orders(self):
        spec = system_spec()  # strong turbulence, case (a), m=2 N_t=2
        orders = ma.diversity_order(spec)
        assert orders.fso == pytest.approx(spec.fso.beta_f)  # xi^2 > alpha > beta
        assert orders.thz == pytest.approx(6.0)              # alpha Nr mu / 2
        assert orders.access == pytest.approx(4.0)           # m N_t
        assert orders.hybrid == pytest.approx(orders.fso + orders.thz)
        assert orders.e2e == pytest.approx(4.0)

    def test_imdd_halves_fso_order(self):
        assert ma.diversity_order(system_spec(tau=2)).fso == pytest.approx(
            ma.diversity_order(system_spec(tau=1)).fso / 2.0)


def _slope(outage_fn, lo=55.0, hi=70.0, n=4):
    snrs = np.linspace(lo, hi, n)
    vals = np.array([outage_fn(s) for s in snrs])
    return np.polyfit(snrs / 10.0, np.log10(vals), 1)[0]


class TestAsymptotics:
    def test_e2e_ratio_converges(self):
        spec = system_spec(snr_db=60.0)
        exact = ma.outage_e2e(spec).value
        asym = ma.asymptotic_outage(spec, "e2e")
        assert 0.9 < exact / asym < 1.1

    def test_fso_asymptote_slope(self):
        spec = system_spec()
        want = -ma.diversity_order(spec).fso
        slope = _slope(lambda s: ma.asymptotic_outage(spec.at_snr(s), "fso"),
                       50.0, 70.0)
        assert slope == pytest.approx(want, rel=0.05)

    def test_thz_asymptote_slope(self):
        spec = system_spec()
        want = -ma.diversity_order(spec).thz
        slope = _slope(lambda s: ma.asymptotic_outage(spec.at_snr(s), "thz"),
                       50.0, 70.0)
        assert slope == pytest.approx(want, rel=0.05)

    def test_soft_asymptotic_structure(self):
        spec = system_spec(snr_db=60.0, policy=soft_policy())
        exact = ma.outage_hybrid(spec).value
        asym = ma.asymptotic_outage(spec, "hybrid")
        assert 0.8 < exact / asym < 1.2


    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    def test_computes_only_the_cdfs_of_its_link(self, soft, monkeypatch):
        spec = system_spec(snr_db=50.0, policy=soft_policy() if soft else None)
        cdfs = {}
        for link in ("fso", "thz", "access"):
            cdfs[link] = getattr(ma, f"asymptotic_cdf_{link}")
        if soft:
            p_low = cdfs["fso"](spec.policy.gamma_f_th_l, spec.fso, 50.0)
            p_hig = 1.0 - cdfs["fso"](spec.policy.gamma_f_th_u, spec.fso, 50.0)
            f_fso = p_low / (p_low + p_hig)
        else:
            f_fso = cdfs["fso"](spec.policy.gamma_th, spec.fso, 50.0)
        f_thz = cdfs["thz"](spec.threshold("thz"), spec.thz, 50.0)
        f_acc = cdfs["access"](spec.gamma_r_th, spec.access, 50.0)
        want = {"fso": f_fso, "thz": f_thz, "hybrid": f_fso * f_thz,
                "access": f_acc, "e2e": f_fso * f_thz + f_acc}
        calls = {}

        def counted(link):
            def cdf(*args):
                calls[link] = calls.get(link, 0) + 1
                return cdfs[link](*args)
            return cdf

        for link in cdfs:
            monkeypatch.setattr(ma, f"asymptotic_cdf_{link}", counted(link))
        n_fso = 2 if soft else 1
        per_link = {"fso": {"fso": n_fso}, "thz": {"thz": 1},
                    "hybrid": {"fso": n_fso, "thz": 1}, "access": {"access": 1},
                    "e2e": {"fso": n_fso, "thz": 1, "access": 1}}
        for link, counts in per_link.items():
            calls.clear()
            assert ma.asymptotic_outage(spec, link) == want[link]
            assert calls == counts, link

    @pytest.mark.parametrize("twin", [False, True], ids=["hard", "soft-twin"])
    def test_fig6a_point_takes_one_fso_cdf_per_link(self, twin, monkeypatch):
        # coincident FSO thresholds cost one FSO CDF, exact or asymptotic,
        # per composition that uses the FSO link, under either policy type
        job, = figures.figure_jobs("fig6a")
        spec = job.config.with_sweep_value(50.0).system_spec()
        if twin:
            g = spec.policy.gamma_th
            spec = dataclasses.replace(spec, policy=SoftPolicy(g, g, g))
        calls = {}

        def counted(fn):
            def wrapper(*args):
                calls[fn.__name__] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(channel_fso, "fso_snr_cdf",
                            counted(channel_fso.fso_snr_cdf))
        monkeypatch.setattr(ma, "asymptotic_cdf_fso",
                            counted(ma.asymptotic_cdf_fso))
        for link in job.links:
            calls.update(fso_snr_cdf=0, asymptotic_cdf_fso=0)
            ma.outage_link(spec, link)
            ma.asymptotic_outage(spec, link)
            n = int(link in ("fso", "hybrid", "e2e"))
            assert calls == {"fso_snr_cdf": n, "asymptotic_cdf_fso": n}, link

    def test_coincident_thresholds_report_the_asymptote_itself(self):
        # below the high-SNR regime the asymptotic FSO CDF A runs far past
        # 1; A / (A + (1 - A)) would divide by zero there
        spec = system_spec(snr_db=-20.0)
        g = spec.policy.gamma_th
        a = ma.asymptotic_cdf_fso(g, spec.fso, -20.0)
        assert a > 2.0 ** 53
        twin = dataclasses.replace(spec, policy=SoftPolicy(g, g, g))
        for s in (spec, twin):
            assert ma.asymptotic_outage(s, "fso") == a
            thz = ma.asymptotic_outage(s, "thz")
            assert ma.asymptotic_outage(s, "hybrid") == a * thz


def _quad_capacity(pdf, gamma_th, anchor, xi=1.0):
    def integrand(g):
        return math.log1p(xi * g) / math.log(2.0) * pdf(g)

    mid = max(anchor, 2.0 * gamma_th)
    head, _ = integrate.quad(integrand, gamma_th, mid, limit=400)
    tail, _ = integrate.quad(integrand, mid, math.inf, limit=400)
    return head + tail


def _fso_capacity_oracle(gamma_th, spec):
    """int_th^inf log2(1 + xi g) f(g) dg by adaptive quadrature of the FSO
    density (itself checked against mpmath) at epsrel 1e-12, split at 1.5,
    3, 10 and 100 times the threshold and at 1e-3 to 100 times the SNR
    scale delta A0^tau; xi = e / (2 pi) for IM/DD."""
    fso, snr = spec.fso, spec.transmit_snr_db
    tau = fso.detection_tau
    xi = math.e / (2.0 * math.pi) if tau == 2 else 1.0

    def integrand(g):
        return math.log1p(xi * g) * fso_snr_pdf(g, fso, snr).value

    scale = fso.delta_tau(snr) * fso.pointing.a0 ** tau
    edges = ({gamma_th * f for f in (1.5, 3.0, 10.0, 100.0)}
             | {scale * f for f in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0)})
    edges = [gamma_th] + sorted(e for e in edges if e > gamma_th) + [math.inf]
    return sum(integrate.quad(integrand, lo, hi, limit=400, epsabs=0.0,
                              epsrel=1e-12)[0]
               for lo, hi in zip(edges, edges[1:])) / math.log(2.0)


def _thz_oracle(gamma_th, spec, weight, scales=()):
    """E[weight(gamma_T); gamma_T > gamma_th] by nested adaptive quadrature.

    The THz law is written as the mixture it is: the fading variate Y ~
    Gamma(n), n = N_r mu, with density y^(n-1) e^-y / Gamma(n), and given Y
    the SNR gamma_max h^2 with gamma_max = gamma_bar (A0 Omega)^2 (Y /
    n)^(2 / alpha) and the pointing law's density k g^(k-1) / gamma_max^k,
    k = xi^2 / 2.  The outer quadrature over Y (epsrel 1e-12) splits at
    the threshold's Y, just above it, and across the Gamma bulk; the inner
    one over g (epsrel 1e-13) splits at the ``scales`` where the weight
    bends (1 / B_p for erfc(sqrt(B_p g))) and stops 80 of the largest
    scale above the threshold, past which erfc is below e^-80.  (The
    closed-form THz density loses digits in its far upper tail, where the
    low-SNR capacities and ABER live.)
    """
    thz = spec.thz
    n = thz.n_rx * thz.mu
    k = 0.5 * thz.xi_t ** 2
    c = 2.0 / thz.alpha
    scale = thz.gamma_bar(spec.transmit_snr_db) * (thz.a0_t * thz.omega) ** 2
    cut = gamma_th + 80.0 * max(scales) if scales else math.inf

    def given(y):
        m = scale * (y / n) ** c
        hi = min(m, cut)
        points = sorted({gamma_th, hi} | {f * b for b in scales
                                          for f in (1.0, 4.0, 16.0)
                                          if gamma_th < f * b < hi})
        val = sum(integrate.quad(
            lambda t: weight(m * t) * k * t ** (k - 1.0), lo / m, up / m,
            limit=200, epsabs=0.0, epsrel=1e-13)[0]
            for lo, up in zip(points, points[1:]))
        return val * math.exp((n - 1.0) * math.log(y) - y - math.lgamma(n))

    y_th = n * (gamma_th / scale) ** (1.0 / c)
    edges = ({y_th * (1.0 + 2.0 ** j / k) for j in range(-4, 6)}
             | {n + i * math.sqrt(n) for i in range(-4, 9, 2)})
    edges = [y_th] + sorted(e for e in edges if e > y_th) + [math.inf]
    return sum(integrate.quad(given, lo, hi, limit=200, epsabs=0.0,
                              epsrel=1e-12)[0]
               for lo, hi in zip(edges, edges[1:]))


def _thz_capacity_oracle(gamma_th, spec):
    return _thz_oracle(gamma_th, spec,
                       lambda g: math.log1p(g) / math.log(2.0))


def _thz_aber_oracle(gamma_th, spec, mod):
    return _thz_oracle(
        gamma_th, spec,
        lambda g: mod.a * sum(math.erfc(math.sqrt(b * g)) for b in mod.b_list),
        tuple(1.0 / b for b in mod.b_list))


class TestCapacity:
    def test_threshold_zero_is_full_range(self):
        spec = system_spec(snr_db=35.0)
        assert ma.capacity_fso(0.0, spec).value == pytest.approx(
            _fso_capacity_oracle(0.0, spec), rel=1e-9, abs=0.0)
        assert ma.capacity_thz(0.0, spec).value == pytest.approx(
            _thz_capacity_oracle(0.0, spec), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("snr", [30.0, 40.0, 50.0])
    def test_fso_matches_quadrature(self, snr):
        spec = system_spec(snr_db=snr)
        assert ma.capacity_fso(GTH_5DB, spec).value == pytest.approx(
            _fso_capacity_oracle(GTH_5DB, spec), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("snr", [30.0, 40.0, 50.0])
    def test_thz_matches_quadrature(self, snr):
        spec = system_spec(snr_db=snr)
        assert ma.capacity_thz(GTH_5DB, spec).value == pytest.approx(
            _thz_capacity_oracle(GTH_5DB, spec), rel=1e-9, abs=0.0)

    # m = 3, N_t = 5 from 11 to 13.5 dB puts rate * gamma_th between 13 and
    # 23, where an alternating lower-tail series cancels catastrophically
    @pytest.mark.parametrize("snr,m,n_tx", [
        pytest.param(20.0, 2.0, 2, id="20.0"),
        pytest.param(35.0, 2.0, 2, id="35.0"),
        pytest.param(50.0, 2.0, 2, id="50.0"),
        pytest.param(11.0, 3.0, 5, id="11.0-m3nt5"),
        pytest.param(12.0, 3.0, 5, id="12.0-m3nt5"),
        pytest.param(13.5, 3.0, 5, id="13.5-m3nt5")])
    def test_access_matches_quadrature(self, snr, m, n_tx):
        spec = system_spec(snr_db=snr, m=m, n_tx=n_tx)
        got = ma.capacity_access(GTH_5DB, spec).value
        want = _quad_capacity(
            lambda g: access_snr_pdf(g, spec.access, snr), GTH_5DB,
            2.0 * spec.access.gamma_bar_r(snr))
        assert got == pytest.approx(want, abs=1e-3)

    def test_access_classical_reduction(self):
        # m = 1, N_t = 1, threshold 0: exp(1/gbar) E1(1/gbar) / ln 2
        spec = ma.SystemSpec(system_spec().fso, system_spec().thz,
                             access_spec(m=1.0, n_tx=1), HardPolicy(GTH_5DB),
                             GTH_5DB, 30.0)
        gbar = spec.access.gamma_bar_r(30.0)
        want = math.exp(1.0 / gbar) * special.exp1(1.0 / gbar) / math.log(2.0)
        assert ma.capacity_access(0.0, spec).value == pytest.approx(want,
                                                                    abs=1e-6)

    def test_thz_capacity_monotone_in_snr(self):
        vals = [ma.capacity_thz(GTH_5DB, system_spec(snr_db=s)).value
                for s in np.linspace(25.0, 55.0, 10)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_hybrid_coincident_soft_equals_hard(self):
        hard = system_spec(snr_db=40.0)
        soft = system_spec(snr_db=40.0, policy=HardPolicy(GTH_5DB).as_soft())
        assert ma.capacity_hybrid(soft).value == pytest.approx(
            ma.capacity_hybrid(hard).value, abs=1e-9)

    def test_low_snr_divergence_flagged_not_hidden(self):
        # the printed identity (fig14a "closed") deviates at 0 dB and says
        # so; the production kernel matches quadrature and carries no flag
        spec = system_spec(snr_db=0.0)
        for fn, oracle in ((ma.capacity_fso, _fso_capacity_oracle),
                           (ma.capacity_thz, _thz_capacity_oracle)):
            want = oracle(GTH_5DB, spec)
            closed = fn(GTH_5DB, spec, closed_form_only=True)
            assert abs(closed.value - want) > 1e-3  # documented divergence
            assert ma.FLAG_LOW_SNR_CAPACITY in closed.flags
            production = fn(GTH_5DB, spec)
            assert production.value == pytest.approx(want, rel=1e-9, abs=0.0)
            assert not production.flags

    def test_e2e_is_min(self):
        spec = system_spec(snr_db=40.0)
        e2e = ma.capacity_e2e(spec).value
        assert e2e == pytest.approx(
            min(ma.capacity_hybrid(spec).value,
                ma.capacity_access(GTH_5DB, spec).value), rel=1e-12)


def _quad_aber(pdf, gamma_th, mod, anchor):
    def integrand(g):
        err = sum(math.erfc(math.sqrt(b * g)) for b in mod.b_list)
        return mod.a * err * pdf(g)

    mid = max(anchor, 2.0 * gamma_th)
    head, _ = integrate.quad(integrand, gamma_th, mid, limit=400)
    tail, _ = integrate.quad(integrand, mid, math.inf, limit=400)
    return head + tail


class TestAber:
    @pytest.mark.parametrize("snr", [25.0, 35.0, 45.0])
    def test_fso_matches_quadrature(self, snr):
        spec = system_spec(snr_db=snr)
        mod = Modulation.bpsk()
        got = ma.aber_fso(GTH_5DB, spec, mod).value
        want = _quad_aber(lambda g: fso_snr_pdf(g, spec.fso, snr).value,
                          GTH_5DB, mod, 2.0)
        assert got == pytest.approx(want, rel=2e-2)

    @pytest.mark.parametrize("snr", [25.0, 35.0, 45.0])
    def test_thz_matches_quadrature(self, snr):
        spec = system_spec(snr_db=snr)
        mod = Modulation.bpsk()
        got = ma.aber_thz(GTH_5DB, spec, mod).value
        want = _quad_aber(lambda g: thz_snr_pdf(g, spec.thz, snr).value,
                          GTH_5DB, mod, 2.0)
        assert got == pytest.approx(want, rel=2e-2)

    @pytest.mark.parametrize("mod", [Modulation.bpsk(), Modulation.mqam(16),
                                     Modulation.mpsk(8)])
    def test_access_matches_quadrature(self, mod):
        spec = system_spec(snr_db=30.0)
        got = ma.aber_access(GTH_5DB, spec, mod).value
        want = _quad_aber(lambda g: access_snr_pdf(g, spec.access, 30.0),
                          GTH_5DB, mod, 2.0)
        assert got == pytest.approx(want, rel=2e-2)

    def test_threshold_zero_drops_lower_terms(self):
        spec = system_spec(snr_db=30.0)
        mod = Modulation.bpsk()
        assert ma.aber_fso(0.0, spec, mod).value == pytest.approx(
            _direct_aber_oracle(0.0, spec, mod), rel=1e-9, abs=0.0)
        assert ma.aber_access(0.0, spec, mod).value == pytest.approx(
            mod.a * _mp_access_oracle(spec, 0.0, 1.0), rel=1e-8, abs=0.0)

    def test_access_classical_rayleigh_bpsk(self):
        # m = 1, N_t = 1, threshold 0: (1 - sqrt(gbar/(1+gbar))) / 2
        spec = ma.SystemSpec(system_spec().fso, system_spec().thz,
                             access_spec(m=1.0, n_tx=1), HardPolicy(GTH_5DB),
                             GTH_5DB, 25.0)
        gbar = spec.access.gamma_bar_r(25.0)
        want = 0.5 * (1.0 - math.sqrt(gbar / (1.0 + gbar)))
        got = ma.aber_access(0.0, spec, Modulation.bpsk()).value
        assert got == pytest.approx(want, rel=1e-8)

    def test_binary_schemes_bounded(self):
        for snr in (0.0, 15.0, 30.0):
            spec = system_spec(snr_db=snr)
            for mod in (Modulation.bpsk(),):
                assert 0.0 <= ma.aber_fso(GTH_5DB, spec, mod).value <= 0.5
                assert 0.0 <= ma.aber_e2e(spec, mod).value <= 0.5

    def test_e2e_composition(self):
        spec = system_spec(snr_db=35.0)
        mod = Modulation.bpsk()
        b1 = ma.aber_hybrid(spec, mod).value
        b2 = ma.aber_access(GTH_5DB, spec, mod).value
        assert ma.aber_e2e(spec, mod).value == pytest.approx(
            b1 + b2 - 2.0 * b1 * b2, rel=1e-12)

    def test_e2e_absorbing_half(self, monkeypatch):
        # B1 = B2 = 1/2 is a fixed point of the composition
        half = lambda *args: specfun.KernelValue(0.5)
        monkeypatch.setattr(ma, "aber_hybrid", half)
        monkeypatch.setattr(ma, "aber_access", half)
        assert ma.aber_e2e(system_spec(), Modulation.bpsk()).value == 0.5

    def test_hybrid_conditional_normalization(self):
        spec = system_spec(snr_db=30.0)
        mod = Modulation.bpsk()
        num = ma.aber_hybrid_unconditional(spec, mod).value
        out = ma.outage_hybrid(spec).value
        assert ma.aber_hybrid(spec, mod).value == pytest.approx(
            num / (1.0 - out), rel=1e-12)

    def test_tau_mismatch_rejected(self):
        with pytest.raises(DomainError):
            ma.aber_fso(GTH_5DB, system_spec(tau=1), Modulation.ook())

    def test_coincident_soft_equals_hard(self):
        mod = Modulation.bpsk()
        hard = system_spec(snr_db=35.0)
        soft = system_spec(snr_db=35.0, policy=HardPolicy(GTH_5DB).as_soft())
        assert ma.aber_hybrid(soft, mod).value == pytest.approx(
            ma.aber_hybrid(hard, mod).value, rel=1e-9)


def _direct_aber_oracle(gamma_th, spec, mod):
    """A sum_p int_th^inf erfc(sqrt(B_p g)) f(g) dg by adaptive quadrature
    of the density (itself checked against mpmath), split at 1.5, 3, 10
    and 100 times the threshold (times 1 at a zero threshold)."""
    snr = spec.transmit_snr_db

    def integrand(g):
        err = sum(math.erfc(math.sqrt(b * g)) for b in mod.b_list)
        return mod.a * err * fso_snr_pdf(g, spec.fso, snr).value

    scale = gamma_th if gamma_th > 0.0 else 1.0
    edges = [gamma_th] + [scale * f for f in (1.5, 3.0, 10.0, 100.0)] + [math.inf]
    return sum(integrate.quad(integrand, lo, hi, limit=400, epsabs=0.0,
                              epsrel=1e-12)[0]
               for lo, hi in zip(edges, edges[1:]))


def _policy_thresholds(policy):
    if isinstance(policy, HardPolicy):
        return (policy.gamma_th,)
    return (policy.gamma_f_th_u, policy.gamma_f_th_l)


FSO_ABER_CASES = ([("fig12", label) for label in
                   ("hard_str_a", "soft_str_a", "hard_mod_b", "soft_mod_b")]
                  + [("fig13", label) for label in
                     ("bpsk", "16qam", "64qam", "ook")])


class TestFsoAberKernel:
    """aber_fso against direct quadrature of erfc times the density.

    The series it replaces was off by 4.4e-5 relative on fig12 soft_mod_b at
    15 dB (gamma_u), by 1.6e-6 on hard_str_a at 10 dB and by 1.2e-6 on
    soft_mod_b at 10 dB (gamma_l, a contour-fallback value); the grid holds
    all three.
    """

    @pytest.mark.parametrize("fig_id,label", FSO_ABER_CASES,
                             ids=[f"{f}-{l}" for f, l in FSO_ABER_CASES])
    def test_matches_direct_quadrature(self, fig_id, label):
        job = {j.label: j for j in figures.figure_jobs(fig_id)}[label]
        mod = job.modulation or job.config.modulation
        for snr in range(0, 75, 5):
            spec = job.config.with_sweep_value(float(snr)).system_spec()
            thresholds = _policy_thresholds(spec.policy)
            if snr in (0, 35, 70):
                thresholds += (0.0,)
            for gamma_th in thresholds:
                got = ma.aber_fso(gamma_th, spec, mod)
                assert got.value == pytest.approx(
                    _direct_aber_oracle(gamma_th, spec, mod),
                    rel=1e-9, abs=0.0), (snr, gamma_th)
                assert not got.flags

    def test_no_contour_calls(self, monkeypatch):
        calls = {"contour": 0}
        contour = specfun.meijer_g_contour

        def counted_contour(*args, **kwargs):
            calls["contour"] += 1
            return contour(*args, **kwargs)

        monkeypatch.setattr(specfun, "meijer_g_contour", counted_contour)
        for fig_id, label in FSO_ABER_CASES:
            job = {j.label: j for j in figures.figure_jobs(fig_id)}[label]
            mod = job.modulation or job.config.modulation
            for snr in (0.0, 5.0, 10.0):
                spec = job.config.with_sweep_value(snr).system_spec()
                for gamma_th in _policy_thresholds(spec.policy):
                    ma.aber_fso(gamma_th, spec, mod)
                    ma.outage_fso(gamma_th, spec)
        assert calls["contour"] == 0
        # the counter is live: a logarithmic pole layout takes the contour
        specfun.meijer_g(specfun.MeijerGSpec((0.5,), (), (0.0, 1.0), (), 2.0))
        assert calls["contour"] == 1


def _preset_points(fig_id, label):
    """(spec, SNR) of a preset job at 0 to 70 dB in 5 dB steps."""
    job = {j.label: j for j in figures.figure_jobs(fig_id)}[label]
    return [(job.config.with_sweep_value(float(snr)).system_spec(), snr)
            for snr in range(0, 75, 5)]


THZ_ABER_CASES = ([("fig12", label) for label in ("hard_str_a", "hard_mod_b")]
                  + [("fig13", label) for label in ("64qam", "ook")])


class TestThzAberKernel:
    """aber_thz against nested quadrature of erfc over the THz mixture.

    fig12's soft jobs share their hard twins' THz threshold, fig13's BPSK
    job the THz link of fig12 hard_mod_b, and its other jobs that link with
    B_p among those of 64-QAM and OOK.  The Meijer-G form this replaced
    left 3.6e-15 where the fig13 4-PSK ABER at 0 dB is 0.
    """

    @pytest.mark.parametrize("fig_id,label", THZ_ABER_CASES,
                             ids=[f"{f}-{l}" for f, l in THZ_ABER_CASES])
    def test_matches_nested_quadrature(self, fig_id, label):
        job = {j.label: j for j in figures.figure_jobs(fig_id)}[label]
        mod = job.modulation or job.config.modulation
        for spec, snr in _preset_points(fig_id, label):
            gamma_t = spec.threshold("thz")
            for gamma_th in (gamma_t, 0.0) if snr in (0, 35, 70) else (gamma_t,):
                got = ma.aber_thz(gamma_th, spec, mod)
                assert got.value == pytest.approx(
                    _thz_aber_oracle(gamma_th, spec, mod),
                    rel=1e-9, abs=0.0), (snr, gamma_th)
                assert not got.flags

    def test_fig13_4psk_equals_4qam_at_0db(self):
        rows = {}
        for label in ("4psk", "4qam"):
            job = {j.label: j for j in figures.figure_jobs("fig13")}[label]
            spec = job.config.with_sweep_value(0.0).system_spec()
            assert ma.aber_thz(spec.policy.gamma_t_th, spec,
                               job.modulation).value == 0.0
            rows[label] = ma.aber_e2e(spec, job.modulation).value
        assert rows["4psk"] == pytest.approx(rows["4qam"], rel=1e-12)


CAPACITY_CASES = [("fig14b", "str_a"), ("fig14b", "mod_b")]


class TestCapacityKernel:
    """capacity_fso and capacity_thz on the fig14a/fig14b presets.

    Every preset capacity job runs on the links of fig14b str_a or mod_b
    (fig14a and the access jobs use mod_b's) at the 5 dB threshold.  The
    "full minus lower" forms this replaces were off by 6.0e-4 at 20 dB
    (mod_b) and left 2.5e-15 where the THz capacity is below 1e-300.
    """

    @pytest.mark.parametrize("link", ["fso", "thz"])
    @pytest.mark.parametrize("fig_id,label", CAPACITY_CASES,
                             ids=[f"{f}-{l}" for f, l in CAPACITY_CASES])
    def test_matches_direct_quadrature(self, fig_id, label, link):
        fn, oracle = {"fso": (ma.capacity_fso, _fso_capacity_oracle),
                      "thz": (ma.capacity_thz, _thz_capacity_oracle)}[link]
        for spec, snr in _preset_points(fig_id, label):
            gamma = spec.threshold(link)
            for gamma_th in (gamma, 0.0) if snr in (0, 35, 70) else (gamma,):
                got = fn(gamma_th, spec)
                assert got.value == pytest.approx(
                    oracle(gamma_th, spec), rel=1e-9, abs=0.0), (snr, gamma_th)
                assert not got.flags


def _fso_upper_aber_oracle(gamma_th, spec, mod):
    """A sum_p E[erfc(sqrt(B_p gamma_F)); gamma_F > gamma_th], given I_a.

    Uses neither the density under test nor the Meijer-G engine.  Given
    I_a = e^u, -ln(I_p / A0) is exponential with rate xi^2; with
    K = B delta (e^u A0)^tau, y = B gamma_th and p = xi^2 / tau, integration
    by parts gives the conditional expectation in closed form,
        erfc(sqrt K) - (y/K)^p erfc(sqrt y)
        + K^-p Gamma(p + 1/2) / sqrt(pi) * (P(p + 1/2, K) - P(p + 1/2, y)),
    and quadrature over u against the Gamma-Gamma density (through kve)
    does the rest.
    """
    fso = spec.fso
    tau = fso.detection_tau
    al, be = fso.alpha_f, fso.beta_f
    p = fso.pointing.xi ** 2 / tau
    delta = fso.delta_tau(spec.transmit_snr_db)
    log_norm = (math.log(2.0) + 0.5 * (al + be) * math.log(al * be)
                - math.lgamma(al) - math.lgamma(be))
    u_th = math.log(gamma_th / delta) / tau - math.log(fso.pointing.a0)
    total = 0.0
    for b in mod.b_list:
        y = b * gamma_th

        def integrand(u):
            z = 2.0 * math.sqrt(al * be) * math.exp(0.5 * u)
            if z > 1e4:                     # density below e^-9000
                return 0.0
            density = math.exp(log_norm + 0.5 * (al + be) * u
                               + math.log(special.kve(al - be, z)) - z)
            k = y * math.exp(tau * (u - u_th))
            given = (math.erfc(math.sqrt(k)) - (y / k) ** p * math.erfc(math.sqrt(y))
                     + math.exp(math.lgamma(p + 0.5) - p * math.log(k))
                     / math.sqrt(math.pi)
                     * (special.gammainc(p + 0.5, k) - special.gammainc(p + 0.5, y)))
            return density * given

        val, _ = integrate.quad(integrand, u_th, math.inf, limit=400,
                                epsabs=0.0, epsrel=1e-11)
        total += mod.a * val
    return total


class TestAberUpperTail:
    """Thin upper tails, where "full minus lower" forms failed.

    fig12 soft moderate case (b) at 0 dB: almost no FSO mass lies above
    gamma_u (about 3e-10), and "full minus lower" returned 1.6e-9 there,
    a hybrid ABER of 5.1 on the Meijer-G density and 7.4e-7 on the
    conditional one.
    """

    @pytest.fixture(scope="class")
    def spec(self):
        job = {j.label: j for j in figures.figure_jobs("fig12")}["soft_mod_b"]
        return job.config.system_spec(transmit_snr_db=0.0)

    def test_fso_tails_match_conditional_oracle(self, spec):
        mod = Modulation.bpsk()
        for gamma_th in (spec.policy.gamma_f_th_u, spec.policy.gamma_f_th_l):
            got = ma.aber_fso(gamma_th, spec, mod)
            assert not got.flags
            assert got.value == pytest.approx(
                _direct_aber_oracle(gamma_th, spec, mod), rel=1e-7, abs=0.0)

    def test_hybrid_matches_direct_tails(self, spec):
        # 1 - P_out is 3.2e-10 here: the oracle builds it from survivals,
        # as 1 - P_out taken from an outage near 1 would carry 3e-7
        mod = Modulation.bpsk()
        pol = spec.policy
        b_fu = _fso_upper_aber_oracle(pol.gamma_f_th_u, spec, mod)
        b_fl = _fso_upper_aber_oracle(pol.gamma_f_th_l, spec, mod)
        b_t = _thz_aber_oracle(pol.gamma_t_th, spec, mod)
        f_l = _mpmath_fso_cdf(pol.gamma_f_th_l, spec)
        f_u = _mpmath_fso_cdf(pol.gamma_f_th_u, spec)
        s_u = _mpmath_fso_cdf(pol.gamma_f_th_u, spec, survival=True)
        s_t = _thz_oracle(pol.gamma_t_th, spec, lambda g: 1.0)
        p_on = s_u / (f_l + s_u)
        p_off = f_l + (f_u - f_l) * f_l / (f_l + s_u)
        want = (b_fu + p_off * b_t + (b_fl - b_fu) * p_on) / (p_on + p_off * s_t)
        got = ma.aber_hybrid(spec, mod).value
        assert got == pytest.approx(want, rel=1e-8, abs=0.0)
        assert 0.0 <= got <= mod.a * mod.n0

    def test_thz_tail_beyond_series_bound(self):
        # B gamma_th = 30: the Meijer-G erfc series this replaced could not
        # be used, and the tail was integrated and flagged instead
        spec = system_spec(snr_db=40.0)
        mod = Modulation.bpsk()
        got = ma.aber_thz(30.0, spec, mod)
        edges = [30.0, 31.0, 34.0, 40.0, 60.0, math.inf]
        want = sum(integrate.quad(
            lambda g: (mod.a * math.erfc(math.sqrt(g))
                       * thz_snr_pdf(g, spec.thz, 40.0).value),
            lo, hi, limit=400, epsabs=0.0, epsrel=1e-12)[0]
            for lo, hi in zip(edges, edges[1:]))
        assert not got.flags
        # the closed-form density itself is good to about 2e-9 this far out
        assert got.value == pytest.approx(want, rel=1e-7, abs=0.0)
        assert got.value == pytest.approx(_thz_aber_oracle(30.0, spec, mod),
                                          rel=1e-9, abs=0.0)

    def test_density_makes_no_meijer_g_call(self, spec, monkeypatch):
        calls = {"pdf": 0, "meijer_g_in_pdf": 0, "meijer_g": 0}
        inside = []
        meijer_g, pdf = specfun.meijer_g, channel_fso.fso_snr_pdf

        def counted_meijer_g(g_spec):
            calls["meijer_g"] += 1
            if inside:
                calls["meijer_g_in_pdf"] += 1
            return meijer_g(g_spec)

        def counted_pdf(*args):
            calls["pdf"] += 1
            inside.append(True)
            try:
                return pdf(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(specfun, "meijer_g", counted_meijer_g)
        monkeypatch.setattr(channel_fso, "fso_snr_pdf", counted_pdf)
        for gamma in (0.1, 1.0, spec.policy.gamma_f_th_u, 100.0):
            channel_fso.fso_snr_pdf(gamma, spec.fso, spec.transmit_snr_db)
        assert calls == {"pdf": 4, "meijer_g_in_pdf": 0, "meijer_g": 0}
        # nor do the backhaul capacities and ABER integrate it, or call
        # Meijer-G, at the threshold where they used to do both
        got = ma.capacity_fso(spec.policy.gamma_f_th_u, spec)
        ma.capacity_thz(spec.policy.gamma_t_th, spec)
        ma.aber_hybrid(spec, Modulation.bpsk())
        assert not got.flags
        assert calls == {"pdf": 4, "meijer_g_in_pdf": 0, "meijer_g": 0}
        # the counters are live: the printed identity calls Meijer-G
        ma.capacity_fso(spec.policy.gamma_f_th_u, spec, closed_form_only=True)
        assert calls["meijer_g"] > 0


def _mpmath_fso_cdf(gamma, spec, survival=False):
    """P(gamma_F <= gamma), or P(gamma_F > gamma), by mpmath at 30 digits:
    the CDF is G^{3,1}_{2,4} (and the survival 1 minus it, at 30 digits)."""
    fso, snr = spec.fso, spec.transmit_snr_db
    tau = fso.detection_tau
    with mpmath.workdps(30):
        xi2 = mpmath.mpf(fso.pointing.xi) ** 2
        al, be = mpmath.mpf(fso.alpha_f), mpmath.mpf(fso.beta_f)
        z = (al * be / fso.pointing.a0
             * (mpmath.mpf(gamma) / fso.delta_tau(snr)) ** (mpmath.mpf(1) / tau))
        cdf = (xi2 / (mpmath.gamma(al) * mpmath.gamma(be))
               * mpmath.meijerg([[1], [xi2 + 1]], [[xi2, al, be], [0]], z))
        return float(1 - cdf if survival else cdf)


def _mp_access_oracle(spec, gamma_th, b=None):
    """E[erfc(sqrt(b gamma)); gamma > gamma_th], or E[log2(1 + gamma); ...]
    when ``b`` is None, for the Gamma(k, rate r) access SNR.

    The density is integrated directly by ``mpmath.quad`` in
    z = (r + b) gamma, where the integrand decays like e^-z: breakpoints
    crowd the threshold and the z = 0 corner, follow the bulk of z^(k-1) e^-z
    in half standard deviations, and double beyond.
    """
    with mpmath.workdps(20):
        k = mpmath.mpf(spec.access.shape)
        r = mpmath.mpf(spec.access.rate(spec.transmit_snr_db))
        scale = r + (b or 0.0)
        log_c = k * mpmath.log(r / scale) - mpmath.loggamma(k)
        if b is None:
            def weight(g):
                return mpmath.log1p(g) / mpmath.log(2)
        else:
            def weight(g):
                return mpmath.erfc(mpmath.sqrt(b * g))

        def integrand(z):
            if z == 0:
                return mpmath.zero
            return weight(z / scale) * mpmath.exp(
                log_c + (k - 1) * mpmath.log(z) - r * z / scale)

        z_th = float(scale * gamma_th)
        sd = math.sqrt(float(k))
        points = {z_th + 2.0 ** j for j in (-40, -30, -20, -10, -2, *range(10))}
        points |= {float(k) - 1.0 + i * sd / 2.0 for i in range(-8, 25)}
        points = [z_th] + sorted(p for p in points if p > z_th) + [mpmath.inf]
        return float(mpmath.quad(integrand, points))


# Gamma shapes k = m N_t: unit, half-integer and integer, up to the presets'
# 15 and beyond.
ACCESS_SHAPES = [(1.0, 1), (1.5, 1), (2.0, 2), (4.5, 1), (2.0, 3), (3.0, 5),
                 (5.0, 4)]


class TestAccessPositiveForms:
    """Access ABER and capacity against direct integrals of the density.

    Neither Craig's form nor integration by parts enters the oracle.  At
    10 dB the fig13 BPSK access ABER used to be 20.7 times too large and at
    0 dB the fig14b access capacities were cancellation residue (0 to
    2.7e-15 where the truth is 1e-104 to 1e-20).
    """

    @pytest.mark.parametrize("m,n_tx", ACCESS_SHAPES,
                             ids=[f"k{m * n:g}" for m, n in ACCESS_SHAPES])
    def test_against_mpmath(self, m, n_tx):
        bpsk, qam16 = Modulation.bpsk(), Modulation.mqam(16)
        for snr in (0.0, 10.0, 30.0, 70.0):
            spec = system_spec(snr_db=snr, m=m, n_tx=n_tx)
            for gamma_th in (0.0, GTH_5DB):
                at = (snr, gamma_th)
                got = ma.capacity_access(gamma_th, spec)
                assert got.value == pytest.approx(
                    _mp_access_oracle(spec, gamma_th), rel=1e-8, abs=0.0), at
                assert not got.flags
                got = ma.aber_access(gamma_th, spec, bpsk)
                assert got.value == pytest.approx(
                    bpsk.a * _mp_access_oracle(spec, gamma_th, 1.0),
                    rel=1e-8, abs=0.0), at
                assert not got.flags
            want = qam16.a * sum(_mp_access_oracle(spec, GTH_5DB, b)
                                 for b in qam16.b_list)
            assert ma.aber_access(GTH_5DB, spec, qam16).value == pytest.approx(
                want, rel=1e-8, abs=0.0), snr

    def test_negative_threshold_rejected(self):
        spec = system_spec()
        with pytest.raises(DomainError):
            ma.capacity_access(-1.0, spec)
        with pytest.raises(DomainError):
            ma.aber_access(-1.0, spec, Modulation.bpsk())

    def test_no_quadrature_or_meijer_g(self, monkeypatch):
        calls = {"quad": 0, "meijer_g": 0}
        quad, meijer_g = integrate.quad, specfun.meijer_g

        def counted_quad(*args, **kwargs):
            calls["quad"] += 1
            return quad(*args, **kwargs)

        def counted_meijer_g(*args):
            calls["meijer_g"] += 1
            return meijer_g(*args)

        monkeypatch.setattr(integrate, "quad", counted_quad)
        monkeypatch.setattr(specfun, "meijer_g", counted_meijer_g)
        job = {j.label: j for j in figures.figure_jobs("fig13")}["bpsk"]
        for snr in (0.0, 10.0):
            spec = job.config.with_sweep_value(snr).system_spec()
            ma.aber_access(spec.gamma_r_th, spec, Modulation.mqam(16))
            ma.capacity_access(spec.gamma_r_th, spec)
        assert calls == {"quad": 0, "meijer_g": 0}
        # the counters are live: quadrature in the tests' own oracle, and
        # Meijer-G in the printed FSO capacity identity
        spec = system_spec(snr_db=30.0)
        _quad_capacity(lambda g: access_snr_pdf(g, spec.access, 30.0), GTH_5DB,
                       2.0 * spec.access.gamma_bar_r(30.0))
        ma.capacity_fso(GTH_5DB, spec, closed_form_only=True)
        assert calls["quad"] > 0 and calls["meijer_g"] > 0


class TestLinkTable:
    """ma.LINKS: which hops each link composes, and one refusal of an
    unknown link for every dispatcher and estimator."""

    def test_links_in_csv_order_with_their_hops(self):
        assert {name: row.hops for name, row in ma.LINKS.items()} == {
            "fso": ("fso",), "thz": ("thz",), "hybrid": ("fso", "thz"),
            "access": ("access",), "e2e": ("fso", "thz", "access")}
        assert tuple(ma.LINKS) == ("fso", "thz", "hybrid", "access", "e2e")

    def test_unknown_link_rejected_everywhere(self):
        spec = system_spec()
        bpsk = Modulation.bpsk()
        n = mc.MIN_SAMPLES
        calls = (lambda: ma.outage_link(spec, "wifi"),
                 lambda: ma.capacity_link(spec, "wifi"),
                 lambda: ma.aber_link(spec, bpsk, "wifi"),
                 lambda: ma.asymptotic_outage(spec, "wifi"),
                 lambda: mc.estimate_outage(spec, n, 1, "wifi"),
                 lambda: mc.estimate_capacity(spec, n, 1, "wifi"),
                 lambda: mc.estimate_aber(spec, bpsk, n, 1, "wifi"))
        for call in calls:
            with pytest.raises(DomainError, match="unknown link 'wifi'"):
                call()

    def test_threshold_of_each_hop(self):
        hard = system_spec()
        soft = system_spec(policy=soft_policy())
        assert (hard.threshold("fso"), hard.threshold("thz"),
                hard.threshold("access")) == (GTH_5DB, GTH_5DB, GTH_5DB)
        assert soft.threshold("fso") == soft.policy.gamma_f_th_u
        assert soft.threshold("thz") == soft.policy.gamma_t_th
        assert soft.threshold("access") == soft.gamma_r_th
        for name in ("hybrid", "e2e", "wifi"):
            with pytest.raises(DomainError, match="not a hop"):
                hard.threshold(name)

    def test_cli_and_figures_iterate_the_table(self):
        cfg = load_config(bundled_config_path("default"))
        rows = cli._diversity_rows(cfg)
        assert [r[1] for r in rows] == [f"diversity:{x}" for x in ma.LINKS]
        rows = cli._run_payloads(cli._sweep_payloads(
            cfg, "outage", ("analytical",), tuple(ma.LINKS), 1, 10_000), 1)
        assert {r[1] for r in rows} == {f"outage:{x}" for x in ma.LINKS}
        job, = figures.figure_jobs("fig6a")
        assert job.links == tuple(ma.LINKS)


_REFERENCE = system_spec()


class TestLinkProperties:
    """Every link of ma.LINKS on the reference spec, at 0-70 dB and soft
    FSO thresholds 5 dB +- eps, eps in 0-3 dB."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(link=st.sampled_from(tuple(ma.LINKS)),
           snr_a=st.floats(0.0, 70.0), snr_b=st.floats(0.0, 70.0),
           eps=st.floats(0.0, 3.0))
    def test_ranges_monotonicity_and_hard_soft_identity(self, link, snr_a,
                                                        snr_b, eps):
        bpsk = Modulation.bpsk()
        g = GTH_5DB
        soft = SoftPolicy(g * 10.0 ** (eps / 10.0), g * 10.0 ** (-eps / 10.0), g)
        for policy in (_REFERENCE.policy, soft):
            outages = []
            for snr in sorted((snr_a, snr_b)):
                spec = dataclasses.replace(_REFERENCE.at_snr(snr),
                                           policy=policy)
                outages.append(ma.outage_link(spec, link).value)
                assert 0.0 <= outages[-1] <= 1.0
                capacity = ma.capacity_link(spec, link).value
                assert 0.0 <= capacity < math.inf
                aber = ma.aber_link(spec, bpsk, link).value
                assert 0.0 <= aber <= bpsk.a * bpsk.n0
            assert outages[1] <= outages[0]
        for snr in (snr_a, snr_b):
            hard = _REFERENCE.at_snr(snr)
            twin = dataclasses.replace(hard, policy=SoftPolicy(g, g, g))
            assert ma.outage_link(twin, link) == ma.outage_link(hard, link)
            assert ma.capacity_link(twin, link) == ma.capacity_link(hard, link)
            assert (ma.aber_link(twin, bpsk, link)
                    == ma.aber_link(hard, bpsk, link))
            assert (ma.asymptotic_outage(twin, link)
                    == ma.asymptotic_outage(hard, link))
