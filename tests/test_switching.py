"""Switching logic tests: outage formulas, hysteresis state machine, counts."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsothz.errors import DomainError
from fsothz.switching import (ActiveLink, HardPolicy, SoftPolicy, SwitchState,
                              count_switch_events, evaluate_soft_trace,
                              soft_combined_outage, soft_fso_off_probability,
                              soft_switch_step)

POL = SoftPolicy(gamma_f_th_u=5.0, gamma_f_th_l=2.0, gamma_t_th=3.0)


class TestSoftOffProbability:
    def test_never_below_lower(self):
        assert soft_fso_off_probability(0.0, 0.3, 0.7) == 0.0

    def test_no_midband_reduces_to_hard(self):
        assert soft_fso_off_probability(0.4, 0.0, 0.6) == pytest.approx(0.4)

    def test_algebraic_value(self):
        assert soft_fso_off_probability(0.2, 0.3, 0.5) == pytest.approx(0.2 / 0.7)

    def test_degenerate_midband(self):
        with pytest.raises(DomainError):
            soft_fso_off_probability(0.0, 1.0, 0.0)

    @settings(max_examples=10_000, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_simplification_identity(self, a, b):
        """The off-probability equals p_low / (p_low + p_hig) identically."""
        p_low, p_u = min(a, b), max(a, b)
        p_med = p_u - p_low
        p_hig = 1.0 - p_u
        if p_low + p_hig <= 1e-12:
            return
        full = soft_fso_off_probability(p_low, p_med, p_hig)
        simplified = p_low / (p_low + p_hig)
        assert abs(full - simplified) < 1e-12


class TestSoftCombinedOutage:
    def test_coincident_thresholds_equal_hard(self):
        # hard switching's outage F_F F_T, exactly: the mid-band term is 0
        rng = np.random.default_rng(7)
        for _ in range(50):
            f, t = rng.random(), rng.random()
            assert soft_combined_outage(POL, f, f, t) == f * t

    def test_thz_never_fails(self):
        assert soft_combined_outage(POL, 0.5, 0.2, 0.0) == 0.0

    def test_ordering_guard(self):
        with pytest.raises(DomainError):
            soft_combined_outage(POL, 0.2, 0.5, 0.3)


class TestSoftSwitchStep:
    def test_above_upper_activates_fso(self):
        state = soft_switch_step(SwitchState(ActiveLink.THZ, True), 6.0, 10.0, POL)
        assert state.active is ActiveLink.FSO
        assert not state.fso_was_below_lower

    def test_midband_hysteresis_keeps_fso(self):
        # FSO active, mid-band, huge THz SNR: FSO stays active regardless
        state = soft_switch_step(SwitchState(ActiveLink.FSO, False), 3.0, 1e9, POL)
        assert state.active is ActiveLink.FSO

    def test_midband_after_drop_uses_thz(self):
        state = soft_switch_step(SwitchState(ActiveLink.THZ, True), 3.0, 4.0, POL)
        assert state.active is ActiveLink.THZ
        assert state.fso_was_below_lower

    def test_midband_after_drop_outage_when_thz_poor(self):
        state = soft_switch_step(SwitchState(ActiveLink.THZ, True), 3.0, 1.0, POL)
        assert state.active is ActiveLink.OUTAGE

    def test_below_lower_thz_active(self):
        state = soft_switch_step(SwitchState(ActiveLink.FSO, False), 1.0, 3.5, POL)
        assert state.active is ActiveLink.THZ
        assert state.fso_was_below_lower

    def test_below_lower_both_poor_outage(self):
        state = soft_switch_step(SwitchState(ActiveLink.FSO, False), 1.0, 1.0, POL)
        assert state.active is ActiveLink.OUTAGE

    def test_threshold_tie_breaks(self):
        # >= at the upper and THz thresholds, < at the lower
        assert soft_switch_step(SwitchState(), 5.0, 0.0, POL).active is ActiveLink.FSO
        state = soft_switch_step(SwitchState(ActiveLink.THZ, True), 2.0, 3.0, POL)
        assert state.active is ActiveLink.THZ  # gamma_f == lower is mid-band

    def test_vectorized_trace_matches_stepping(self):
        rng = np.random.default_rng(11)
        gf = rng.exponential(4.0, 4000)
        gt = rng.exponential(4.0, 4000)
        states = evaluate_soft_trace(gf, gt, POL)
        state = SwitchState()
        code = {ActiveLink.FSO: 0, ActiveLink.THZ: 1, ActiveLink.OUTAGE: 2}
        for i in range(gf.size):
            state = soft_switch_step(state, gf[i], gt[i], POL)
            assert code[state.active] == states[i], f"slot {i}"

    def test_thz_value_irrelevant_given_comparisons(self):
        # only the threshold comparison of gamma_T matters within a slot
        rng = np.random.default_rng(3)
        gf = rng.exponential(4.0, 2000)
        gt = rng.exponential(4.0, 2000)
        gt_scaled = np.where(gt >= POL.gamma_t_th, gt * 17.0 + 5.0, gt * 0.1)
        a = evaluate_soft_trace(gf, gt, POL)
        b = evaluate_soft_trace(gf, gt_scaled, POL)
        assert np.array_equal(a, b)


class TestHardSoftEquivalence:
    def test_soft_form_built_once(self):
        hard = HardPolicy(3.0)
        assert hard.as_soft() is hard.as_soft()
        assert hard.as_soft() == SoftPolicy(3.0, 3.0, 3.0)
        soft = SoftPolicy(5.0, 2.0, 3.0)
        assert soft.as_soft() is soft
        # the twin stays out of equality, hashing and repr, and pickles
        assert hard == HardPolicy(3.0) and hash(hard) == hash(HardPolicy(3.0))
        assert repr(hard) == "HardPolicy(gamma_th=3.0)"
        again = pickle.loads(pickle.dumps(hard))
        assert again == hard and again.as_soft() == hard.as_soft()

    def test_paired_traces_identical_with_coincident_thresholds(self):
        hard = HardPolicy(3.0)
        soft = hard.as_soft()
        rng = np.random.default_rng(5)
        gf = rng.exponential(3.0, 100_000)
        gt = rng.exponential(3.0, 100_000)
        states = evaluate_soft_trace(gf, gt, soft)
        # hard semantics slot by slot: no mid-band exists
        want = np.where(gf >= 3.0, 0, np.where(gt >= 3.0, 1, 2))
        assert np.array_equal(states, want)


class TestSwitchCounts:
    def test_constant_trace(self):
        counts = count_switch_events(np.zeros(100, dtype=np.int8))
        assert counts.link_switches == 0 and counts.outage_transitions == 0

    def test_alternating(self):
        trace = np.tile([0, 1], 5)[:10]
        assert count_switch_events(trace).link_switches == 9

    def test_outage_counted_separately(self):
        trace = np.array([0, 2, 0, 1, 2, 2, 1])
        counts = count_switch_events(trace)
        assert counts.link_switches == 1      # 0 -> 1
        assert counts.outage_transitions == 4  # 0-2, 2-0, 1-2, 2-1
        assert counts.total == 5

    def test_accepts_switch_states(self):
        trace = [SwitchState(ActiveLink.FSO), SwitchState(ActiveLink.THZ)]
        assert count_switch_events(trace).link_switches == 1

    def test_empty_trace_rejected(self):
        with pytest.raises(DomainError):
            count_switch_events([])

    def test_soft_switches_less_than_hard_on_paired_draws(self):
        # i.i.d. fading, paired draws, 20 seeds: hysteresis reduces the
        # total number of active-link identity changes
        hard = HardPolicy(3.0).as_soft()
        soft = SoftPolicy(3.0 * 10 ** 0.2, 3.0 * 10 ** -0.2, 3.0)
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            gf = rng.exponential(6.0, 20_000)
            gt = rng.exponential(6.0, 20_000)
            n_soft = count_switch_events(evaluate_soft_trace(gf, gt, soft)).total
            n_hard = count_switch_events(evaluate_soft_trace(gf, gt, hard)).total
            wins += n_soft < n_hard
        assert wins >= 19
