"""Hard and soft (dual-FSO-threshold hysteresis) link selection.

Hard switching is soft switching with coincident thresholds
gamma_u = gamma_l = gamma_t: every distribution-level formula here and in
the analytic layer is written for a :class:`SoftPolicy`, and a
:class:`HardPolicy` enters them as its coincident-threshold twin
(:meth:`HardPolicy.as_soft`).  The per-slot state machine used by trace
simulation lives here too.  Threshold comparisons follow the switching
procedure verbatim: >= at the upper FSO and THz thresholds, < at the lower
FSO threshold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import DomainError

__all__ = [
    "HardPolicy",
    "SoftPolicy",
    "SwitchPolicy",
    "ActiveLink",
    "SwitchState",
    "SwitchCounts",
    "soft_fso_off_probability",
    "soft_combined_outage",
    "soft_switch_step",
    "evaluate_soft_trace",
    "count_switch_events",
]


@dataclass(frozen=True, slots=True)
class HardPolicy:
    """Single-threshold selection: FSO preferred, THz backup."""

    gamma_th: float
    _soft: "SoftPolicy" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.gamma_th > 0:
            raise DomainError(f"gamma_th must be positive, got {self.gamma_th}")
        g = self.gamma_th
        object.__setattr__(self, "_soft", SoftPolicy(g, g, g))

    def as_soft(self) -> "SoftPolicy":
        """Hard switching is soft switching with coincident thresholds."""
        return self._soft


@dataclass(frozen=True, slots=True)
class SoftPolicy:
    """Dual FSO thresholds (hysteresis) plus one THz threshold."""

    gamma_f_th_u: float
    gamma_f_th_l: float
    gamma_t_th: float

    def __post_init__(self):
        if not self.gamma_f_th_l > 0 or not self.gamma_t_th > 0:
            raise DomainError("soft thresholds must be positive")
        if self.gamma_f_th_u < self.gamma_f_th_l:
            raise DomainError(
                f"upper FSO threshold {self.gamma_f_th_u} below lower "
                f"{self.gamma_f_th_l}")

    def as_soft(self) -> "SoftPolicy":
        """A soft policy is its own soft form."""
        return self


SwitchPolicy = Union[HardPolicy, SoftPolicy]


class ActiveLink(enum.Enum):
    FSO = "fso"
    THZ = "thz"
    OUTAGE = "outage"


@dataclass(frozen=True)
class SwitchState:
    """Active link plus the below-lower-threshold memory bit."""

    active: ActiveLink = ActiveLink.FSO
    fso_was_below_lower: bool = False


@dataclass(frozen=True)
class SwitchCounts:
    """FSO<->THz identity changes, with outage entries/exits kept separate."""

    link_switches: int
    outage_transitions: int

    @property
    def total(self) -> int:
        """All active-link identity changes, outage transitions included."""
        return self.link_switches + self.outage_transitions


def soft_fso_off_probability(p_low: float, p_med: float, p_hig: float) -> float:
    """Steady-state probability the FSO side is off under hysteresis.

    p_low/p_med/p_hig partition the FSO SNR into below-lower, mid-band and
    above-upper.  The returned value equals the algebraic simplification
    p_low / (p_low + p_hig).
    """
    for name, v in (("p_low", p_low), ("p_med", p_med), ("p_hig", p_hig)):
        if not 0.0 <= v <= 1.0:
            raise DomainError(f"{name} must be a probability, got {v}")
    if abs(p_low + p_med + p_hig - 1.0) > 1e-12:
        raise DomainError(
            f"probabilities must sum to 1, got {p_low + p_med + p_hig}")
    if p_low + p_hig == 0.0:
        raise DomainError(
            "degenerate input: mid-band probability 1 leaves the hysteresis "
            "memory unresolved")
    return p_low + p_med * (p_low / (p_low + p_hig))


def soft_combined_outage(policy: SoftPolicy, cdf_f_at_u: float,
                         cdf_f_at_l: float, cdf_t_at_th: float) -> float:
    """Hybrid outage under soft switching: FSO-off probability times THz CDF."""
    if cdf_f_at_l > cdf_f_at_u:
        raise DomainError(
            f"CDF ordering violated: F(lower)={cdf_f_at_l} > F(upper)={cdf_f_at_u}")
    if not 0.0 <= cdf_t_at_th <= 1.0:
        raise DomainError(f"cdf_t_at_th must be a probability, got {cdf_t_at_th}")
    p_low = cdf_f_at_l
    p_med = cdf_f_at_u - cdf_f_at_l
    p_hig = 1.0 - cdf_f_at_u
    return soft_fso_off_probability(p_low, p_med, p_hig) * cdf_t_at_th


def soft_switch_step(state: SwitchState, gamma_f: float, gamma_t: float,
                     policy: SoftPolicy) -> SwitchState:
    """One slot of the soft switching procedure.

    gamma_F >= upper: FSO active, memory cleared.  Mid-band: keep the side
    implied by the memory bit (FSO if the last crossing was upward).  Below
    lower: FSO off and memory set; THz active iff gamma_T >= its threshold,
    otherwise outage.
    """
    if gamma_f >= policy.gamma_f_th_u:
        return SwitchState(ActiveLink.FSO, False)
    thz_ok = gamma_t >= policy.gamma_t_th
    if gamma_f < policy.gamma_f_th_l:
        return SwitchState(ActiveLink.THZ if thz_ok else ActiveLink.OUTAGE, True)
    # mid-band: hysteresis
    if state.fso_was_below_lower:
        return SwitchState(ActiveLink.THZ if thz_ok else ActiveLink.OUTAGE, True)
    return SwitchState(ActiveLink.FSO, False)


_FSO, _THZ, _OUT = 0, 1, 2


def evaluate_soft_trace(gamma_f: np.ndarray, gamma_t: np.ndarray,
                        policy: SoftPolicy,
                        initial: SwitchState = SwitchState()) -> np.ndarray:
    """Vectorized trace of the state machine over per-slot SNR draws.

    Returns an int8 array coded 0 = FSO, 1 = THz, 2 = outage, identical
    slot-for-slot to iterating :func:`soft_switch_step`.
    """
    gamma_f = np.asarray(gamma_f, dtype=float)
    gamma_t = np.asarray(gamma_t, dtype=float)
    if gamma_f.shape != gamma_t.shape or gamma_f.ndim != 1 or gamma_f.size == 0:
        raise DomainError("gamma_f and gamma_t must be equal-length 1-D arrays")
    up = gamma_f >= policy.gamma_f_th_u
    down = gamma_f < policy.gamma_f_th_l
    # FSO serves a slot exactly when the memory bit after it is clear, and
    # that bit is set iff the last threshold crossing at or before the slot
    # was downward.  ``last`` is 1 + the index of that crossing, 0 if none.
    last = np.arange(1, gamma_f.size + 1) * (up | down)
    np.maximum.accumulate(last, out=last)
    below = down[last - 1]
    below[:np.searchsorted(last, 1)] = initial.fso_was_below_lower
    # the codes satisfy _THZ = _OUT - 1 and _FSO = 0
    thz_or_out = np.subtract(_OUT, gamma_t >= policy.gamma_t_th, dtype=np.int8)
    return thz_or_out * below


def count_switch_events(trace: Sequence) -> SwitchCounts:
    """Count active-link identity changes along a trace.

    FSO<->THz changes make up ``link_switches``; transitions into or out of
    outage are tallied separately in ``outage_transitions``.  Accepts either
    SwitchState sequences or the integer coding of
    :func:`evaluate_soft_trace`.
    """
    if len(trace) == 0:
        raise DomainError("trace must be non-empty")
    if isinstance(trace[0], SwitchState):
        codes = np.array([{ActiveLink.FSO: _FSO, ActiveLink.THZ: _THZ,
                           ActiveLink.OUTAGE: _OUT}[s.active] for s in trace])
    else:
        codes = np.asarray(trace)
    prev, cur = codes[:-1], codes[1:]
    changed = prev != cur
    involves_outage = (prev == _OUT) | (cur == _OUT)
    link_switches = int(np.count_nonzero(changed & ~involves_outage))
    outage_transitions = int(np.count_nonzero(changed & involves_outage))
    return SwitchCounts(link_switches, outage_transitions)
