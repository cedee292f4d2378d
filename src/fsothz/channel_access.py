"""mmWave access link: dB path loss and the Gamma(m N_t) SNR law after MRT.

Each of the N_t transmit branches carries a Gamma(m, Omega_R) power gain;
the MRT sum is Gamma(m N_t, Omega_R) exactly for i.i.d. branches, giving an
SNR with shape m N_t and rate m / gamma_bar_R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special as sp

from .channel_thz import SPEED_OF_LIGHT
from .errors import DomainError

__all__ = [
    "AccessLinkSpec",
    "mmwave_path_loss_db",
    "access_snr_pdf",
    "access_snr_cdf",
]


@dataclass(frozen=True, slots=True)
class AccessLinkSpec:
    """mmWave access hop parameters."""

    frequency_hz: float
    length_m: float
    tx_gain_dbi: float
    rx_gain_dbi: float
    oxygen_db_per_km: float
    rain_db_per_km: float
    m: float
    n_tx: int
    omega_r: float

    def __post_init__(self):
        if self.m < 0.5:
            raise DomainError(f"Nakagami m must be >= 0.5, got {self.m}")
        if self.n_tx < 1:
            raise DomainError(f"n_tx must be >= 1, got {self.n_tx}")
        if self.omega_r <= 0:
            raise DomainError("omega_r must be positive")
        if self.length_m <= 0:
            raise DomainError("length must be positive")

    @property
    def p_l_db(self) -> float:
        return mmwave_path_loss_db(self)

    @property
    def p_l(self) -> float:
        return 10.0 ** (self.p_l_db / 10.0)

    @property
    def shape(self) -> float:
        return self.m * self.n_tx

    def gamma_bar_r(self, transmit_snr_db: float) -> float:
        """Omega_R * P * p_l / sigma^2 at unit noise variance."""
        return self.omega_r * 10.0 ** (transmit_snr_db / 10.0) * self.p_l

    def rate(self, transmit_snr_db: float) -> float:
        return self.m / self.gamma_bar_r(transmit_snr_db)


def mmwave_path_loss_db(spec: AccessLinkSpec) -> float:
    """Antenna gains minus free-space spreading minus oxygen/rain attenuation."""
    lam = SPEED_OF_LIGHT / spec.frequency_hz
    spreading = 20.0 * math.log10(4.0 * math.pi * spec.length_m / lam)
    absorption = (spec.oxygen_db_per_km + spec.rain_db_per_km) * spec.length_m / 1000.0
    return spec.tx_gain_dbi + spec.rx_gain_dbi - spreading - absorption


def access_snr_pdf(gamma: float, spec: AccessLinkSpec,
                   transmit_snr_db: float) -> float:
    """Gamma(m N_t, rate m/gamma_bar_R) density."""
    if gamma < 0:
        raise DomainError(f"access_snr_pdf requires gamma >= 0, got {gamma}")
    if gamma == 0.0:
        return math.inf if spec.shape < 1.0 else (0.0 if spec.shape > 1.0 else spec.rate(transmit_snr_db))
    k = spec.shape
    rate = spec.rate(transmit_snr_db)
    return math.exp(k * math.log(rate) + (k - 1.0) * math.log(gamma)
                    - rate * gamma - math.lgamma(k))


def access_snr_cdf(gamma: float, spec: AccessLinkSpec,
                   transmit_snr_db: float) -> float:
    """P(gamma_R <= gamma) = regularized lower incomplete gamma."""
    if gamma < 0:
        raise DomainError(f"access_snr_cdf requires gamma >= 0, got {gamma}")
    if gamma == 0.0:
        return 0.0
    return float(sp.gammainc(spec.shape, spec.rate(transmit_snr_db) * gamma))
