"""Intensity-intensity correlations of the low-frequency/optical photon pair.

Channel 1 collects the low-frequency (THz-range) emission, whose field
creation operator is sourced by S-; channel 2 collects the optical emission,
sourced by S+.  All proportionality constants between field and source
cancel in the normalized g2, so the correlators reduce to ratios of atomic
expectation values:

    g_ij(0)   = <B_i B_j B_j^dag B_i^dag> / (<B_i B_i^dag> <B_j B_j^dag>)
    g_ij(tau) = Tr( B_j B_j^dag * e^{L tau}[ B_i^dag rho B_i ] ) / (same)

with B_1 = S-, B_2 = S+.  Detecting a photon on channel i at time zero
collapses the state to B_i^dag rho B_i (a THz click leaves the emitter
excited), which then relaxes under the same generator as one-time averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import SM, SP, dagger, expectation
from .dynamics import AdjointGenerator, BlochState, propagate_dual

__all__ = [
    "CHANNEL_SOURCES",
    "CorrelationReport",
    "ChannelDarkError",
    "g2_zero",
    "cauchy_schwarz",
    "g2_tau",
]

_INTENSITY_FLOOR = 1e-300  # denominators below this count as a dark channel


class ChannelDarkError(RuntimeError):
    """A channel's mean intensity vanishes; g2 is undefined."""


# Field-source operator of each emission channel: 1 low-frequency, 2 optical.
CHANNEL_SOURCES = {1: SM, 2: SP}

# Normal-ordered intensity operator B B^dag of each channel, and the
# zero-delay numerator B_i B_j B_j^dag B_i^dag of each ordered channel pair.
_INTENSITY = {c: b @ dagger(b) for c, b in CHANNEL_SOURCES.items()}
_NUMERATOR = {
    (i, j): bi @ bj @ dagger(bj) @ dagger(bi)
    for i, bi in CHANNEL_SOURCES.items()
    for j, bj in CHANNEL_SOURCES.items()
}


def _intensity(channel: int) -> np.ndarray:
    try:
        return _INTENSITY[channel]
    except KeyError:
        raise ValueError(f"channel must be 1 or 2, got {channel}") from None


@dataclass(frozen=True)
class CorrelationReport:
    """Zero-delay correlations and the classical-bound comparison."""

    g11: float
    g22: float
    g12: float
    g21: float
    cs_lhs: float
    cs_rhs: float
    violated: bool


def _mean_intensity(channel: int, rho: np.ndarray) -> float:
    value = expectation(_intensity(channel), rho).real
    if value <= _INTENSITY_FLOOR:
        raise ChannelDarkError(
            f"channel {channel} is dark (mean intensity {value:.3g})"
        )
    return value


def _g2_zero(i: int, j: int, rho: np.ndarray, den: float) -> float:
    """g_ij(0) given den, the product of the two mean intensities."""
    return expectation(_NUMERATOR[i, j], rho).real / den


def g2_zero(i: int, j: int, rho_ss: BlochState) -> float:
    """Normalized zero-delay cross-correlation of channels i then j."""
    rho = rho_ss.rho
    return _g2_zero(i, j, rho, _mean_intensity(i, rho) * _mean_intensity(j, rho))


def cauchy_schwarz(rho_ss: BlochState) -> CorrelationReport:
    """All four zero-delay correlators and the classical inequality sides.

    For a single two-level emitter the same-channel correlators vanish
    identically (the squared ladder operators are the zero matrix), so
    cs_lhs = 0 and any nonzero cross-correlation violates the classical
    bound cs_lhs >= cs_rhs.
    """
    rho = rho_ss.rho
    n1 = _mean_intensity(1, rho)
    n2 = _mean_intensity(2, rho)
    g11 = _g2_zero(1, 1, rho, n1 * n1)
    g22 = _g2_zero(2, 2, rho, n2 * n2)
    g12 = _g2_zero(1, 2, rho, n1 * n2)
    g21 = _g2_zero(2, 1, rho, n2 * n1)
    cs_lhs = g11 * g22
    cs_rhs = g12 * g12
    return CorrelationReport(
        g11=g11,
        g22=g22,
        g12=g12,
        g21=g21,
        cs_lhs=cs_lhs,
        cs_rhs=cs_rhs,
        violated=bool(cs_lhs < cs_rhs),
    )


def g2_tau(i: int, j: int, g: AdjointGenerator, rho_ss: BlochState, tau_grid) -> list:
    """g2 of channel j delayed by tau after a channel-i detection at tau = 0.

    Markovian evaluation: the collapsed (un-normalized) state B_i^dag rho B_i
    evolves under the dual generator; each grid point is independent.
    """
    taus = [float(t) for t in tau_grid]
    if not all(math.isfinite(t) for t in taus):
        raise ValueError("tau_grid must be finite")
    if any(t < 0 for t in taus):
        raise ValueError("tau_grid must be non-negative")
    if any(b < a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau_grid must be sorted ascending")
    den = _mean_intensity(i, rho_ss.rho) * _mean_intensity(j, rho_ss.rho)
    bi = CHANNEL_SOURCES[i]
    collapsed = dagger(bi) @ rho_ss.rho @ bi
    intensity_j = _intensity(j)
    out = []
    for tau in taus:
        evolved = propagate_dual(g, collapsed, tau)
        out.append(float(np.trace(evolved @ intensity_j).real) / den)
    return out
