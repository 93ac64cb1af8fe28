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

from .algebra import SM, SP, dagger
from .dynamics import AdjointGenerator, BlochState, PhysicalityError, bloch_ball, propagate_dual

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


def _diagonal(op: np.ndarray) -> tuple:
    assert not op[0, 1] and not op[1, 0], "operator is not diagonal"
    return tuple(op.diagonal().real.tolist())


# For S+ and S- each normal-ordered intensity B B^dag and each zero-delay
# numerator B_i B_j B_j^dag B_i^dag is diagonal (a projector or zero), so its
# expectation reads off an operator's populations p as d0*p0 + d1*p1.  That
# is Tr(rho op) bit for bit: the other terms of the trace are signed zeros.
_INTENSITY_DIAG = {c: _diagonal(b @ dagger(b)) for c, b in CHANNEL_SOURCES.items()}
_NUMERATOR_DIAG = {
    (i, j): _diagonal(bi @ bj @ dagger(bj) @ dagger(bi))
    for i, bi in CHANNEL_SOURCES.items()
    for j, bj in CHANNEL_SOURCES.items()
}


def _read(diag: tuple, pops: list) -> float:
    return diag[0] * pops[0] + diag[1] * pops[1]


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


def _mean_intensity(channel: int, pops: list) -> float:
    try:
        value = _read(_INTENSITY_DIAG[channel], pops)
    except KeyError:
        raise ValueError(f"channel must be 1 or 2, got {channel}") from None
    if value <= _INTENSITY_FLOOR:
        raise ChannelDarkError(
            f"channel {channel} is dark (mean intensity {value:.3g})"
        )
    return value


def g2_zero(i: int, j: int, rho_ss: BlochState) -> float:
    """Normalized zero-delay cross-correlation of channels i then j."""
    pops = rho_ss.rho.diagonal().real.tolist()
    den = _mean_intensity(i, pops) * _mean_intensity(j, pops)
    return _read(_NUMERATOR_DIAG[i, j], pops) / den


def cauchy_schwarz(rho_ss: BlochState) -> CorrelationReport:
    """All four zero-delay correlators and the classical inequality sides.

    For a single two-level emitter the same-channel correlators vanish
    identically (the squared ladder operators are the zero matrix), so
    cs_lhs = 0 and any nonzero cross-correlation violates the classical
    bound cs_lhs >= cs_rhs.
    """
    g11, g22, g12, g21 = (g2_zero(i, j, rho_ss) for i, j in ((1, 1), (2, 2), (1, 2), (2, 1)))
    cs_lhs = g11 * g22
    cs_rhs = g12 * g12
    return CorrelationReport(g11, g22, g12, g21, cs_lhs, cs_rhs, bool(cs_lhs < cs_rhs))


def g2_tau(i: int, j: int, g: AdjointGenerator, rho_ss: BlochState, tau_grid) -> list:
    """g2 of channel j delayed by tau after a channel-i detection at tau = 0.

    Markovian evaluation: the collapsed (un-normalized) state B_i^dag rho B_i
    evolves under the dual generator; each grid point is independent.  The
    cross channels are not of Lindblad form, so the evolved operator can
    leave the positive cone; a delay where it does raises PhysicalityError.
    """
    taus = [float(t) for t in tau_grid]
    if not all(math.isfinite(t) for t in taus):
        raise ValueError("tau_grid must be finite")
    if any(t < 0 for t in taus):
        raise ValueError("tau_grid must be non-negative")
    if any(b < a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau_grid must be sorted ascending")
    pops = rho_ss.rho.diagonal().real.tolist()
    den = _mean_intensity(i, pops) * _mean_intensity(j, pops)
    bi = CHANNEL_SOURCES[i]
    collapsed = dagger(bi) @ rho_ss.rho @ bi
    intensity_j = _INTENSITY_DIAG[j]
    out = []
    for tau in taus:
        evolved = propagate_dual(g, collapsed, tau)
        inside, radius2, tr = bloch_ball(evolved)
        if not inside:
            raise PhysicalityError(
                f"collapsed state at tau = {tau!r} s is not positive: "
                f"lambda_min/Tr = {0.5 - math.sqrt(radius2) / tr:.3g}"
            )
        out.append(_read(intensity_j, evolved.diagonal().real.tolist()) / den)
    return out
