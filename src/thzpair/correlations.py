"""Intensity-intensity correlations of the low-frequency/optical photon pair.

Channel 1 collects the low-frequency (THz-range) emission, whose field
creation operator is sourced by S-; channel 2 collects the optical emission,
sourced by S+.  All proportionality constants between field and source
cancel in the normalized g2.  Each source B is rank one with unit norm, so a
click on channel i leaves B_i^dag rho B_i = <B_i B_i^dag> B_i^dag B_i: a THz
click always leaves the emitter in |2><2|, an optical click in |1><1|.  The
click's weight cancels, and the quantum regression rule reads

    g_ij(tau) = Tr( B_j B_j^dag * e^{L tau}[ B_i^dag B_i ] ) / <B_j B_j^dag>,

a conditional population over a steady one: g12(0) = 1/P2, g21(0) = 1/P1
and g11(0) = g22(0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import SM, SP, dagger
from .dynamics import AdjointGenerator, BlochState, propagate_dual, require_positive

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


def _click(b: np.ndarray) -> tuple:
    post, intensity = dagger(b) @ b, b @ dagger(b)
    assert not intensity[0, 1] and not intensity[1, 0], "B B^dag is not diagonal"
    for x in np.eye(4).reshape(4, 2, 2):
        kept = dagger(b) @ x @ b
        assert (kept == np.trace(x @ intensity) * post).all(), "B is not rank one with unit norm"
    return post, tuple(intensity.diagonal().real.tolist())


# Channel -> (B^dag B, the state a click leaves; the diagonal (d0, d1) of the
# intensity B B^dag).  Tr(op B B^dag) reads d0*p0 + d1*p1 off op's populations
# p bit for bit, the other terms being signed zeros.  B^dag X B =
# Tr(X B B^dag) B^dag B, checked on the four matrix units X, holds exactly
# when B is rank one with unit norm.
_CHANNELS = {c: _click(b) for c, b in CHANNEL_SOURCES.items()}


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


def _intensity(channel: int, op: np.ndarray) -> float:
    """Tr(op B B^dag) for the channel's source B, read off op's populations."""
    (d0, d1), (p0, p1) = _CHANNELS[channel][1], op.diagonal().real.tolist()
    return d0 * p0 + d1 * p1


def _mean_intensity(channel: int, rho: np.ndarray) -> float:
    try:
        value = _intensity(channel, rho)
    except KeyError:
        raise ValueError(f"channel must be 1 or 2, got {channel}") from None
    if value <= _INTENSITY_FLOOR:
        raise ChannelDarkError(
            f"channel {channel} is dark (mean intensity {value:.3g})"
        )
    return value


def _zero_delay(rho: np.ndarray, *pairs) -> list:
    """g_ij(0) = I_j(B_i^dag B_i) / n_j for each pair (i, j), g2_tau's read at
    tau = 0.  Each channel's mean intensity n is formed once, in pair order,
    the clicked channel's too: a dark channel has no click to condition on."""
    n = {c: _mean_intensity(c, rho) for c in dict.fromkeys(sum(pairs, ()))}
    return [_intensity(j, _CHANNELS[i][0]) / n[j] for i, j in pairs]


def g2_zero(i: int, j: int, rho_ss: BlochState) -> float:
    """Normalized zero-delay cross-correlation of channels i then j."""
    return _zero_delay(rho_ss.rho, (i, j))[0]


def cauchy_schwarz(rho_ss: BlochState) -> CorrelationReport:
    """All four zero-delay correlators and the classical inequality sides.

    For a single two-level emitter the same-channel correlators vanish
    identically (a click leaves the state its own channel cannot emit from),
    so cs_lhs = 0 and any nonzero cross-correlation violates the classical
    bound cs_lhs >= cs_rhs.
    """
    g11, g22, g12, g21 = _zero_delay(rho_ss.rho, (1, 1), (2, 2), (1, 2), (2, 1))
    cs_lhs = g11 * g22
    cs_rhs = g12 * g12
    return CorrelationReport(g11, g22, g12, g21, cs_lhs, cs_rhs, bool(cs_lhs < cs_rhs))


def g2_tau(i: int, j: int, g: AdjointGenerator, rho_ss: BlochState, tau_grid) -> list:
    """g2 of channel j delayed by tau after a channel-i detection at tau = 0.

    The state the click leaves, B_i^dag B_i, evolves under the dual generator
    to each delay on its own, so the delays may come in any order and the
    values return in that order.  The cross channels are not of Lindblad
    form, so it can leave the positive cone; a delay where it does raises
    PhysicalityError.  rho_ss enters only through the mean intensities.
    """
    _mean_intensity(i, rho_ss.rho)  # a dark channel has no click to condition on
    n_j = _mean_intensity(j, rho_ss.rho)
    out = []
    for tau in map(float, tau_grid):  # propagate_dual refuses a bad delay
        evolved = propagate_dual(g, _CHANNELS[i][0], tau)
        require_positive(evolved, "collapsed state at tau = %r s", tau)
        out.append(_intensity(j, evolved) / n_j)
    return out
