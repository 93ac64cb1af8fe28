"""Intensity-intensity correlations of the low-frequency/optical photon pair.

Channel 1 collects the low-frequency (THz-range) emission, whose field
creation operator is sourced by S-; channel 2 collects the optical emission,
sourced by S+.  All proportionality constants between field and source
cancel in the normalized g2, so the correlators reduce to ratios of atomic
expectation values:

    g_ij(tau) = Tr( B_j B_j^dag * e^{L tau}[ B_i^dag rho B_i ] )
                / (<B_i B_i^dag> <B_j B_j^dag>)

with B_1 = S-, B_2 = S+.  Detecting a photon on channel i at time zero
collapses the state to B_i^dag rho B_i (a THz click leaves the emitter
excited), which then relaxes under the same generator as one-time averages.
At tau = 0 the numerator is <B_i B_j B_j^dag B_i^dag>, the zero-delay g_ij(0).
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


def _diagonal(op: np.ndarray) -> tuple:
    assert not op[0, 1] and not op[1, 0], "operator is not diagonal"
    return tuple(op.diagonal().real.tolist())


# For S+ and S- each normal-ordered intensity B B^dag is diagonal (a
# projector), so its expectation reads off an operator's populations p as
# d0*p0 + d1*p1.  That is Tr(op B B^dag) bit for bit: the other terms of the
# trace are signed zeros.
_INTENSITY_DIAG = {c: _diagonal(b @ dagger(b)) for c, b in CHANNEL_SOURCES.items()}


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
    (d0, d1), (p0, p1) = _INTENSITY_DIAG[channel], op.diagonal().real.tolist()
    return d0 * p0 + d1 * p1


def _collapse(channel: int, rho: np.ndarray) -> np.ndarray:
    """B^dag rho B: the un-normalized state a detection on the channel leaves."""
    b = CHANNEL_SOURCES[channel]
    return dagger(b) @ rho @ b


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
    """g_ij(0) = I_j(B_i^dag rho B_i) / (n_i n_j) for each pair (i, j), g2_tau's
    read at tau = 0; each channel's n and collapsed state are formed once."""
    n = {c: _mean_intensity(c, rho) for c in dict.fromkeys(sum(pairs, ()))}
    collapsed = {i: _collapse(i, rho) for i in dict.fromkeys(i for i, _ in pairs)}
    return [_intensity(j, collapsed[i]) / (n[i] * n[j]) for i, j in pairs]


def g2_zero(i: int, j: int, rho_ss: BlochState) -> float:
    """Normalized zero-delay cross-correlation of channels i then j."""
    return _zero_delay(rho_ss.rho, (i, j))[0]


def cauchy_schwarz(rho_ss: BlochState) -> CorrelationReport:
    """All four zero-delay correlators and the classical inequality sides.

    For a single two-level emitter the same-channel correlators vanish
    identically (the squared ladder operators are the zero matrix), so
    cs_lhs = 0 and any nonzero cross-correlation violates the classical
    bound cs_lhs >= cs_rhs.
    """
    g11, g22, g12, g21 = _zero_delay(rho_ss.rho, (1, 1), (2, 2), (1, 2), (2, 1))
    cs_lhs = g11 * g22
    cs_rhs = g12 * g12
    return CorrelationReport(g11, g22, g12, g21, cs_lhs, cs_rhs, bool(cs_lhs < cs_rhs))


def g2_tau(i: int, j: int, g: AdjointGenerator, rho_ss: BlochState, tau_grid) -> list:
    """g2 of channel j delayed by tau after a channel-i detection at tau = 0.

    Markovian evaluation: the collapsed (un-normalized) state B_i^dag rho B_i
    evolves under the dual generator; each grid point is independent, so the
    delays may come in any order and the values return in that order.  The
    cross channels are not of Lindblad form, so the evolved operator can
    leave the positive cone; a delay where it does raises PhysicalityError.
    """
    rho = rho_ss.rho
    den = _mean_intensity(i, rho) * _mean_intensity(j, rho)
    collapsed = _collapse(i, rho)
    out = []
    for tau in map(float, tau_grid):  # propagate_dual refuses a bad delay
        evolved = propagate_dual(g, collapsed, tau)
        require_positive(evolved, "collapsed state at tau = %r s", tau)
        out.append(_intensity(j, evolved) / den)
    return out
