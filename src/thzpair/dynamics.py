"""Adjoint generator of the five-channel master equation and its flows.

The emitter obeys a Born-Markov master equation with one coherent part and
five dissipative terms.  In the Heisenberg picture each term acts on an
observable Q as

    -w * ( A [B, Q] + [Q, C] D )

with operator pairs drawn from {S+, S-, S_z} and weight w; the channels are
not of diagonal Lindblad form (the S_z/S-minus cross terms carry a
non-positive coupling matrix), so density-matrix positivity holds only up to
the perturbatively small cross-channel weights.

The generator is assembled *numerically* from these operator expressions --
no hand-derived Bloch coefficients anywhere -- so the conservation of the
identity observable is a genuine consistency check, not a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    HS_BASIS,
    PROJ_EXCITED,
    PROJ_GROUND,
    SM,
    SP,
    SZ,
    commutator,
    dagger,
    expectation,
    hs_decompose,
    hs_reconstruct,
)
from .model import EffectiveModel

__all__ = [
    "AdjointGenerator",
    "BlochState",
    "DegenerateSteadyStateError",
    "NoRelaxationError",
    "PhysicalityError",
    "build_adjoint_generator",
    "dual_generator",
    "steady_state",
    "propagate",
    "propagate_dual",
    "ground_state",
    "excited_state",
]

TRACE_TOL = 1e-12
CONJ_TOL = 1e-12
SZ_BOUND_TOL = 1e-9


class DegenerateSteadyStateError(RuntimeError):
    """The generator's nullspace is not one-dimensional."""


class NoRelaxationError(RuntimeError):
    """All dissipative channel weights vanish; no steady state is selected."""


class PhysicalityError(ValueError):
    """A density matrix breaks trace, Hermiticity or population bounds."""


@dataclass(frozen=True)
class BlochState:
    """Density matrix of the emitter with its expectation-value view."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)
        if rho.shape != (2, 2):
            raise ValueError(f"rho must be 2x2, got {rho.shape}")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        tr = np.trace(rho)
        if abs(tr - 1.0) > TRACE_TOL:
            raise PhysicalityError(f"Tr rho = {tr:.15g} differs from 1 beyond {TRACE_TOL}")
        if abs(self.s_minus - np.conj(self.s_plus)) > CONJ_TOL:
            raise PhysicalityError("<S-> is not the conjugate of <S+> (rho not Hermitian)")
        if abs(np.trace(rho @ SZ).imag) > CONJ_TOL:
            raise PhysicalityError("<S_z> has a non-negligible imaginary part")
        if not (-0.5 - SZ_BOUND_TOL <= self.s_z <= 0.5 + SZ_BOUND_TOL):
            raise PhysicalityError(f"<S_z> = {self.s_z:.15g} outside [-1/2, 1/2]")

    @property
    def s_plus(self) -> complex:
        return expectation(SP, self.rho)

    @property
    def s_minus(self) -> complex:
        return expectation(SM, self.rho)

    @property
    def s_z(self) -> float:
        return expectation(SZ, self.rho).real

    @property
    def p_excited(self) -> float:
        return expectation(PROJ_EXCITED, self.rho).real


def ground_state() -> BlochState:
    return BlochState(PROJ_GROUND)


def excited_state() -> BlochState:
    return BlochState(PROJ_EXCITED)


@dataclass(frozen=True)
class AdjointGenerator:
    """4x4 matrix of d<Q>/dt over HS_BASIS, plus the model it came from."""

    matrix: np.ndarray
    model: EffectiveModel

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _channels(model: EffectiveModel):
    """The five dissipative channels as (A, B, C, D, weight) tuples.

    Term k contributes -w_k*(A[B,Q] + [Q,C]D) to d<Q>/dt:
      1. optical relaxation of the transition,
      2. cross channel mixing inversion noise into the coherence decay,
      3. pair-channel pump (emission of a low-frequency photon excites the
         emitter; its weight carries the squared asymmetry prefactor),
      4. mirror cross channel,
      5. drive-induced dephasing at the laser frequency.
    """
    return (
        (SP, SM, SP, SM, model.gamma_R),
        (SZ, SM, SP, SZ, model.c_cross * model.gamma_L),
        (SM, SP, SM, SP, model.c_pump * model.gamma_T),
        (SP, SZ, SZ, SM, model.c_cross * model.gamma_R),
        (SZ, SZ, SZ, SZ, model.c_deph * model.gamma_L),
    )


def build_adjoint_generator(model: EffectiveModel) -> AdjointGenerator:
    """Assemble d<Q>/dt column by column from the operator expressions."""
    ## coherent part: effective detuning plus the semiclassical drive
    h0 = model.delta_eff * SZ + 0.5 * model.omega_rabi * (SP + SM)
    channels = _channels(model)
    cols = []
    for q in HS_BASIS:
        img = 1j * commutator(h0, q)
        for a, b, c, d, w in channels:
            img = img - w * (a @ commutator(b, q) + commutator(q, c) @ d)
        cols.append(hs_decompose(img))
    return AdjointGenerator(matrix=np.column_stack(cols), model=model)


## The HS basis is not self-adjoint elementwise (S+ and S- swap under
## dagger), so the bilinear pairing Tr(X Y) couples index 1 to index 2:
## Tr(e_i e_j) = delta_{sigma(i) j} with sigma the (1,2) swap.  The dual
## (state-picture) generator defined by Tr(L(rho) Q) = Tr(rho L^adj(Q))
## is therefore the swap-conjugated transpose below.
_SWAP = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)


def dual_generator(g: AdjointGenerator) -> np.ndarray:
    """State-evolution generator: d(rho-coefficients)/dt = dual @ coeffs."""
    return _SWAP @ g.matrix.T @ _SWAP


def _dual_image(model: EffectiveModel, rho: np.ndarray) -> np.ndarray:
    """State-picture image L(rho), evaluated operator-wise.

    Equivalent to reconstructing dual_generator @ hs_decompose(rho), but the
    structural zeros of rho survive exactly (no eps-sized residue from
    cancelling matrix entries).  steady_state leans on this when it seeds
    the solve with the generator's action on the ground projector.
    """
    h0 = model.delta_eff * SZ + 0.5 * model.omega_rabi * (SP + SM)
    out = -1j * commutator(h0, rho)
    for a, b, c, d, w in _channels(model):
        out = out - w * (rho @ a @ b - b @ rho @ a + c @ d @ rho - d @ rho @ c)
    return out


_GROUND_COEFFS = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2.0)

## Unitary rotation of the traceless coefficients (c1, c2, c3) onto the real
## Bloch quadratures (sqrt2 Re c1, sqrt2 Im c1, c3).  Hermiticity-preserving
## flows become real 3x3 systems under this map.
_TO_REAL = np.array(
    [
        [1.0, 1.0, 0.0],
        [-1.0j, 1.0j, 0.0],
        [0.0, 0.0, np.sqrt(2.0)],
    ]
) / np.sqrt(2.0)


def _scale(model: EffectiveModel, matrix: np.ndarray) -> float:
    """Nondimensionalization frequency for linear solves."""
    s = max(model.omega_rabi, abs(model.delta_eff), model.gamma_R)
    if s <= 0.0:
        s = float(np.max(np.abs(matrix)))
    return s if s > 0.0 else 1.0


def steady_state(g: AdjointGenerator) -> BlochState:
    """Unique fixed point of the dual flow with unit trace.

    The trace component is conserved exactly (first dual row is zero), so
    the problem reduces to a 3x3 solve for the traceless components.
    """
    if max(abs(w) for *_, w in _channels(g.model)) == 0.0:
        raise NoRelaxationError("all dissipative channel weights are zero")
    s = _scale(g.model, g.matrix)
    dual = dual_generator(g) / s
    a = dual[1:, 1:]
    ## Solve for the deviation from the ground state, coefficients
    ## (1/sqrt2, 0, 0, -1/sqrt2), not for the state itself: a weakly driven
    ## steady state sits within ~1e-12 of ground, and subtracting two O(1)
    ## coefficients afterwards would erase the excited population.
    b = -hs_decompose(_dual_image(g.model, PROJ_GROUND))[1:] / s
    ## rotate to real Bloch quadratures: the excited-population balance
    ## reads the small quadrature Im<S-> directly instead of forming it as
    ## the difference of two conjugate complex coefficients
    m = (_TO_REAL @ a @ _TO_REAL.conj().T).real
    br = (_TO_REAL @ b).real

    ## row equilibration: entries span many orders of magnitude, which is
    ## physical (pump weights ~1e-4/s against detunings ~1e13/s)
    norms = np.max(np.abs(m), axis=1)
    if np.any(norms == 0.0):
        raise DegenerateSteadyStateError("generator row vanishes; nullspace > 1D")
    aa = m / norms[:, None]
    bb = br / norms
    sv = np.linalg.svd(aa, compute_uv=False)
    if sv[-1] < 1e-12 * sv[0]:
        raise DegenerateSteadyStateError(
            f"reduced system is singular (sigma_min/sigma_max = {sv[-1] / sv[0]:.3g})"
        )
    xr = np.linalg.solve(aa, bb)
    xr = xr + np.linalg.solve(aa, bb - aa @ xr)  # one step of iterative refinement

    delta = np.concatenate(([0.0], _TO_REAL.conj().T @ xr))
    coeffs = delta + _GROUND_COEFFS
    residual = np.linalg.norm(dual @ coeffs) * s
    limit = 1e-10 * float(np.max(np.abs(g.matrix)))
    if residual > limit:
        raise DegenerateSteadyStateError(
            f"steady-state residual {residual:.3g} exceeds {limit:.3g}"
        )
    ## assemble additively off the ground projector so rho[1,1] never goes
    ## through a 1/2 - (1/2 - p2) subtraction
    rho = PROJ_GROUND + hs_reconstruct(delta)
    rho = 0.5 * (rho + dagger(rho))  # scrub solver roundoff off the Hermitian part
    return BlochState(rho)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential (scipy.linalg.expm).

    scipy.linalg is imported on the first call, not with the package: it is
    most of the package's import time and only propagation needs it.
    """
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


def propagate_dual(g: AdjointGenerator, op: np.ndarray, t: float) -> np.ndarray:
    """Evolve an arbitrary operator under the state-picture flow for time t.

    Used both for density matrices and for the un-normalized collapsed
    operators of two-time correlators.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    s = _scale(g.model, g.matrix)
    ## exponentiate in the real Bloch frame: the rotated generator is real
    ## (Hermiticity-preserving flow), so exp(real matrix) cannot tear the
    ## conjugate coefficient pair apart, no matter how large the phase
    ## Delta*t grows.  A complex-basis expm loses Hermiticity at ~1e-11 by
    ## t = 30/gamma_R at the strong-drive preset.
    rot = np.eye(4, dtype=complex)
    rot[1:, 1:] = _TO_REAL
    m = (rot @ (dual_generator(g) / s) @ rot.conj().T).real
    u = expm(m * (s * t))
    return hs_reconstruct(rot.conj().T @ (u @ (rot @ hs_decompose(op))))


def propagate(g: AdjointGenerator, rho0: BlochState, t: float) -> BlochState:
    """rho(t) = exp(dual*t) rho0 via the matrix exponential of the 4x4 dual."""
    return BlochState(propagate_dual(g, rho0.rho, t))
