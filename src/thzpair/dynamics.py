"""Adjoint generator of the five-channel master equation and its flows.

The emitter obeys a Born-Markov master equation with one coherent part and
five dissipative terms.  Each term pairs a jump with its adjoint: in the
Heisenberg picture it acts on an observable Q as

    -w * ( A [B, Q] + [Q, B^dag] A^dag ) = -w * ( T + T^dag ),  T = A [B, Q]

for Hermitian Q, with A and B drawn from {S+, S-, S_z} and weight w; the
channels are not of diagonal Lindblad form (the S_z/S-minus cross terms
carry a non-positive coupling matrix), so density-matrix positivity holds
only up to the perturbatively small cross-channel weights.

The generator is assembled *numerically* from these operator expressions --
no hand-derived Bloch coefficients anywhere -- so the conservation of the
identity observable is a genuine consistency check, not a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    hs_decompose,
    hs_reconstruct,
)
from .model import EffectiveModel

__all__ = [
    "AdjointGenerator",
    "BlochState",
    "DegenerateSteadyStateError",
    "PhysicalityError",
    "build_adjoint_generator",
    "require_positive",
    "steady_state",
    "propagate",
    "propagate_dual",
    "ground_state",
    "excited_state",
]

TRACE_TOL = 1e-12
CONJ_TOL = 1e-12
## |<S+>|^2 + <S_z>^2 = r^2 with lambda_min(rho) = 1/2 - r, so this bounds
## how far below zero the smallest eigenvalue of rho may round (about -1e-9);
## require_positive scales it by (Tr m)^2 for an operator m of any trace
BLOCH_RADIUS_TOL = 1e-9
## The eigen-expansion V diag(e^{lambda t}) V^-1 loses about eps*cond(V)
## relative (2e-10 at this bound); a generator whose eigenvectors are worse
## conditioned sits near an exceptional point and is exponentiated by expm.
EIGEN_COND_LIMIT = 1e6


class DegenerateSteadyStateError(RuntimeError):
    """The generator has no unique steady state that the flow relaxes to:
    its nullspace is not one-dimensional, a mode grows, or no channel
    dissipates."""


class PhysicalityError(ValueError):
    """A density matrix breaks trace, Hermiticity or positivity."""


@dataclass(frozen=True)
class BlochState:
    """Density matrix of the emitter with its expectation-value view."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)
        if rho.shape != (2, 2):
            raise ValueError(f"rho must be 2x2, got {rho.shape}")
        if not np.isfinite(rho).all():
            raise PhysicalityError("rho has a non-finite entry")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        tr = rho[0, 0] + rho[1, 1]
        if abs(tr - 1.0) > TRACE_TOL:
            raise PhysicalityError(f"Tr rho = {tr:.15g} differs from 1 beyond {TRACE_TOL}")
        if np.abs(rho - rho.conj().T).max() > CONJ_TOL:
            raise PhysicalityError("rho differs from its conjugate transpose (not Hermitian)")
        ## rho >= 0, which bounds <S_z> to [-1/2, 1/2] too
        require_positive(rho, "rho")

    ## Expectation values read off rho's entries: Tr(rho Q) for Q = S+, S-,
    ## S_z and |2><2| picks out one entry or a diagonal difference, so these
    ## equal expectation(Q, rho) bit for bit without forming the products.
    @property
    def s_plus(self) -> complex:
        return complex(self.rho[0, 1])

    @property
    def s_minus(self) -> complex:
        return complex(self.rho[1, 0])

    @property
    def s_z(self) -> float:
        return float(-0.5 * self.rho[0, 0].real + 0.5 * self.rho[1, 1].real)

    @property
    def p_excited(self) -> float:
        return float(self.rho[1, 1].real)


def require_positive(m: np.ndarray, what: str, *args) -> None:
    """Raise PhysicalityError, naming ``what % args``, unless the 2x2
    Hermitian m, of any trace, is positive.

    m has eigenvalues Tr m/2 +- r with r^2 = |m01|^2 + ((m11 - m00)/2)^2, so
    m >= 0 iff r <= Tr m/2.  r^2 may pass (Tr m/2)^2 by BLOCH_RADIUS_TOL
    (Tr m)^2; a NaN is refused.  The name is formatted only to raise.
    """
    m00, m01, _, m11 = m.ravel().tolist()
    tr = m00.real + m11.real
    radius2 = abs(m01) ** 2 + (-0.5 * m00.real + 0.5 * m11.real) ** 2
    if not (tr >= 0.0 and radius2 <= (0.25 + BLOCH_RADIUS_TOL) * tr * tr):
        ratio = 0.5 - math.sqrt(radius2) / tr if tr else -math.inf  # traceless: -r/0
        raise PhysicalityError(f"{what % args} is not positive: lambda_min/Tr = {ratio:.3g}")


def ground_state() -> BlochState:
    return BlochState(PROJ_GROUND)


def excited_state() -> BlochState:
    return BlochState(PROJ_EXCITED)


@dataclass(frozen=True)
class AdjointGenerator:
    """Real 4x4 matrix of d<Q>/dt over HS_BASIS, plus the model it came from.

    HS_BASIS is Hermitian and orthonormal, so Tr(e_i e_j) = delta_ij and the
    state-picture dual defined by Tr(L(rho) Q) = Tr(rho L^adj(Q)) is the plain
    transpose: d(rho-coefficients)/dt = matrix.T @ coeffs.  The identity
    observable is conserved, so column 0 is zero and the trace row of the
    dual vanishes.  The dual's traceless 3x3 block is the real Bloch system
    that steady_state solves; its affine term is ground_image, the traceless
    coefficients of the ground projector's image L(|1><1|).  propagate_dual
    exponentiates the whole dual.
    """

    matrix: np.ndarray
    ground_image: np.ndarray
    model: EffectiveModel

    def __post_init__(self):
        for name in ("matrix", "ground_image"):
            a = np.array(getattr(self, name), dtype=float)
            if not np.isfinite(a).all():
                raise np.linalg.LinAlgError("the generator overflows double precision")
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @cached_property
    def _real_flow(self) -> tuple:
        """(eigen, reach) for propagate_dual, computed on first use.

        eigen is the dual's eigen-expansion (lambda, V, V^-1), or None when
        cond(V) exceeds EIGEN_COND_LIMIT.  propagate_dual refuses a t with
        t * reach > 1, where the propagator leaves float range: there
        ||dual||_1 * t, which bounds every entry of dual*t and every
        |lambda*t|, passes 1e307, or a growing mode (the cross channels are
        not of Lindblad form) passes e^690, which leaves 4 * EIGEN_COND_LIMIT
        of headroom below the float maximum.
        """
        lam, v = np.linalg.eig(self.matrix.T)
        reach = float(max(np.linalg.norm(self.matrix.T, 1) / 1e307, lam.real.max() / 690.0))
        if np.linalg.cond(v) > EIGEN_COND_LIMIT:
            return None, reach
        return (lam, v, np.linalg.inv(v)), reach


## The five dissipative channels as (A, B) operator pairs; for Hermitian Q
## term k contributes -w_k*(T + T^dag), T = A[B,Q], to d<Q>/dt, with w_k from
## _weights:
##   1. optical relaxation of the transition,
##   2. cross channel mixing inversion noise into the coherence decay,
##   3. pair-channel pump (emission of a low-frequency photon excites the
##      emitter; its weight carries the squared asymmetry prefactor),
##   4. mirror cross channel,
##   5. drive-induced dephasing at the laser frequency.
_CHANNELS = ((SP, SM), (SZ, SM), (SM, SP), (SP, SZ), (SZ, SZ))


def _weights(model: EffectiveModel) -> tuple:
    """The weights w_k of the five channels of _CHANNELS, in order."""
    return (
        model.gamma_R,
        model.c_cross * model.gamma_L,
        model.c_pump * model.gamma_T,
        model.c_cross * model.gamma_R,
        model.c_deph * model.gamma_L,
    )


def _adjoint_image(q: np.ndarray, h0: np.ndarray, weights) -> np.ndarray:
    """Heisenberg-picture image L^adj(q) of a Hermitian q, or of each q in a
    stack, under Hamiltonian h0 and the channels of _CHANNELS at the given
    weights; Hermitian too."""
    img = 1j * commutator(h0, q)
    for (a, b), w in zip(_CHANNELS, weights):
        t = a @ commutator(b, q)
        img = img - w * (t + dagger(t))
    return img


def build_adjoint_generator(model: EffectiveModel) -> AdjointGenerator:
    """Assemble d<Q>/dt column by column from the operator expressions."""
    ## coherent part: effective detuning plus the semiclassical drive
    h0 = model.delta_eff * SZ + 0.5 * model.omega_rabi * (SP + SM)
    weights = _weights(model)
    with np.errstate(over="ignore", invalid="ignore"):  # AdjointGenerator refuses inf and NaN
        images = np.array([_adjoint_image(q, h0, weights) for q in HS_BASIS])
        matrix = hs_decompose(images).real
    ## image q is column q; Hermitian images have real coefficients.  Entry i
    ## of L(|1><1|) is Tr(e_i L(|1><1|)) = <1|L^adj(e_i)|1>.
    return AdjointGenerator(matrix=matrix, ground_image=images[1:, 0, 0].real, model=model)


def steady_state(g: AdjointGenerator) -> BlochState:
    """Unique fixed point of the dual flow with unit trace.

    The trace component is conserved exactly (first dual row is zero), so
    the problem reduces to a 3x3 solve for the traceless components.
    """
    if max(abs(w) for w in _weights(g.model)) == 0.0:
        raise DegenerateSteadyStateError("all dissipative channel weights are zero")
    m = g.matrix[1:, 1:].T
    ## Solve m y = -L(|1><1|) for the deviation y from the ground state, not
    ## for the state itself: a weakly driven steady state sits within ~1e-12
    ## of ground, and subtracting two O(1) coefficients afterwards would erase
    ## the excited population.
    br = -g.ground_image

    ## row equilibration: entries span many orders of magnitude, which is
    ## physical (pump weights ~1e-4/s against detunings ~1e13/s)
    norms = np.abs(m).max(axis=1)
    if not norms.all():
        raise DegenerateSteadyStateError("generator row vanishes; nullspace > 1D")
    aa = m / norms[:, None]
    bb = br / norms
    try:
        inv = np.linalg.inv(aa)
    except np.linalg.LinAlgError:
        raise DegenerateSteadyStateError("reduced system is singular (no inverse)") from None
    xr = np.linalg.solve(aa, bb)
    ## Skeel's componentwise forward-error bound (Math. Comp. 35, 817 (1980);
    ## Higham, Accuracy and Stability, sec. 7.2); a badly scaled block passes
    bound = float((np.abs(inv) @ (np.abs(aa) @ np.abs(xr))).max()) * 2.0**-52
    if bound > 1e-8 * np.abs(xr).max():  # a product, so y = 0 at zero drive passes
        raise DegenerateSteadyStateError(f"reduced system is singular (forward-error "
                                         f"bound {bound:.3g} exceeds 1e-8 max|y|)")

    scale = float(np.abs(g.matrix).max())
    residual = np.linalg.norm((m @ xr - br) / scale)  # relative: unscaled squares overflow
    if residual > 1e-10:
        raise DegenerateSteadyStateError(
            f"steady-state residual {residual * scale:.3g} exceeds {1e-10 * scale:.3g}"
        )
    ## the non-Lindblad cross channels can outweigh the decay: a growing mode
    growth = np.linalg.eigvals(m).real.max()
    if growth > 1e-12 * norms.max():
        raise DegenerateSteadyStateError(
            f"steady state is not an attractor: max Re lambda = {growth:.3g} 1/s")
    return BlochState(PROJ_GROUND + hs_reconstruct([0.0, *xr]))


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of the degree-18 Taylor
    polynomial (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).

    a is scaled by a power of two to 1-norm <= 1, where the dropped tail of
    the series has 1-norm at most e/19! ~ 2.2e-17, and the result is squared
    back.  Each Horner step multiplies by a, so a zero row of a (the trace
    row of a dual generator) leaves the same row of the identity exact.
    propagate_dual calls it only for a generator near an exceptional point,
    where the eigen-expansion is ill-conditioned.
    """
    a = np.asarray(a)
    norm = np.linalg.norm(a, 1)
    squarings = math.ceil(math.log2(norm)) if norm > 1.0 else 0
    a = a / 2.0**squarings
    ident = np.eye(a.shape[0])
    r = ident
    for k in range(18, 0, -1):
        r = ident + (a @ r) / k
    for _ in range(squarings):
        r = r @ r
    return r


def propagate_dual(g: AdjointGenerator, op: np.ndarray, t: float) -> np.ndarray:
    """Evolve an arbitrary operator under the state-picture flow for time t.

    Used both for density matrices and for the un-normalized collapsed
    operators of two-time correlators.
    """
    t = float(t)  # a numpy delay is named as a number
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    ## the generator is real over the Hermitian basis, so the propagator is
    ## real too and maps Hermitian operators to exactly Hermitian ones, no
    ## matter how large the phase Delta*t grows.  A complex-basis propagator
    ## loses Hermiticity at ~1e-11 by t = 30/gamma_R at the strong-drive preset.
    eigen, reach = g._real_flow
    if not t * reach <= 1.0:
        raise ValueError(f"the propagator at t = {t!r} overflows double precision")
    if eigen is None:
        u = expm(g.matrix.T * t)
    else:
        lam, v, vinv = eigen
        u = ((v * np.exp(lam * t)) @ vinv).real
    return hs_reconstruct(u @ hs_decompose(op))


def propagate(g: AdjointGenerator, rho0: BlochState, t: float) -> BlochState:
    """rho(t) = exp(dual*t) rho0 under the 4x4 dual."""
    return BlochState(propagate_dual(g, rho0.rho, t))
