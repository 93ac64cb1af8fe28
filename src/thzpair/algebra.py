"""Operator algebra for a single two-level emitter.

Everything downstream works on plain 2x2 complex numpy arrays in the fixed
basis (|1>, |2>) = (ground, excited); index 0 is the ground state.  The
module-level operator constants are read-only.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ID",
    "SP",
    "SM",
    "SZ",
    "PROJ_GROUND",
    "PROJ_EXCITED",
    "HS_BASIS",
    "commutator",
    "dagger",
    "hs_decompose",
    "hs_reconstruct",
    "expectation",
]


def _frozen(entries) -> np.ndarray:
    m = np.array(entries, dtype=complex)
    m.setflags(write=False)
    return m


# S+ = |2><1| raises, S- = |1><2| lowers, S_z = (|2><2| - |1><1|)/2.
ID = _frozen(np.eye(2))
SP = _frozen([[0.0, 0.0], [1.0, 0.0]])
SM = _frozen([[0.0, 1.0], [0.0, 0.0]])
SZ = _frozen([[-0.5, 0.0], [0.0, 0.5]])

PROJ_GROUND = _frozen([[1.0, 0.0], [0.0, 0.0]])   # |1><1| = S-S+
PROJ_EXCITED = _frozen([[0.0, 0.0], [0.0, 1.0]])  # |2><2| = S+S-

# Orthonormal operator basis under the Hilbert-Schmidt inner product
# <A, B> = Tr(A^dag B): (1, sigma_x, sigma_y, sigma_z)/sqrt2.  Every element
# is Hermitian, so a Hermitian operator has real coefficients and a
# Hermiticity-preserving generator is a real matrix (the coherence-vector
# form); coefficients 1..3 are the Bloch vector over sqrt2.  One (4, 2, 2)
# array: HS_BASIS[k] is e_k, and HS_BASIS[1:] the traceless elements.
HS_BASIS = _frozen(
    [ID / np.sqrt(2.0), (SP + SM) / np.sqrt(2.0), 1j * (SP - SM) / np.sqrt(2.0), np.sqrt(2.0) * SZ]
)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] = ab - ba."""
    return a @ b - b @ a


def dagger(m: np.ndarray) -> np.ndarray:
    """Hermitian conjugate of an operator, or of each operator in a stack."""
    return m.conj().swapaxes(-2, -1)


def hs_decompose(m: np.ndarray) -> np.ndarray:
    """Coefficients c_k = Tr(e_k^dag m) of m in HS_BASIS; a stack m of shape
    (..., 2, 2) gives shape (4, ...), one column per operator."""
    return np.array([np.trace(dagger(e) @ m, axis1=-2, axis2=-1) for e in HS_BASIS])


def hs_reconstruct(coeffs) -> np.ndarray:
    """Inverse of hs_decompose for one operator: sum_k c_k e_k over HS_BASIS."""
    ## einsum adds the terms in order k = 0..3 like a plain loop; tensordot's
    ## BLAS path can round the last bit differently
    return np.einsum("k,kij->ij", np.asarray(coeffs, dtype=complex), HS_BASIS)


def expectation(q: np.ndarray, rho: np.ndarray) -> complex:
    """<q> = Tr(rho q) for a unit-trace density matrix rho."""
    return complex(np.trace(rho @ q))
