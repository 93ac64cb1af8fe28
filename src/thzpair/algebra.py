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
# <A, B> = Tr(A^dag B); used as the coordinate system for generators.
HS_BASIS = tuple(
    _frozen(m) for m in (ID / np.sqrt(2.0), SP, SM, np.sqrt(2.0) * SZ)
)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] = ab - ba."""
    return a @ b - b @ a


def dagger(m: np.ndarray) -> np.ndarray:
    """Hermitian conjugate."""
    return m.conj().T


def hs_decompose(m: np.ndarray) -> np.ndarray:
    """Coefficients c_k = Tr(e_k^dag m) of m in HS_BASIS."""
    return np.array([np.trace(dagger(e) @ m) for e in HS_BASIS])


def hs_reconstruct(coeffs) -> np.ndarray:
    """Inverse of hs_decompose: sum_k c_k e_k over HS_BASIS."""
    out = np.zeros_like(HS_BASIS[0])
    for c, e in zip(coeffs, HS_BASIS):
        out = out + c * e
    return out


def expectation(q: np.ndarray, rho: np.ndarray) -> complex:
    """<q> = Tr(rho q) for a unit-trace density matrix rho."""
    return complex(np.trace(rho @ q))
