"""Second-order harmonic averaging check of the effective model.

The rotating-frame reduction used by the model module rests on three derived
coefficients: the drive-induced level shift, the pair-creation coupling and
the inversion-coupled field displacement.  This module re-derives them
numerically, with no rotating-wave shortcuts, on a Fock-truncated single-mode
copy of the lab Hamiltonian:

    H = w_k a^dag a + w_0 S_z + Omega (S+ + S-) cos(w_L t)
        + G S_z cos(w_L t) + i g (a^dag - a)(S+ + S-)

A Hamiltonian is a dict {n: M_n} meaning sum_n M_n e^{i n w_L t}, with each
M_n a matrix on the atom (x) mode space of dimension 2(N+1); the mode
truncation N is read off the matrix shape.  Rotating by
H0 = w_L (a^dag a + S_z) shifts matrix elements between harmonics; the
oscillating remainder H'' feeds the second-order average -i H'' * Int[H'']
with Int[e^{i n w t}] = e^{i n w t} / (i n w), Hermitized.  Agreement of the
extracted coefficients across mode truncations N = 2, 3, 4 shows only
single-photon processes contribute.  The targets are read off the
EffectiveModel that the dynamics consumes, so the check covers the numbers in
use, not a restatement of their formulas.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .algebra import ID, SM, SP, SZ, dagger
from .model import EffectiveModel, PhysicalParams

__all__ = [
    "CoefficientCheck",
    "HeffReport",
    "build_lab_hamiltonian",
    "hermiticity_defect",
    "rotate_frame",
    "second_order_average",
    "compare_to_target",
    "verify_derivation",
]


_COUPLING = 1e9  # atom-field coupling g (1/s) of verify_derivation's mode
## _ops(N) allocates 2N + 3 boolean masks and seven complex operators of
## (2N + 2)^2 entries: 4 MB at this bound, 8.5 GB at N = 1000
_MAX_TRUNCATION = 64


class _Ops(NamedTuple):
    """Read-only operators on the atom (x) mode space for one truncation."""

    number: np.ndarray  # 1 (x) a^dag a
    sz: np.ndarray  # S_z (x) 1
    sx: np.ndarray  # (S+ + S-) (x) 1
    coupling: np.ndarray  # (S+ + S-) (x) (a^dag - a)
    pair: np.ndarray  # S+ (x) a^dag
    displacement: np.ndarray  # S_z (x) (a - a^dag)
    shift: np.ndarray  # excitation change k_r - k_c of element (r, c)
    masks: dict  # shift value -> boolean mask of the elements with it


@lru_cache(maxsize=8)
def _ops(n_trunc: int) -> _Ops:
    a = np.diag(np.sqrt(np.arange(1.0, n_trunc + 1)), k=1).astype(complex)
    eye = np.eye(n_trunc + 1, dtype=complex)
    sx = SP + SM
    number = np.kron(ID, dagger(a) @ a)
    sz = np.kron(SZ, eye)
    k = np.real(np.diag(number + sz))
    shift = np.rint(k[:, None] - k[None, :]).astype(int)
    ops = _Ops(
        number, sz, np.kron(sx, eye), np.kron(sx, dagger(a) - a),
        np.kron(SP, dagger(a)), np.kron(SZ, a - dagger(a)), shift,
        {d: shift == d for d in _distinct(shift)},
    )
    for m in (*ops[:-1], *ops.masks.values()):
        m.setflags(write=False)
    return ops


def _distinct(a: np.ndarray) -> list:
    """Sorted distinct entries of an integer array, as Python ints.

    np.unique would do, but it imports numpy.ma on its first call, about a
    tenth of a cold verify-heff run.
    """
    return sorted(set(a.ravel().tolist()))


def _mode_truncation(h: dict) -> int:
    """N such that every matrix of h is 2(N+1) x 2(N+1)."""
    shapes = {np.shape(m) for m in h.values()}
    if len(shapes) == 1:
        (shape,) = shapes
        dim = shape[0] if len(shape) == 2 and shape[0] == shape[1] else 0
        if dim >= 2 and dim % 2 == 0:
            return dim // 2 - 1
    raise ValueError(
        f"matrix shapes {sorted(shapes)} do not match one atom (x) mode space"
    )


def _accumulate(acc: dict, n: int, m: np.ndarray) -> None:
    acc[n] = acc[n] + m if n in acc else m


def hermiticity_defect(h: dict) -> float:
    """max_n || M_n - M_{-n}^dag ||_max; zero for a Hermitian Hamiltonian."""
    defect = 0.0
    for n, m in h.items():
        partner = h.get(-n)
        diff = m if partner is None else m - dagger(partner)
        defect = max(defect, float(np.max(np.abs(diff))))
    return defect


def build_lab_hamiltonian(
    params: PhysicalParams, n_trunc: int, mode_freq: float, coupling: float
) -> dict:
    """Single-mode lab Hamiltonian with the cosine drive split into e^{+-i w_L t}.

    Kronecker ordering is atom (x) mode.  n_trunc must be an integer >= 2 so
    that the second-order products have room for two excitations.
    """
    if (type(n_trunc) is bool or not isinstance(n_trunc, numbers.Integral)
            or not 2 <= n_trunc <= _MAX_TRUNCATION):
        raise ValueError(f"mode truncation must be >= 2 and <= {_MAX_TRUNCATION}, got {n_trunc}")
    ops = _ops(n_trunc)
    # full (non-rotating-wave) atom-field coupling i g (a^dag - a)(S+ + S-)
    static = mode_freq * ops.number + params.omega0 * ops.sz + 1j * coupling * ops.coupling
    # transition-dipole and asymmetry drives, cos(w_L t) = (e^{iwt} + e^{-iwt})/2
    drive = 0.5 * params.rabi * ops.sx + 0.5 * params.g_asym * ops.sz
    return {-1: drive.copy(), 0: static, 1: drive}


def rotate_frame(h: dict, omegaL: float) -> dict:
    """Interaction picture of H0 = w_L (a^dag a + S_z).

    H0 is diagonal with integer-spaced spectrum, so conjugation by
    e^{i H0 t} moves the matrix element (r, c) of any operator up by
    k_r - k_c harmonics, where k is the excitation number n + s_z.
    H0 itself is subtracted before rotating; harmonics that receive no
    nonzero element are left out.
    """
    ops = _ops(_mode_truncation(h))
    work = dict(h)
    work[0] = work.get(0, 0.0) - omegaL * ops.number - omegaL * ops.sz
    out: dict = {}
    for n, m in work.items():
        for delta in _distinct(ops.shift[m != 0.0]):
            _accumulate(out, n + delta, np.where(ops.masks[delta], m, 0.0))
    return dict(sorted(out.items()))


def second_order_average(h_osc: dict, omegaL: float, keep_max_harmonic: int = 1) -> dict:
    """-i H'' Int[H''] dt with the oscillatory antiderivative, Hermitized.

    One product M_a Int[M_b] is formed per pair of harmonics; only the
    harmonics with |n| <= keep_max_harmonic are Hermitized and returned.  The
    antiderivative constant is zero -- a nonzero choice would introduce
    secular growth, which is why a static input harmonic is rejected.
    """
    if 0 in h_osc:
        raise ValueError("static input term: second-order average would be secular")
    dim = 2 * (_mode_truncation(h_osc) + 1) if h_osc else 0
    zero = np.zeros((dim, dim), dtype=complex)
    products: dict = {}
    items = list(h_osc.items())
    for i, (na, ma) in enumerate(items):
        for nb, mb in items[i:]:
            # -i * M_a e^{i na w t} * M_b e^{i nb w t} / (i nb w), summed with
            # its mirror (b, a) first: for nb = -na the pair is a commutator,
            # and large commuting parts (the S_z drive squared) cancel exactly
            p = (ma @ mb) * (-1.0 / (nb * omegaL))
            if nb != na:
                p = p + (mb @ ma) * (-1.0 / (na * omegaL))
            _accumulate(products, na + nb, p)
    harmonics = sorted(products.keys() | {-k for k in products})
    return {n: 0.5 * (products.get(n, zero) + dagger(products.get(-n, zero)))
            for n in harmonics if abs(n) <= keep_max_harmonic}


@dataclass(frozen=True, slots=True)
class CoefficientCheck:
    """One extracted coefficient against the model's value of it."""

    name: str
    measured: complex
    target: complex
    deviation: float

    @property
    def note(self) -> str:
        """Why the comparison is structural rather than numerical, else ""."""
        if self.target == 0 and self.measured != 0:
            return "expected exactly zero"
        if self.measured == 0 and self.target != 0:
            return "operator pattern missing from the averaged Hamiltonian"
        return ""


@dataclass(frozen=True, slots=True)
class HeffReport:
    checks: tuple

    def all_within(self, tol: float) -> bool:
        return all(c.deviation <= tol for c in self.checks)


def _project(matrix: np.ndarray, pattern: np.ndarray) -> complex:
    """Hilbert-Schmidt coefficient of `pattern` inside `matrix`."""
    return complex(np.vdot(pattern, matrix) / np.vdot(pattern, pattern))


def compare_to_target(derived: dict, model: EffectiveModel) -> HeffReport:
    """Extract the three averaged coefficients and compare them to the model's.

    Patterns and expected values, with g = _COUPLING (the pair and
    displacement terms carry the -i phase of the averaging product):
      * S_z (x) 1       static      -> bs_shift
      * a^dag S+        harmonic +1 -> -i * sqrt(c_pump) * g
      * (a - a^dag) S_z static      -> -i * c_cross * g
    An absent harmonic has zero coefficients; an undriven emitter averages
    to no harmonic at all, and every target is zero there.
    """
    cases = (
        ("bloch_siegert", 0, "sz", model.bs_shift),
        ("pair_creation", +1, "pair", -1j * math.sqrt(model.c_pump) * _COUPLING),
        ("mode_displacement", 0, "displacement", -1j * model.c_cross * _COUPLING),
    )
    ops = _ops(_mode_truncation(derived)) if derived else None
    checks = []
    for name, harmonic, pattern, target in cases:
        matrix = derived.get(harmonic)
        measured = 0j if matrix is None else _project(matrix, getattr(ops, pattern))
        if target == 0:
            deviation = 0.0 if measured == 0 else float("inf")
        else:
            deviation = abs(measured - target) / abs(target)
        checks.append(CoefficientCheck(name, measured, complex(target), deviation))
    return HeffReport(tuple(checks))


def _averaged(params: PhysicalParams, n_trunc: int, coupling: float):
    # w_k a^dag a is diagonal: rotate_frame keeps it in harmonic 0, dropped below; any w_k will do
    lab = build_lab_hamiltonian(params, n_trunc, params.omegaL, coupling)
    oscillating = rotate_frame(lab, params.omegaL)
    oscillating.pop(0, None)
    return second_order_average(oscillating, params.omegaL)


def verify_derivation(
    params: PhysicalParams, model: EffectiveModel, n_trunc: int = 3
) -> HeffReport:
    """Run the averaging pipeline and check the three coefficients.

    The mode couples with g = _COUPLING; its frequency reaches no
    coefficient (see _averaged).  The pair-creation and
    mode-displacement coefficients are read off the full averaged
    Hamiltonian (their operator patterns are orthogonal to every other
    second-order product).  The level-shift coefficient is read off a
    drive-only run: with the field coupling on, the average also contains the
    photon-number-dependent shift g^2/(2 w_L) * (a^dag a S+S- - a a^dag S-S+)
    -- a Lamb-type term outside the effective model, whose S_z component
    would otherwise pollute the comparison.
    """
    full = _averaged(params, n_trunc, _COUPLING)
    drive_only = _averaged(params, n_trunc, 0.0)
    from_full = compare_to_target(full, model).checks
    from_drive = compare_to_target(drive_only, model).checks
    return HeffReport((from_drive[0], *from_full[1:]))
