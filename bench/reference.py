"""50-digit reference for the quantities the benchmark checks.

Everything here is rebuilt from the lab-frame inputs (omega0, omegaL, rabi,
dipole_ratio, gamma0) in mpmath arithmetic.  Nothing is taken from the
package's float generator or from its EffectiveModel, and the generator is
written in different coordinates: matrix elements of rho, x[2k + l] =
rho[k, l], instead of the package's Hilbert-Schmidt basis.  It is assembled
from the same Heisenberg-picture channel expressions the model is defined
by,

    d<Q>/dt = i[H0, Q] - sum_k w_k (A_k [B_k, Q] + [Q, C_k] D_k),

so agreement tests the float arithmetic, not a second copy of it.
"""

from __future__ import annotations

import mpmath as mp

DPS = 50


def _m(rows):
    return mp.matrix(rows)


def _ops():
    sp = _m([[0, 0], [1, 0]])
    sm = _m([[0, 1], [0, 0]])
    sz = _m([[mp.mpf(-1) / 2, 0], [0, mp.mpf(1) / 2]])
    return sp, sm, sz


def _dag(a):
    return a.transpose_conj()


def _tr(a):
    return a[0, 0] + a[1, 1]


class Lab:
    """Lab-frame inputs as exact binary values, with the derived rates."""

    def __init__(self, omega0, omegaL, rabi, dipole_ratio, gamma0):
        with mp.workdps(DPS):
            self.omega0 = mp.mpf(omega0)
            self.omegaL = mp.mpf(omegaL)
            self.rabi = mp.mpf(rabi)
            self.g_asym = mp.mpf(dipole_ratio) * self.rabi
            self.gamma0 = mp.mpf(gamma0)

    @classmethod
    def of(cls, params):
        return cls(params.omega0, params.omegaL, params.rabi, params.dipole_ratio,
                   params.gamma0)

    def rate(self, omega):
        if omega <= 0:
            return mp.mpf(0)
        return self.gamma0 * (omega / self.omega0) ** 3


def generator(lab: Lab):
    """4x4 generator of d x / dt for x[2k + l] = rho[k, l]."""
    with mp.workdps(DPS):
        sp, sm, sz = _ops()
        bs = lab.rabi ** 2 / (4 * lab.omegaL)
        delta = lab.omega0 - lab.omegaL + bs
        c_cross = lab.rabi / (2 * lab.omegaL)
        c_pump = (3 * lab.g_asym / (8 * lab.omegaL)) ** 2
        gamma_r = lab.rate(lab.omega0 + bs)
        gamma_l = lab.rate(lab.omegaL)
        gamma_t = lab.rate(lab.omegaL - lab.omega0 - bs)
        channels = (
            (sp, sm, sp, sm, gamma_r),
            (sz, sm, sp, sz, c_cross * gamma_l),
            (sm, sp, sm, sp, c_pump * gamma_t),
            (sp, sz, sz, sm, c_cross * gamma_r),
            (sz, sz, sz, sz, c_cross ** 2 * gamma_l),
        )
        h0 = delta * sz + lab.rabi / 2 * (sp + sm)

        def adjoint(q):
            out = mp.mpc(0, 1) * (h0 * q - q * h0)
            for a, b, c, d, w in channels:
                out -= w * (a * (b * q - q * b) + (q * c - c * q) * d)
            return out

        # d rho[j, i]/dt = Tr(rho L^adj(|i><j|)) = sum_kl rho[k, l] L^adj(|i><j|)[l, k]
        g = mp.zeros(4, 4)
        for i in range(2):
            for j in range(2):
                e = mp.zeros(2, 2)
                e[i, j] = 1
                img = adjoint(e)
                for k in range(2):
                    for l in range(2):
                        g[2 * j + i, 2 * k + l] = img[l, k]
        return g


def steady_state(g):
    """rho with G x = 0 and unit trace; the trace row replaces row 0."""
    with mp.workdps(DPS):
        a = g.copy()
        for col in range(4):
            a[0, col] = 1 if col in (0, 3) else 0
        x = mp.lu_solve(a, _m([1, 0, 0, 0]))
        return _m([[x[0], x[1]], [x[2], x[3]]])


def _source(channel):
    sp, sm, _ = _ops()
    return sm if channel == 1 else sp


def _vec(a):
    return _m([a[0, 0], a[0, 1], a[1, 0], a[1, 1]])


# (i, j) of the two cross-correlators, g12 then g21
PAIRS = ((1, 2), (2, 1))


def _intensities(rho, bi, bj):
    return _tr(rho * bi * _dag(bi)) * _tr(rho * bj * _dag(bj))


def steady_point(lab: Lab):
    """p2 and the zero-delay g12, g21 of the steady state."""
    with mp.workdps(DPS):
        rho = steady_state(generator(lab))
        out = [mp.re(rho[1, 1])]
        for i, j in PAIRS:
            bi, bj = _source(i), _source(j)
            num = _tr(rho * bi * bj * _dag(bj) * _dag(bi))
            out.append(mp.re(num / _intensities(rho, bi, bj)))
        return tuple(out)


def correlators(lab: Lab, taus):
    """g12(tau) and g21(tau) by the regression rule at the given delays.

    exp(G tau) comes from the eigen-decomposition of G at 50 digits, so each
    delay costs four exponentials; one mp.expm at the largest delay, where
    the phase is largest, must agree to 1e-30 or the reference is refused.
    """
    with mp.workdps(DPS):
        g = generator(lab)
        rho = steady_state(g)
        lam, v = mp.eig(g)
        vinv = mp.inverse(v)
        taus = [mp.mpf(float(t)) for t in taus]
        out = []
        for i, j in PAIRS:
            bi, bj = _source(i), _source(j)
            den = _intensities(rho, bi, bj)
            x0 = _vec(_dag(bi) * rho * bi)
            # Tr(M I) = sum_kl M[k, l] I[l, k]: a linear functional of x
            f = _vec((bj * _dag(bj)).T).T
            w = [(f * v)[n] * (vinv * x0)[n] / den for n in range(4)]
            values = [mp.re(mp.fsum(w[n] * mp.exp(lam[n] * t) for n in range(4))) for t in taus]
            check = mp.re((f * mp.expm(g * taus[-1]) * x0)[0] / den)
            if abs(values[-1] - check) > mp.mpf(10) ** -30 * abs(check):
                raise ArithmeticError("eigen-expansion and expm disagree at the largest delay")
            out.append(values)
        return tuple(out)


def heff_targets(lab: Lab, coupling):
    """Closed-form averaged coefficients, with the -i phase of the averaging."""
    with mp.workdps(DPS):
        g = mp.mpf(coupling)
        return {
            "bloch_siegert": mp.mpc(lab.rabi ** 2 / (4 * lab.omegaL)),
            "pair_creation": mp.mpc(0, -3 * lab.g_asym * g / (8 * lab.omegaL)),
            "mode_displacement": mp.mpc(0, -lab.rabi * g / (2 * lab.omegaL)),
        }


def rel_dev(value, ref):
    """|value - ref| / |ref| at reference precision, as a float."""
    with mp.workdps(DPS):
        return float(abs(mp.mpmathify(value) - ref) / abs(ref))
