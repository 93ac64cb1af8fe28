"""Acceptance suite: the eight shipping criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines; every check
uses the tolerance it ships with, not a looser stand-in.
"""

import time

import numpy as np
import pytest

from thzpair import cli
from thzpair.algebra import ID, hs_decompose
from thzpair.correlations import cauchy_schwarz, g2_tau
from thzpair.dynamics import (
    build_adjoint_generator,
    excited_state,
    propagate,
    steady_state,
)
from thzpair.heff import verify_derivation
from thzpair.model import EffectiveModel, from_physical, preset, with_rabi


def report(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def radiative_only(delta, gamma_r, omega):
    return EffectiveModel(
        omega_rabi=omega, bs_shift=0.0, delta_eff=delta,
        gamma_R=gamma_r, gamma_L=0.0, gamma_T=0.0,
        c_cross=0.0, c_pump=0.0, c_deph=0.0,
    )


def analytic_p2(delta, gamma_r, omega):
    return (omega**2 / 4) / (delta**2 + gamma_r**2 + omega**2 / 2)


@pytest.fixture(scope="module")
def sweep_rows():
    return cli.run_sweep(cli.SweepSpec(base=preset("gamma-globulin")))


@pytest.fixture(scope="module")
def strong_drive():
    g = build_adjoint_generator(from_physical(with_rabi(preset("gamma-globulin"), 1e13)))
    return g, steady_state(g)


def test_1_oracle_equivalence():
    """Steady-state P2 against the closed driven-damped formula, plus an
    independently propagated long-time solution."""
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(50):
        lg = rng.uniform(7, 13, 3)
        delta = (10.0 ** lg[0]) * rng.choice([-1, 1])
        gamma_r, omega = 10.0 ** lg[1], 10.0 ** lg[2]
        ss = steady_state(build_adjoint_generator(radiative_only(delta, gamma_r, omega)))
        ref = analytic_p2(delta, gamma_r, omega)
        ok = ok and abs(ss.p_excited - ref) <= 1e-10 * ref
    # independent oracle: relax from the excited state for 60 decay times
    for delta, gamma_r, omega in [
        (2e8, 1e6, 5e7),
        (0.0, 2e6, 1e7),
        (-5e8, 1e7, 1e9),
        (1e9, 5e7, 3e8),
        (3e7, 1e8, 2e8),
    ]:
        g = build_adjoint_generator(radiative_only(delta, gamma_r, omega))
        p2 = propagate(g, excited_state(), 60.0 / gamma_r).p_excited
        ref = analytic_p2(delta, gamma_r, omega)
        ok = ok and abs(p2 - ref) <= 1e-8 * ref
    report(1, "oracle equivalence", ok)


def test_2_population_sweep_shape(sweep_rows):
    base = preset("gamma-globulin")

    def anchor(omega):
        return steady_state(build_adjoint_generator(from_physical(with_rabi(base, omega))))

    ok = abs(anchor(1e11).s_z - (-0.5)) < 1e-4
    ok = ok and abs(anchor(1e12).p_excited - 2.488e-3) <= 0.01 * 2.488e-3
    ok = ok and abs(anchor(1e13).s_z - (-1.0 / 3.0)) <= 0.01 / 3.0
    sz = [r.sz for r in sweep_rows]
    ok = ok and all(b >= a for a, b in zip(sz, sz[1:]))
    report(2, "population sweep shape", ok)


def test_3_correlation_identities(sweep_rows):
    ok = True
    for r in sweep_rows:
        ok = ok and abs(r.g12 * r.p2 - 1.0) <= 1e-12
        ok = ok and abs(r.g21 * (1.0 - r.p2) - 1.0) <= 1e-12
    g12 = [r.g12 for r in sweep_rows]
    g21 = [r.g21 for r in sweep_rows]
    ok = ok and all(b < a for a, b in zip(g12, g12[1:]))
    ok = ok and all(b > a for a, b in zip(g21, g21[1:]))
    report(3, "correlation identities", ok)


def test_4_classical_bound_violated(sweep_rows):
    ok = all(r.cs_lhs == 0.0 for r in sweep_rows)
    ok = ok and all(r.violated is True for r in sweep_rows)
    report(4, "classical bound violated", ok)


def test_5_effective_hamiltonian():
    params = with_rabi(preset("gamma-globulin"), 1e13)
    model = from_physical(params)
    devs = [
        max(c.deviation for c in verify_derivation(params, model, n_trunc=n).checks)
        for n in (2, 3, 4)
    ]
    ok = all(d < 1e-10 for d in devs) and (max(devs) - min(devs) < 1e-12)
    report(5, "effective hamiltonian", ok)


def test_6_generator_integrity(strong_drive):
    g, ss = strong_drive
    ok = np.max(np.abs(g.matrix @ hs_decompose(ID))) < 1e-14
    horizon = 30.0 / g.model.gamma_R
    rng = np.random.default_rng(313)
    for t in np.concatenate(([horizon], rng.uniform(0.0, horizon, 10))):
        st = propagate(g, excited_state(), float(t))
        ok = ok and abs(np.trace(st.rho) - 1.0) < 1e-12
        ok = ok and abs(st.s_minus - np.conj(st.s_plus)) < 1e-12
        ok = ok and (-0.5 - 1e-9 <= st.s_z <= 0.5 + 1e-9)
    report(6, "generator integrity", ok)


def test_7_delayed_correlation_consistency(strong_drive):
    g, ss = strong_drive
    rep = cauchy_schwarz(ss)
    ok = abs(g2_tau(1, 2, g, ss, [0.0])[0] - rep.g12) <= 1e-10
    ok = ok and abs(g2_tau(2, 1, g, ss, [0.0])[0] - rep.g21) <= 1e-10
    tau = 10.0 / g.model.gamma_R
    ok = ok and abs(g2_tau(1, 2, g, ss, [tau])[0] - 1.0) < 1e-2
    report(7, "delayed correlation consistency", ok)


def test_8_determinism_and_speed():
    spec = cli.SweepSpec(base=preset("gamma-globulin"))
    start = time.perf_counter()
    first = cli.sweep_csv(cli.run_sweep(spec))
    elapsed = time.perf_counter() - start
    second = cli.sweep_csv(cli.run_sweep(spec))
    threaded = cli.sweep_csv(cli.run_sweep(spec, workers=4))
    ok = elapsed < 1.0 and first == second and first == threaded
    report(8, "determinism and speed", ok)
