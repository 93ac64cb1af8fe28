"""Generator construction, steady states, and time evolution."""

import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from thzpair.algebra import ID, SM, SP, SZ, hs_decompose, hs_reconstruct
from thzpair.dynamics import (
    AdjointGenerator,
    BlochState,
    DegenerateSteadyStateError,
    NoRelaxationError,
    PhysicalityError,
    build_adjoint_generator,
    dual_generator,
    excited_state,
    ground_state,
    propagate,
    propagate_dual,
    steady_state,
)
from thzpair.model import EffectiveModel, from_physical, preset, with_rabi


def rad_only(delta, gamma_r, omega):
    """Effective model with every correction channel switched off."""
    return EffectiveModel(
        omega_rabi=omega, g_asym=0.0, bs_shift=0.0, delta_eff=delta,
        gamma_R=gamma_r, gamma_L=0.0, gamma_T=0.0,
        c_cross=0.0, c_pump=0.0, c_deph=0.0,
        pair_freq=1.0, omega0=1.0, omegaL=2.0,
    )


def closed_form(m):
    """Driven-damped steady state without the correction channels."""
    den = m.delta_eff**2 + m.gamma_R**2 + m.omega_rabi**2 / 2
    p2 = (m.omega_rabi**2 / 4) / den
    sz = -(m.delta_eff**2 + m.gamma_R**2) / (2 * den)
    sp = -m.omega_rabi * (m.delta_eff - 1j * m.gamma_R) / (2 * den)
    return p2, sz, sp


def strong_drive_generator():
    return build_adjoint_generator(from_physical(with_rabi(preset("gamma-globulin"), 1e13)))


# --- generator structure ------------------------------------------------------


def test_identity_is_annihilated():
    g = strong_drive_generator()
    image = g.matrix @ hs_decompose(ID)
    assert np.max(np.abs(image)) <= 1e-14 * np.max(np.abs(g.matrix))
    # the dual conserves the trace: its trace row is exactly zero
    assert np.all(dual_generator(g)[0, :] == 0.0)


def test_hand_computed_images_without_drive():
    """Radiative-only generator: inversion relaxes at 2*gamma_R, coherence at gamma_R."""
    delta, gr = 3.7e9, 2.1e6
    g = build_adjoint_generator(rad_only(delta, gr, 0.0))

    img_sz = hs_reconstruct(g.matrix @ hs_decompose(SZ))
    np.testing.assert_allclose(img_sz, -2.0 * gr * (SP @ SM), atol=1e-9 * gr)

    img_sp = hs_reconstruct(g.matrix @ hs_decompose(SP))
    np.testing.assert_allclose(img_sp, (1j * delta - gr) * SP, atol=1e-9 * abs(delta))


def test_dual_is_the_transpose_under_the_trace_pairing():
    """Tr(L(rho) Q) = Tr(rho Ldag(Q)) for arbitrary matrices rho, Q."""
    g = strong_drive_generator()
    dual = dual_generator(g)
    scale = np.max(np.abs(g.matrix))
    rng = np.random.default_rng(23)
    for _ in range(100):
        rho = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = np.trace(hs_reconstruct(dual @ hs_decompose(rho)) @ q)
        rhs = np.trace(rho @ hs_reconstruct(g.matrix @ hs_decompose(q)))
        denom = scale * np.linalg.norm(rho) * np.linalg.norm(q)
        assert abs(lhs - rhs) <= 1e-12 * denom


def test_generator_matrix_is_read_only():
    g = strong_drive_generator()
    with pytest.raises(ValueError):
        g.matrix[0, 0] = 1.0


# --- steady states --------------------------------------------------------------


def test_undriven_steady_state_is_exactly_ground():
    m = from_physical(with_rabi(preset("gamma-globulin"), 0.0))
    ss = steady_state(build_adjoint_generator(m))
    assert np.array_equal(ss.rho, ground_state().rho)
    assert ss.s_z == -0.5
    assert ss.p_excited == 0.0


def test_steady_state_matches_closed_form():
    """Fifty random triples spanning six decades in every parameter.

    P2 and the coherence are checked in relative terms; <S_z> in absolute
    terms (it crosses zero at saturation, where its relative error is
    meaningless while the state itself is accurate to machine precision).
    """
    rng = np.random.default_rng(5)
    for _ in range(50):
        lg = rng.uniform(7, 13, 3)
        delta = (10.0 ** lg[0]) * rng.choice([-1, 1])
        gr, om = 10.0 ** lg[1], 10.0 ** lg[2]
        ss = steady_state(build_adjoint_generator(rad_only(delta, gr, om)))
        p2, sz, sp = closed_form(rad_only(delta, gr, om))
        assert abs(ss.p_excited - p2) <= 1e-10 * p2
        assert abs(ss.s_plus - sp) <= 1e-10 * abs(sp)
        assert abs(ss.s_z - sz) <= 1e-12


def test_preset_steady_state_anchors():
    base = preset("gamma-globulin")
    anchors = {
        1e11: (-0.499975001249938, 2.4998750061982007e-05),
        1e12: (-0.4975124378598915, 0.002487562140108524),
        1e13: (-0.33333352730363963, 0.16666647269636034),
    }
    for om, (sz, p2) in anchors.items():
        ss = steady_state(build_adjoint_generator(from_physical(with_rabi(base, om))))
        assert ss.s_z == pytest.approx(sz, rel=1e-12)
        assert ss.p_excited == pytest.approx(p2, rel=1e-12)


def test_correction_channels_shift_p2_at_first_order_only():
    """The cross channel enters the population balance at first order in
    c_cross = Omega/(2 omegaL), so the full model sits within c_cross of the
    radiative-only closed form (measured ratio peaks at ~0.67 of that bound);
    below Omega ~ 2e11 the deviation is under 1e-6.
    """
    base = preset("gamma-globulin")
    for om in [1e11, 2e11, 3.16e11, 1e12, 3.16e12, 1e13]:
        m = from_physical(with_rabi(base, om))
        ss = steady_state(build_adjoint_generator(m))
        p2_ref, _, _ = closed_form(m)
        dev = abs(ss.p_excited - p2_ref) / p2_ref
        assert dev < m.c_cross
        if om <= 2e11:
            assert dev < 1e-6


def test_no_relaxation_raises():
    m = EffectiveModel(
        omega_rabi=1e12, g_asym=0.0, bs_shift=0.0, delta_eff=1e12,
        gamma_R=0.0, gamma_L=0.0, gamma_T=0.0,
        c_cross=1e-4, c_pump=1e-8, c_deph=1e-8,
        pair_freq=1.0, omega0=1.0, omegaL=2.0,
    )
    with pytest.raises(NoRelaxationError):
        steady_state(build_adjoint_generator(m))


def test_pure_dephasing_steady_state_is_degenerate():
    """Dephasing alone never moves <S_z>: every diagonal state is stationary."""
    m = EffectiveModel(
        omega_rabi=0.0, g_asym=0.0, bs_shift=0.0, delta_eff=0.0,
        gamma_R=0.0, gamma_L=1e6, gamma_T=0.0,
        c_cross=0.0, c_pump=0.0, c_deph=1e-6,
        pair_freq=1.0, omega0=1.0, omegaL=2.0,
    )
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(build_adjoint_generator(m))


# --- propagation ----------------------------------------------------------------


def test_propagate_zero_time_is_identity():
    g = strong_drive_generator()
    st = propagate(g, excited_state(), 0.0)
    assert np.max(np.abs(st.rho - excited_state().rho)) < 1e-14


def test_excited_population_decays_at_twice_gamma_r():
    m = from_physical(with_rabi(preset("gamma-globulin"), 0.0))
    g = build_adjoint_generator(m)
    t = 1.0 / (2.0 * m.gamma_R)
    p2 = propagate(g, excited_state(), t).p_excited
    assert abs(p2 - np.exp(-1.0)) <= 1e-10 * np.exp(-1.0)
    # coherence decays at gamma_R (tolerance allows the eps*|delta|*t
    # phase-arithmetic floor, ~8e-10 here)
    plus = BlochState(0.5 * (ID + SP + SM))
    st = propagate(g, plus, 1.0 / m.gamma_R)
    assert abs(st.s_plus) == pytest.approx(0.5 * np.exp(-1.0), rel=1e-8)


def test_long_time_propagation_reaches_steady_state():
    g = strong_drive_generator()
    ss = steady_state(g)
    st = propagate(g, excited_state(), 30.0 / g.model.gamma_R)
    assert np.max(np.abs(st.rho - ss.rho)) < 1e-8


def test_propagation_preserves_physicality():
    """Trace, Hermiticity, and the <S_z> range survive long evolutions."""
    g = strong_drive_generator()
    rng = np.random.default_rng(31)
    horizon = 10.0 / g.model.gamma_R
    for t in np.concatenate(([0.0, 30.0 / g.model.gamma_R], rng.uniform(0, horizon, 12))):
        st = propagate(g, excited_state(), float(t))  # BlochState re-validates
        assert abs(np.trace(st.rho) - 1.0) < 1e-12
        assert abs(st.s_minus - np.conj(st.s_plus)) < 1e-12
        assert -0.5 - 1e-9 <= st.s_z <= 0.5 + 1e-9


def test_semigroup_property():
    """exp(L(t1+t2)) = exp(L t2) exp(L t1) to 1e-10 at moderate phase budget.

    The strict tolerance is meaningful only while |delta_eff|*t stays below
    ~1e6 radians; at the strong-drive preset horizon (phases ~1e8 rad) the
    floating-point floor eps*|delta|*t dominates, so that regime gets a
    looser bound below.
    """
    rng = np.random.default_rng(17)
    ex = excited_state()
    for _ in range(20):
        m = EffectiveModel(
            omega_rabi=5e10, g_asym=0.0, bs_shift=0.0,
            delta_eff=float(rng.uniform(-1e11, 1e11)),
            gamma_R=1e9, gamma_L=8e8, gamma_T=1e5,
            c_cross=5e-3, c_pump=1e-4, c_deph=2.5e-5,
            pair_freq=1.0, omega0=1.0, omegaL=2.0,
        )
        g = build_adjoint_generator(m)
        t1, t2 = rng.uniform(0, 2.5e-9, 2)
        split = propagate(g, propagate(g, ex, float(t1)), float(t2))
        direct = propagate(g, ex, float(t1 + t2))
        assert np.max(np.abs(split.rho - direct.rho)) < 1e-10


def test_semigroup_property_at_preset_horizon():
    g = strong_drive_generator()
    ex = excited_state()
    t1, t2 = 3.0 / g.model.gamma_R, 7.0 / g.model.gamma_R
    split = propagate(g, propagate(g, ex, t1), t2)
    direct = propagate(g, ex, t1 + t2)
    assert np.max(np.abs(split.rho - direct.rho)) < 1e-7


def test_propagation_agrees_with_adaptive_integrator():
    """Cross-check the matrix exponential against scipy's LSODA on the dual."""
    m = rad_only(2e8, 1e6, 5e7)
    g = build_adjoint_generator(m)
    dual = dual_generator(g)

    def rhs(_, y):
        dc = dual @ (y[:4] + 1j * y[4:])
        return np.concatenate([dc.real, dc.imag])

    c0 = hs_decompose(excited_state().rho)
    t_end = 3.0 / m.gamma_R
    sol = solve_ivp(
        rhs, (0.0, t_end), np.concatenate([c0.real, c0.imag]),
        method="LSODA", rtol=1e-11, atol=1e-14,
    )
    assert sol.success
    rho_ode = hs_reconstruct(sol.y[:4, -1] + 1j * sol.y[4:, -1])
    rho_exp = propagate(g, excited_state(), t_end).rho
    assert np.max(np.abs(rho_ode - rho_exp)) < 1e-8


def test_negative_time_rejected():
    g = strong_drive_generator()
    with pytest.raises(ValueError, match="t must be >= 0"):
        propagate(g, excited_state(), -1e-9)
    with pytest.raises(ValueError):
        propagate_dual(g, SP, -1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_time_rejected(bad):
    g = strong_drive_generator()
    with pytest.raises(ValueError, match="t must be finite"):
        propagate_dual(g, excited_state().rho, bad)


def test_import_does_not_load_scipy(child_env):
    """scipy.linalg is imported by the first propagation, not by the package."""
    code = "import sys, thzpair; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_propagate_dual_handles_unnormalized_operators():
    """The dual flow acts on arbitrary operators, not just states."""
    g = strong_drive_generator()
    out = propagate_dual(g, 0.3 * SP @ SM, 1.0 / g.model.gamma_R)
    assert out.shape == (2, 2)
    # the flow conserves the trace of whatever it is fed
    assert np.trace(out).real == pytest.approx(0.3, abs=1e-12)
    assert abs(np.trace(out).imag) < 1e-12


# --- state container -------------------------------------------------------------


def test_reference_states():
    assert ground_state().s_z == -0.5
    assert ground_state().p_excited == 0.0
    assert excited_state().s_z == 0.5
    assert excited_state().s_plus == 0.0


def test_bloch_state_validation():
    with pytest.raises(ValueError, match="2x2"):
        BlochState(np.eye(3))
    with pytest.raises(PhysicalityError, match="Tr rho"):
        BlochState(np.diag([0.7, 0.7]))
    with pytest.raises(PhysicalityError, match="conjugate"):
        BlochState(np.array([[0.5, 0.3], [0.1, 0.5]]))
    with pytest.raises(PhysicalityError, match="outside"):
        BlochState(np.diag([-0.2, 1.2]))
    with pytest.raises(PhysicalityError, match="outside"):
        BlochState(np.full((2, 2), np.nan))


def test_bloch_state_rejects_negative_eigenvalue():
    """Unit trace, Hermitian and <S_z> = 0, but the eigenvalues are 1.1 and
    -0.1: the Bloch vector leaves the ball of radius 1/2."""
    rho = np.array([[0.5, 0.6], [0.6, 0.5]])
    assert np.linalg.eigvalsh(rho)[0] == pytest.approx(-0.1)
    with pytest.raises(PhysicalityError, match="not positive"):
        BlochState(rho)
    # pure states sit on the boundary and pass
    for pure in (ground_state().rho, excited_state().rho, 0.5 * (ID + SP + SM)):
        BlochState(pure)
    with pytest.raises(ValueError):
        ground_state().rho[0, 0] = 5.0  # frozen array
