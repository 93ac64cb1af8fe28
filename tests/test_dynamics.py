"""Generator construction, steady states, and time evolution."""

import contextlib
import dataclasses
import math
import re
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm as scipy_expm

from thzpair import dynamics
from thzpair.algebra import (
    ID,
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
from thzpair.correlations import cauchy_schwarz, g2_tau
from thzpair.dynamics import (
    BLOCH_RADIUS_TOL,
    AdjointGenerator,
    BlochState,
    DegenerateSteadyStateError,
    PhysicalityError,
    _CHANNELS,
    _weights,
    build_adjoint_generator,
    excited_state,
    expm,
    ground_state,
    propagate,
    propagate_dual,
    require_positive,
    steady_state,
)
from thzpair.model import (
    EffectiveModel,
    PairChannelClosedWarning,
    PerturbativeDriveWarning,
    PhysicalParams,
    from_physical,
    preset,
    with_rabi,
)


def _dual_image(model: EffectiveModel, rho: np.ndarray) -> np.ndarray:
    """State-picture image L(rho), evaluated operator-wise.

    Equivalent to hs_reconstruct(g.matrix.T @ hs_decompose(rho)) with
    g = build_adjoint_generator(model), but the structural zeros of rho
    survive exactly (no eps-sized residue from cancelling matrix entries):
    the reference for the generator and for its ground_image.  The package
    states each channel only in the Heisenberg picture, as its (A, B) pair,
    -w (A[B,Q] + [Q,C]D) with C = B^dag and D = A^dag; this is its trace
    dual, the one state-picture form of the channels.
    """
    h0 = model.delta_eff * SZ + 0.5 * model.omega_rabi * (SP + SM)
    out = -1j * commutator(h0, rho)
    for (a, b), w in zip(_CHANNELS, _weights(model)):
        c, d = dagger(b), dagger(a)
        out = out - w * (rho @ a @ b - b @ rho @ a + c @ d @ rho - d @ rho @ c)
    return out


def rad_only(delta, gamma_r, omega):
    """Effective model with every correction channel switched off."""
    return EffectiveModel(
        omega_rabi=omega, bs_shift=0.0, delta_eff=delta,
        gamma_R=gamma_r, gamma_L=0.0, gamma_T=0.0,
        c_cross=0.0, c_pump=0.0, c_deph=0.0,
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


def preset_model(name, rabi):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # closed pair channel, strong drive
        return from_physical(with_rabi(preset(name), rabi))


def seeded_models():
    """Log-uniform drives on both presets and radiative-only draws."""
    rng = np.random.default_rng(37)
    models = []
    for name, rabi_max in (("gamma-globulin", 4.9e13), ("gan-dot", 1.2e15)):
        for e in rng.uniform(11.0, math.log10(rabi_max), 20):
            models.append(preset_model(name, 10.0**e))
    for lg in rng.uniform(7.0, 13.0, (20, 3)):
        models.append(rad_only(10.0 ** lg[0] * rng.choice([-1, 1]), 10.0 ** lg[1], 10.0 ** lg[2]))
    return models


def bits(x):
    """The bytes of a float or complex value, so -0.0 and 0.0 differ."""
    return np.complex128(x).tobytes() if isinstance(x, complex) else np.float64(x).tobytes()


# --- generator structure ------------------------------------------------------


def test_identity_is_annihilated():
    g = strong_drive_generator()
    image = g.matrix @ hs_decompose(ID)
    assert np.max(np.abs(image)) <= 1e-14 * np.max(np.abs(g.matrix))
    # the dual conserves the trace: its trace row is exactly zero
    assert np.all(g.matrix.T[0, :] == 0.0)


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
    dual = g.matrix.T
    scale = np.max(np.abs(g.matrix))
    rng = np.random.default_rng(23)
    for _ in range(100):
        rho = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = np.trace(hs_reconstruct(dual @ hs_decompose(rho)) @ q)
        rhs = np.trace(rho @ hs_reconstruct(g.matrix @ hs_decompose(q)))
        denom = scale * np.linalg.norm(rho) * np.linalg.norm(q)
        assert abs(lhs - rhs) <= 1e-12 * denom


@pytest.mark.parametrize(
    "make",
    [
        lambda: preset_model("gamma-globulin", 1e11),
        lambda: preset_model("gamma-globulin", 1e13),
        lambda: preset_model("gan-dot", 5e14),
        lambda: preset_model("gan-dot", 1e15),
        lambda: rad_only(3.7e9, 2.1e6, 5e7),
    ],
    ids=["gamma-globulin-1e11", "gamma-globulin-1e13", "gan-dot-5e14", "gan-dot-1e15", "rad_only"],
)
def test_the_transpose_is_the_operator_wise_dual_image(make):
    """The assembled generator, transposed, against L(X) evaluated
    operator-wise by _dual_image: two independent evaluations of the five
    channels, one in the Heisenberg and one in the state picture."""
    g = build_adjoint_generator(make())
    assert g.matrix.dtype == np.float64
    dual = g.matrix.T
    scale = np.max(np.abs(g.matrix))
    rng = np.random.default_rng(31)
    for _ in range(50):
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        got = hs_decompose(_dual_image(g.model, x))
        want = dual @ hs_decompose(x)
        assert np.max(np.abs(got - want)) <= 1e-13 * scale * np.linalg.norm(x)


def test_ground_image_is_the_operator_wise_image_bit_for_bit():
    """steady_state's affine term, the ground projector's image read off the
    package's Heisenberg-picture images as <1|L^adj(e_i)|1>, is exactly the
    traceless part of _dual_image's state-picture evaluation, signed zeros
    included."""
    for m in seeded_models():
        got = build_adjoint_generator(m).ground_image
        assert got.shape == (3,)
        want = hs_decompose(_dual_image(m, PROJ_GROUND))[1:].real
        assert got.tobytes() == want.tobytes()


def test_generator_matrix_is_read_only():
    g = strong_drive_generator()
    with pytest.raises(ValueError):
        g.matrix[0, 0] = 1.0
    with pytest.raises(ValueError):
        g.ground_image[0] = 1.0


def test_an_overflowing_generator_is_refused_where_it_is_built():
    """Every rate is finite, but gamma0 = 1e308 carries the channel terms
    past double precision: the assembly raises no floating-point warning and
    the generator itself refuses, naming the overflow."""
    params = PhysicalParams(omega0=1e15, omegaL=1.00001e15, dipole_ratio=1.0, gamma0=1e308,
                            rabi=1e13)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PairChannelClosedWarning)
        eff = from_physical(params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="overflows double precision"):
            build_adjoint_generator(eff)


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


def test_a_solve_that_misses_is_refused_by_its_residual(monkeypatch):
    """A linear solve that lands 1e-6 off in every coefficient leaves a
    residual of m y + L(|1><1|) far past 1e-10 max|G|, and the state is
    refused."""
    g = strong_drive_generator()
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1e-6)
    with pytest.raises(DegenerateSteadyStateError, match="steady-state residual"):
        steady_state(g)


@pytest.mark.parametrize("residual, refused", [(3e-11, False), (3e-10, True)],
                         ids=["inside", "outside"])
def test_the_residual_gate_sits_at_1e_10(monkeypatch, residual, refused):
    """No real solve misses by 1e-10 max|G|, so the solve is offset along
    (1, 1, 1), scaled to leave a relative residual 3x inside or 3x outside
    the bound: moving it 10x either way fails one of the two."""
    g = strong_drive_generator()
    exact = steady_state(g)
    m, scale = g.matrix[1:, 1:].T, np.abs(g.matrix).max()
    offset = residual / np.linalg.norm(m @ np.ones(3) / scale)
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + offset)
    if refused:  # the message names the bound in 1/s
        with pytest.raises(DegenerateSteadyStateError,
                           match=re.escape(f"exceeds {1e-10 * scale:.3g}")):
            steady_state(g)
    else:
        assert np.abs(steady_state(g).rho - exact.rho).max() <= 1e-9


def constructed_generator(block, rho):
    """AdjointGenerator whose dual's traceless block is `block` and whose
    fixed point is rho: the affine term is -block @ y for rho's deviation y
    from the ground state.  The model only supplies non-zero weights."""
    y = hs_decompose(rho - PROJ_GROUND).real[1:]
    matrix = np.zeros((4, 4))
    matrix[1:, 1:] = block.T
    return AdjointGenerator(matrix, -block @ y, preset_model("gamma-globulin", 1e13)), y


@pytest.mark.parametrize("d, message", [
    (3e-8, None),
    (3e-9, r"reduced system is singular \(forward-error bound"),
    (0.0, r"reduced system is singular \(no inverse\)"),
], ids=["inside", "outside", "no-inverse"])
def test_the_forward_error_gate_sits_at_1e_8(d, message):
    """The block -(3 I - (1 - d) J), J all ones, relaxes at rates 3, 3 and
    3d; its Skeel bound eps || |A^-1| |A| |y| || is about 1.2e-16/d of
    max|y|, so d = 3e-8 puts it 2.5x inside 1e-8 and d = 3e-9 4x outside,
    and at d = 0 the block has no inverse.  No input of the model's domain
    comes near: its largest Skeel factor is about 1e3."""
    block = -(3.0 * np.eye(3) - (1.0 - d) * np.ones((3, 3)))
    rho = np.array([[0.3, 0.1 - 0.05j], [0.1 + 0.05j, 0.7]])
    g, y = constructed_generator(block, rho)
    if d:
        inv = np.linalg.inv(block)
        bound = (np.abs(inv) @ np.abs(block) @ np.abs(y)).max() * 2.0**-52 / np.abs(y).max()
        assert (1e-9 < bound < 1e-8) if message is None else (1e-8 < bound < 1e-7)
    if message is None:
        assert np.abs(steady_state(g).rho - rho).max() <= 1e-8
    else:
        with pytest.raises(DegenerateSteadyStateError, match=message):
            steady_state(g)


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


def test_only_steady_state_sets_the_solved_s_z():
    """solved_s_z sits beside rho but is no constructor argument, and a copy
    with another rho drops it: it never contradicts the rho it is read with."""
    ss = steady_state(build_adjoint_generator(
        from_physical(with_rabi(preset("gamma-globulin"), 1e13))))
    assert ss.solved_s_z == pytest.approx(ss.s_z, rel=1e-12)
    with pytest.raises(TypeError):
        BlochState(ss.rho, solved_s_z=ss.s_z)
    assert BlochState(ss.rho).solved_s_z is None
    assert dataclasses.replace(ss, rho=ground_state().rho).solved_s_z is None


def test_states_and_generators_compare_by_identity():
    """Equality and hashing are the object's own, never a comparison of the
    arrays the records hold, so every pair compares and every record hashes."""
    eff = from_physical(with_rabi(preset("gamma-globulin"), 1e13))
    for make in (ground_state, lambda: build_adjoint_generator(eff)):
        a, b = make(), make()
        assert a == a and not a != a
        assert not a == b and a != b
        assert {a, a} == {a} and len({a, b}) == 2
        assert hash(a) == hash(a)
    assert ground_state() != excited_state()


@pytest.mark.parametrize("gamma0", [1e200, 1e307])
def test_steady_state_survives_a_generator_past_the_norm_squares_range(gamma0):
    """Past max|G| ~ 1e170 the squares in an unscaled residual norm overflow
    and an accurate state was refused (residual inf); the state does not
    depend on the rate scale, so it matches the one at gamma0 = 1e140."""
    def solve(g0):
        params = dataclasses.replace(with_rabi(preset("gamma-globulin"), 1e13), gamma0=g0)
        return steady_state(build_adjoint_generator(from_physical(params)))

    ref, ss = solve(1e140), solve(gamma0)
    assert ss.p_excited == pytest.approx(ref.p_excited, rel=1e-15)
    assert ss.s_z == pytest.approx(ref.s_z, rel=1e-15)
    assert abs(ss.s_plus - ref.s_plus) <= 1e-15 * abs(ref.s_plus)


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


@pytest.mark.parametrize(
    "rabi, p2_full, p2_no_cross",
    [(5e14, 0.500242, 0.499971), (7e14, 0.501046, 0.499553), (1e15, 0.502409, 0.498365)],
)
def test_gan_dot_inversion_comes_from_the_cross_channels(rabi, p2_full, p2_no_cross):
    """Strongly driven gan-dot settles with slightly more than half its
    population excited, although its pair pump is closed and decay and
    dephasing alone cannot invert a two-level system.  The state is well
    inside the Bloch ball, and switching the non-Lindblad cross channels off
    (c_cross = 0) removes the inversion."""
    eff = preset_model("gan-dot", rabi)
    ss = steady_state(build_adjoint_generator(eff))
    assert ss.p_excited > 0.5
    assert ss.p_excited == pytest.approx(p2_full, abs=1e-6)
    assert np.linalg.eigvalsh(ss.rho).min() >= 0.44

    no_cross = dataclasses.replace(eff, c_cross=0.0)
    p2 = steady_state(build_adjoint_generator(no_cross)).p_excited
    assert p2 < 0.5
    assert p2 == pytest.approx(p2_no_cross, abs=1e-6)


def test_no_relaxation_raises():
    m = EffectiveModel(
        omega_rabi=1e12, bs_shift=0.0, delta_eff=1e12,
        gamma_R=0.0, gamma_L=0.0, gamma_T=0.0,
        c_cross=1e-4, c_pump=1e-8, c_deph=1e-8,
    )
    with pytest.raises(DegenerateSteadyStateError, match="weights are zero"):
        steady_state(build_adjoint_generator(m))


def test_pure_dephasing_steady_state_is_degenerate():
    """Dephasing alone never moves <S_z>: every diagonal state is stationary."""
    m = EffectiveModel(
        omega_rabi=0.0, bs_shift=0.0, delta_eff=0.0,
        gamma_R=0.0, gamma_L=1e6, gamma_T=0.0,
        c_cross=0.0, c_pump=0.0, c_deph=1e-6,
    )
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(build_adjoint_generator(m))


GROWING = PhysicalParams(omega0=5.6e11, omegaL=3e13, rabi=6e12, dipole_ratio=0.05,
                         gamma0=1.6e5)


def test_growing_mode_is_not_a_steady_state():
    """Cross channel 2 outweighs the decay here (Re lambda = +1.05e6/s): the
    fixed point exists and solves to a small residual, but nothing relaxes
    to it, so steady_state refuses it and names the growth rate."""
    g = build_adjoint_generator(from_physical(GROWING))
    with pytest.raises(DegenerateSteadyStateError, match=r"not an attractor.*1\.05e\+06"):
        steady_state(g)
    ## the same drive with the cross channels off relaxes
    calm = dataclasses.replace(g.model, c_cross=0.0)
    assert 0.0 < steady_state(build_adjoint_generator(calm)).p_excited < 0.5


@pytest.mark.parametrize("rabi, refused", [(1.20345e12, False), (1.20375e12, True)],
                         ids=["inside", "outside"])
def test_the_growth_gate_sits_at_1e_12(reference, rabi, refused):
    """GROWING's growth turns to decay as its drive falls: near rabi
    1.2034e12 the complex pair lambda ~ +10 +- 2.9e13i 1/s crosses the axis.
    At these drives the 50-digit max Re lambda sits 3x inside and 3x
    outside the gate 1e-12 max|m|; a solved state matches the reference."""
    params = dataclasses.replace(GROWING, rabi=rabi)
    g = build_adjoint_generator(from_physical(params))
    lab = reference.Lab.of(params)
    with mpmath.workdps(reference.DPS):
        lam = mpmath.eig(reference.generator(lab), right=False)
        growth = float(max(mpmath.re(e) for e in lam)) / np.abs(g.matrix[1:, 1:]).max()
    if refused:
        assert 1e-12 < growth < 1e-11
        with pytest.raises(DegenerateSteadyStateError, match="not an attractor"):
            steady_state(g)
    else:
        assert 1e-13 < growth < 1e-12
        ss = steady_state(g)
        rep = cauchy_schwarz(ss)
        for value, ref in zip((ss.p_excited, rep.g12, rep.g21), reference.steady_point(lab)):
            assert reference.rel_dev(value, ref) <= 1e-13


def test_preset_generators_relax_with_margin():
    """Every mode of the seeded drives decays: max Re lambda sits well below
    the growth threshold 1e-12 * max|m| that steady_state applies."""
    for m in seeded_models():
        block = build_adjoint_generator(m).matrix.T[1:, 1:]
        assert np.linalg.eigvals(block).real.max() < -1e-10 * np.abs(block).max()


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
            omega_rabi=5e10, bs_shift=0.0,
            delta_eff=float(rng.uniform(-1e11, 1e11)),
            gamma_R=1e9, gamma_L=8e8, gamma_T=1e5,
            c_cross=5e-3, c_pump=1e-4, c_deph=2.5e-5,
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
    dual = g.matrix.T

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


# --- properties of the flow over drawn models ------------------------------------


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


RATES = log_uniform(1e6, 1e12)


@st.composite
def radiative_models(draw):
    gamma = draw(RATES)
    delta = gamma * draw(st.floats(-1e3, 1e3))
    return rad_only(delta, gamma, gamma * draw(log_uniform(1e-2, 1e3)))


@st.composite
def preset_models(draw):
    name, rabi_max = draw(st.sampled_from([("gamma-globulin", 4.9e13), ("gan-dot", 1e15)]))
    return preset_model(name, draw(log_uniform(1e11, rabi_max)))


@st.composite
def near_exceptional_models(draw):
    """Within 1e-6 of delta = 0, Omega = gamma_R/2, where the generator is
    defective; the closest draws take the expm fallback."""
    gamma = draw(RATES)
    return rad_only(0.0, gamma, 0.5 * gamma * (1.0 + draw(st.floats(-1e-6, 1e-6))))


MODELS = st.one_of(radiative_models(), preset_models(), near_exceptional_models())
OPERATORS = st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).map(
    lambda v: np.reshape(v[:4], (2, 2)) + 1j * np.reshape(v[4:], (2, 2))
)
FRACTIONS = st.floats(0.0, 1.0)  # of the horizon 10/gamma_R


@given(MODELS, OPERATORS, FRACTIONS)
def test_flow_conserves_the_trace(m, op, f):
    out = propagate_dual(build_adjoint_generator(m), op, f * 10.0 / m.gamma_R)
    assert abs(np.trace(out) - np.trace(op)) <= 1e-12 * np.max(np.abs(op))


@given(MODELS, OPERATORS, FRACTIONS)
def test_flow_keeps_hermitian_operators_hermitian(m, op, f):
    """The real-frame propagator keeps the conjugate coefficient pair exact."""
    h = op + op.conj().T
    out = propagate_dual(build_adjoint_generator(m), h, f * 10.0 / m.gamma_R)
    assert np.max(np.abs(out - out.conj().T)) <= 1e-15 * np.max(np.abs(h))


@given(MODELS, OPERATORS, FRACTIONS, FRACTIONS)
def test_flow_is_a_semigroup(m, op, f1, f2):
    """U(t1 + t2) = U(t2) U(t1).  The floor is the phase arithmetic,
    eps * s * t with s the largest frequency of the generator."""
    g = build_adjoint_generator(m)
    t1, t2 = f1 * 10.0 / m.gamma_R, f2 * 10.0 / m.gamma_R
    direct = propagate_dual(g, op, t1 + t2)
    split = propagate_dual(g, propagate_dual(g, op, t1), t2)
    s = max(m.omega_rabi, abs(m.delta_eff), m.gamma_R)
    tol = (1e-12 + 2.0 * np.finfo(float).eps * s * (t1 + t2)) * np.max(np.abs(op))
    assert np.max(np.abs(direct - split)) <= tol


@given(MODELS, st.sampled_from([ground_state, excited_state]))
def test_long_time_limit_is_the_steady_state(m, start):
    """After 30/gamma_R the slowest mode has decayed by e^-30 or more, so the
    flow from either pole sits on the steady state up to the phase floor."""
    g = build_adjoint_generator(m)
    t = 30.0 / m.gamma_R
    rho = propagate(g, start(), t).rho
    s = max(m.omega_rabi, abs(m.delta_eff), m.gamma_R)
    tol = 1e-12 + 2.0 * np.finfo(float).eps * s * t
    assert np.max(np.abs(rho - steady_state(g).rho)) <= tol


@st.composite
def pure_states(draw):
    """A density matrix on the surface of the Bloch ball."""
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        v, norm = np.array([0.0, 0.0, -1.0]), 1.0  # ground
    x, y, z = v / (2.0 * norm)
    return 0.5 * ID + x * (SP + SM) + y * 1j * (SP - SM) + 2.0 * z * SZ


TRAJECTORY = np.concatenate(([0.0], np.geomspace(1e-4, 30.0, 24)))  # in 1/gamma_R


@given(preset_models(), pure_states())
def test_trajectories_stay_in_the_bloch_ball(m, rho0):
    """Inside the validity domain the non-Lindblad cross channels never push
    a state, not even a pure one, out of the Bloch ball."""
    g = build_adjoint_generator(m)
    for f in TRAJECTORY:
        rho = propagate_dual(g, rho0, f / m.gamma_R)
        radius2 = abs(expectation(SP, rho)) ** 2 + expectation(SZ, rho).real ** 2
        assert radius2 <= 0.25 + BLOCH_RADIUS_TOL


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


def test_import_does_not_load_scipy(child_env, tmp_path):
    """numpy is the only runtime dependency: neither the import nor any
    subcommand, propagation included, loads scipy."""
    code = (
        "import sys, thzpair\n"
        "from thzpair import cli\n"
        "print('scipy' in sys.modules)\n"
        "base = ['--preset', 'gamma-globulin', '--rabi', '1e12']\n"
        "assert cli.main(['steady', *base]) == 0\n"
        "assert cli.main(['correlate', *base, '--output', 'c.csv', '--tau-points', '5']) == 0\n"
        "assert cli.main(['verify-heff', *base]) == 0\n"
        "assert cli.main(['sweep', '--preset', 'gan-dot', '--output', 's.csv', '--points', '3']) == 0\n"
        "print('scipy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "False"
    assert proc.stdout.splitlines()[-1] == "False"


# --- the matrix exponential and the switch to it -----------------------------------


def count_expm_calls(monkeypatch):
    calls = []

    def counted(a):
        calls.append(a)
        return expm(a)

    monkeypatch.setattr(dynamics, "expm", counted)
    return calls


def mp_propagate(g, op, t):
    """exp(dual t) applied to op at 40 digits, from the float dual generator."""
    with mpmath.workdps(40):
        dual = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in g.matrix.T])
        x0 = mpmath.matrix([mpmath.mpc(complex(c)) for c in hs_decompose(op)])
        y = mpmath.expm(dual * mpmath.mpf(t)) * x0
        return hs_reconstruct([complex(c) for c in y])


@pytest.mark.parametrize(
    "eps, fallback",
    [
        (0.0, True),  # exceptional point: cond(V) ~ 1e8, the eigenvectors merge
        (1e-3, False),  # cond(V) ~ 60
    ],
)
def test_fallback_switch_at_the_exceptional_point(monkeypatch, eps, fallback):
    """At delta = 0 and Omega = gamma_R/2 two Bloch eigenvalues coincide and
    the radiative-only generator is defective.  The trace row of the dual
    generator is zero, so the exponential's trace row is exactly (1, 0, 0, 0)."""
    gamma = 1e9
    g = build_adjoint_generator(rad_only(0.0, gamma, 0.5 * gamma * (1.0 + eps)))
    calls = count_expm_calls(monkeypatch)
    rho = excited_state().rho
    delays = (0.1, 1.0, 10.0, 30.0, 300.0, 3000.0)
    for t in (d / gamma for d in delays):
        out = propagate_dual(g, rho, t)
        ref = mp_propagate(g, rho, t)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert len(calls) == (len(delays) if fallback else 0)
    for a in calls:
        assert expm(a)[0].tolist() == [1.0, 0.0, 0.0, 0.0]


# The physics warning the top of each preset's benchmark range raises.
TOP_OF_RANGE_WARNINGS = {
    (4.9e13, "gamma-globulin"): PerturbativeDriveWarning,
    (1e15, "gan-dot"): PairChannelClosedWarning,
}


@pytest.mark.parametrize(
    "rabi, name",
    [
        (1e11, "gamma-globulin"),
        (1e11, "gan-dot"),
        (1e13, "gamma-globulin"),
        (1e13, "gan-dot"),
        *TOP_OF_RANGE_WARNINGS,
    ],
)
def test_presets_never_take_the_fallback(monkeypatch, name, rabi):
    """Nor leave the positive cone: g2_tau checks every delay."""
    warning = TOP_OF_RANGE_WARNINGS.get((rabi, name))
    with pytest.warns(warning) if warning else contextlib.nullcontext():
        g = build_adjoint_generator(from_physical(with_rabi(preset(name), rabi)))
    calls = count_expm_calls(monkeypatch)
    ss = steady_state(g)
    taus = np.linspace(0.0, 10.0 / g.model.gamma_R, 50)
    g2_tau(1, 2, g, ss, taus)
    g2_tau(2, 1, g, ss, taus)
    assert calls == []


def test_overflowing_time_rejected_on_the_eigen_path(monkeypatch):
    """At t = 1e300 lambda*t overflows.  The error names t and is no
    PhysicalityError: the delay, not the state, is at fault."""
    g = strong_drive_generator()
    calls = count_expm_calls(monkeypatch)
    for t in (1e300, 0.5 * sys.float_info.max):
        with pytest.raises(ValueError, match=re.escape(f"t = {t!r} overflows")) as exc:
            propagate(g, excited_state(), t)
        assert not isinstance(exc.value, PhysicalityError)
    assert calls == []


def near_exceptional_generator(eps):
    """Radiative-only generator at delta = 0 and Omega = (gamma_R/2)(1 + eps):
    cond(V) grows like 1/sqrt(eps) towards the exceptional point at eps = 0."""
    gamma = 1e7
    return build_adjoint_generator(rad_only(0.0, gamma, 0.5 * gamma * (1.0 + eps)))


@pytest.mark.parametrize("eps, cond_band, expm_calls", [
    (4e-11, (1e5, 1e6), 0),
    (4e-13, (1e6, 1e7), 1),
], ids=["inside", "outside"])
def test_the_eigen_switch_sits_at_cond_1e6(monkeypatch, eps, cond_band, expm_calls):
    """cond(V) reads 3.1e5 and 3.1e6 on these two generators, 3x inside and
    3x outside EIGEN_COND_LIMIT: the first propagates by its eigen-expansion,
    the second by expm, and both match scipy's expm."""
    g = near_exceptional_generator(eps)
    lo, hi = cond_band
    assert lo < np.linalg.cond(np.linalg.eig(g.matrix.T)[1]) < hi
    calls = count_expm_calls(monkeypatch)
    rho, t = excited_state().rho, 3e-7
    out = propagate_dual(g, rho, t)
    assert len(calls) == expm_calls
    ref = hs_reconstruct(scipy_expm(g.matrix.T * t) @ hs_decompose(rho))
    assert np.abs(out - ref).max() <= 1e-14


@pytest.mark.parametrize("eps", [4e-11, 4e-13], ids=["eigen", "expm"])
def test_the_norm_reach_sits_at_1e307(eps):
    """Both paths propagate at ||dual||_1 t = 3e306 to a finite operator, and
    refuse ||dual||_1 t = 3e307 by name: 3x inside and 3x outside the limit."""
    g = near_exceptional_generator(eps)
    norm = np.linalg.norm(g.matrix.T, 1)
    rho = excited_state().rho
    assert np.isfinite(propagate_dual(g, rho, 3e306 / norm)).all()
    with pytest.raises(ValueError, match="overflows double precision"):
        propagate_dual(g, rho, 3e307 / norm)


def test_a_numpy_delay_is_named_as_a_number():
    """np.float64(1e300) is refused as t = 1e+300, and a finite numpy delay
    propagates bit for bit as its float."""
    g = strong_drive_generator()
    with pytest.raises(ValueError, match=re.escape("t = 1e+300 overflows")):
        propagate(g, excited_state(), np.float64(1e300))
    t = 3.0 / g.model.gamma_R
    rho = excited_state().rho
    assert propagate_dual(g, rho, np.float64(t)).tobytes() == propagate_dual(g, rho, t).tobytes()


def test_overflowing_time_rejected_on_the_expm_path(monkeypatch):
    """At the exceptional point dual*t overflows at t = 1e300 and is refused
    before expm runs; t = 1e290 still exponentiates to a finite operator."""
    gamma = 1e9
    g = build_adjoint_generator(rad_only(0.0, gamma, 0.5 * gamma))
    calls = count_expm_calls(monkeypatch)
    with pytest.raises(ValueError, match=r"t = 1e\+300 overflows") as exc:
        propagate(g, excited_state(), 1e300)
    assert not isinstance(exc.value, PhysicalityError)
    assert np.isfinite(propagate_dual(g, excited_state().rho, 1e290)).all()
    assert len(calls) == 1


def test_overflowing_growth_rejected():
    """With omegaL 50 times omega0 the non-Lindblad cross channel 2 outweighs
    radiative decay and one Bloch mode grows (Re lambda ~ +1e6/s), so
    e^{lambda t} overflows well before lambda*t does."""
    g = build_adjoint_generator(from_physical(GROWING))
    assert np.isfinite(propagate_dual(g, excited_state().rho, 5e-4)).all()
    with pytest.raises(ValueError, match=re.escape("t = 0.001 overflows")):
        propagate_dual(g, excited_state().rho, 1e-3)


@pytest.mark.parametrize("norm", [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3])
def test_taylor_expm_matches_scipy(norm):
    """The degree-18 Taylor fallback against scipy's expm.  The exponential's
    relative condition number grows like ||A||, so two sound algorithms agree
    to about eps*||A|| (measured: up to 226 eps*||A||, at ||A|| = 1e2-1e3)."""
    rng = np.random.default_rng(41)
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        a *= norm / np.linalg.norm(a, 1)
        ref = scipy_expm(a)
        err = np.linalg.norm(expm(a) - ref, 1) / np.linalg.norm(ref, 1)
        assert err <= 5e-13 * max(1.0, norm)


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


def test_expectation_views_read_rho_bit_for_bit():
    """s_plus, s_minus, s_z and p_excited read rho's entries; each equals
    expectation(Q, rho) to the last bit, sign of zero included."""
    states = [ground_state(), excited_state(), BlochState(0.5 * (ID + SP + SM))]
    for m in seeded_models():
        g = build_adjoint_generator(m)
        states += [steady_state(g), propagate(g, excited_state(), 1.0 / m.gamma_R)]
    for state in states:
        rho = state.rho
        assert bits(state.s_plus) == bits(expectation(SP, rho))
        assert bits(state.s_minus) == bits(expectation(SM, rho))
        assert bits(state.s_z) == bits(expectation(SZ, rho).real)
        assert bits(state.p_excited) == bits(expectation(PROJ_EXCITED, rho).real)


def test_bloch_state_validation():
    with pytest.raises(ValueError, match="2x2"):
        BlochState(np.eye(3))
    with pytest.raises(PhysicalityError, match="Tr rho"):
        BlochState(np.diag([0.7, 0.7]))
    with pytest.raises(PhysicalityError, match="conjugate"):
        BlochState(np.array([[0.5, 0.3], [0.1, 0.5]]))
    with pytest.raises(PhysicalityError, match=r"^rho is not positive: lambda_min/Tr = -0\.2$"):
        BlochState(np.diag([-0.2, 1.2]))
    with pytest.raises(PhysicalityError, match="non-finite"):
        BlochState(np.full((2, 2), np.nan))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)],
                         ids=["nan", "inf", "-inf", "inf-imag"])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)], ids=str)
def test_bloch_state_names_a_non_finite_entry(entry, bad):
    """A NaN or infinite entry is refused as such, before the trace,
    Hermiticity and positivity tests, and with no floating-point warning."""
    rho = ground_state().rho.copy()
    rho[entry] = bad
    with pytest.raises(PhysicalityError, match="rho has a non-finite entry"):
        BlochState(rho)


def test_bloch_state_rejects_an_imaginary_diagonal():
    """Unit trace and no coherence, but rho != rho^dag on the diagonal."""
    with pytest.raises(PhysicalityError, match="conjugate"):
        BlochState(np.array([[0.5 + 0.1j, 0], [0, 0.5 - 0.1j]]))


def test_bloch_ball_is_relative_to_the_trace():
    """require_positive passes any positive multiple of a state and refuses
    any positive multiple of a non-state, a negative multiple, a traceless
    non-zero operator or a NaN entry, naming what it was given."""
    for rho, positive in ((ground_state().rho, True), (0.5 * (ID + SP + SM), True),
                          (np.array([[0.5, 0.6], [0.6, 0.5]]), False)):
        for scale in (1e-100, 1e-12, 3.0, 1e100):
            if positive:
                require_positive(scale * rho, "rho")
            else:
                with pytest.raises(PhysicalityError,
                                   match=r"^m at 3 is not positive: lambda_min/Tr = -0\.1$"):
                    require_positive(scale * rho, "m at %r", 3)
        with pytest.raises(PhysicalityError, match="^rho is not positive"):
            require_positive(-rho, "rho")
    with pytest.raises(PhysicalityError, match="lambda_min/Tr = -inf$"):
        require_positive(SZ, "S_z")
    with pytest.raises(PhysicalityError, match="lambda_min/Tr = nan$"):
        require_positive(np.full((2, 2), np.nan), "rho")


def test_the_zero_operator_is_positive():
    """0 >= 0: a zero trace and a zero radius sit on both comparisons'
    boundaries, and pass."""
    require_positive(np.zeros((2, 2)), "0")
    require_positive(np.zeros((2, 2), dtype=complex), "0")


@pytest.mark.parametrize("excess, refused", [(1.5e-13, False), (1.5e-12, True)],
                         ids=["inside", "outside"])
def test_the_trace_gate_sits_at_1e_12(excess, refused):
    """Tr rho = 1 + 3e-13 passes and 1 + 3e-12 is refused: 3x inside and 3x
    outside TRACE_TOL."""
    rho = np.diag([0.5 + excess, 0.5 + excess])
    if refused:
        with pytest.raises(PhysicalityError, match="Tr rho"):
            BlochState(rho)
    else:
        BlochState(rho)


@pytest.mark.parametrize("skew, refused", [(3e-13, False), (3e-12, True)],
                         ids=["inside", "outside"])
def test_the_hermiticity_gate_sits_at_1e_12(skew, refused):
    """An off-diagonal pair that differs by 3e-13 passes and by 3e-12 is
    refused: 3x inside and 3x outside CONJ_TOL."""
    rho = np.array([[0.5, 0.1 + skew], [0.1, 0.5]])
    if refused:
        with pytest.raises(PhysicalityError, match="conjugate"):
            BlochState(rho)
    else:
        BlochState(rho)


@pytest.mark.parametrize("excess, refused", [(3e-10, False), (3e-9, True)],
                         ids=["inside", "outside"])
def test_the_bloch_radius_gate_sits_at_1e_9(excess, refused):
    """A unit-trace rho with r^2 = 1/4 + 3e-10 passes and 1/4 + 3e-9 is
    refused: 3x inside and 3x outside BLOCH_RADIUS_TOL."""
    c = math.sqrt(0.25 + excess)
    rho = np.array([[0.5, c], [c, 0.5]])
    if refused:
        with pytest.raises(PhysicalityError, match="not positive"):
            BlochState(rho)
    else:
        BlochState(rho)


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
