"""Two-channel intensity correlations and the classical-bound comparison."""

import dataclasses
import math
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from thzpair import correlations
from thzpair.algebra import SM, SP, dagger, expectation
from thzpair.correlations import (
    CHANNEL_SOURCES,
    ChannelDarkError,
    CorrelationReport,
    _collapse,
    _intensity,
    cauchy_schwarz,
    g2_tau,
    g2_zero,
)
from thzpair.dynamics import (
    BlochState,
    DegenerateSteadyStateError,
    PhysicalityError,
    build_adjoint_generator,
    excited_state,
    ground_state,
    propagate,
    propagate_dual,
    steady_state,
)
from thzpair.model import (
    ConfigError,
    PairChannelClosedWarning,
    PerturbativeDriveWarning,
    PhysicalParams,
    from_physical,
    preset,
    with_rabi,
)


def setup_point(omega):
    g = build_adjoint_generator(from_physical(with_rabi(preset("gamma-globulin"), omega)))
    return g, steady_state(g)


def test_channel_map_operators():
    assert set(CHANNEL_SOURCES) == {1, 2}
    assert CHANNEL_SOURCES[1] is SM
    assert CHANNEL_SOURCES[2] is SP
    g, ss = setup_point(1e13)
    with pytest.raises(ValueError, match="channel must be 1 or 2"):
        g2_zero(3, 1, ss)
    with pytest.raises(ValueError, match="channel must be 1 or 2"):
        g2_tau(1, 0, g, ss, [0.0])


def test_cross_correlations_are_inverse_populations():
    """g12 = 1/P2 and g21 = 1/P1: a THz click leaves the emitter excited,
    so the conditioned optical intensity is 1 against an unconditioned P2."""
    for omega in [1e11, 3e11, 1e12, 3e12, 1e13]:
        _, ss = setup_point(omega)
        rep = cauchy_schwarz(ss)
        p2 = ss.p_excited
        p1 = 1.0 - p2
        assert abs(rep.g12 * p2 - 1.0) <= 1e-12
        assert abs(rep.g21 * p1 - 1.0) <= 1e-12


def test_same_channel_correlations_vanish_identically():
    """S+^2 = S-^2 = 0: a single emitter never emits twice simultaneously."""
    for omega in [1e11, 1e13]:
        _, ss = setup_point(omega)
        rep = cauchy_schwarz(ss)
        assert rep.g11 == 0.0
        assert rep.g22 == 0.0
        assert rep.cs_lhs == 0.0
        assert rep.violated is True


def test_zero_delay_values_at_working_points():
    _, ss = setup_point(1e13)
    rep = cauchy_schwarz(ss)
    assert isinstance(rep, CorrelationReport)
    assert rep.g12 == pytest.approx(6.000006982939154, rel=1e-12)
    assert rep.g21 == pytest.approx(1.199999720682824, rel=1e-12)
    assert rep.cs_rhs == pytest.approx(rep.g12 * rep.g12, rel=1e-15)
    assert rep.cs_rhs == pytest.approx(36.0, rel=2e-2)

    _, ss = setup_point(1e12)
    assert cauchy_schwarz(ss).cs_rhs == pytest.approx(1.61e5, rel=2e-2)
    _, ss = setup_point(1e11)
    assert cauchy_schwarz(ss).cs_rhs == pytest.approx(1.60016e9, rel=1e-4)


@pytest.mark.parametrize(
    "name, rabi",
    [("gamma-globulin", 1e11), ("gamma-globulin", 1e12), ("gamma-globulin", 1e13),
     ("gamma-globulin", 4.9e13), ("gan-dot", 1e12), ("gan-dot", 1e14)],
)
@pytest.mark.filterwarnings("ignore::thzpair.model.PerturbativeDriveWarning")
def test_cauchy_schwarz_matches_operator_products_formed_per_call(name, rabi):
    """The populations-only reads give every correlator bit for bit as the
    operator products formed afresh."""
    ss = steady_state(build_adjoint_generator(from_physical(with_rabi(preset(name), rabi))))
    rho = ss.rho

    def mean(c):
        b = CHANNEL_SOURCES[c]
        return expectation(b @ dagger(b), rho).real

    def corr(i, j):
        bi, bj = CHANNEL_SOURCES[i], CHANNEL_SOURCES[j]
        num = expectation(bi @ bj @ dagger(bj) @ dagger(bi), rho).real
        return num / (mean(i) * mean(j))

    rep = cauchy_schwarz(ss)
    assert (rep.g11, rep.g22, rep.g12, rep.g21) == (corr(1, 1), corr(2, 2), corr(1, 2), corr(2, 1))
    assert rep.cs_rhs == corr(1, 2) * corr(1, 2)


def test_diagonal_reads_are_the_operator_products_bit_for_bit():
    """Both mean intensities read off rho's populations, and all four
    zero-delay numerators read as the channel-j intensity of the collapsed
    state B_i^dag rho B_i, equal expectation() of the operator products to
    the last bit, sign of zero included; so does each channel's intensity
    read off the collapsed operators that g2_tau evolves, against
    Tr(op B_j B_j^dag), at delays from 0 to 10/gamma_R."""
    states = [ground_state(), excited_state(), BlochState(0.5 * np.eye(2) + 0.3 * (SP + SM))]
    evolved = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # strong drive, closed pair channel
        for name, hi in (("gamma-globulin", 13.69), ("gan-dot", 15.0)):
            for e in np.linspace(11.0, hi, 12):
                g = build_adjoint_generator(from_physical(with_rabi(preset(name), 10.0**e)))
                ss = steady_state(g)
                states += [ss, propagate(g, excited_state(), 0.3 / g.model.gamma_R)]
                for b in CHANNEL_SOURCES.values():
                    collapsed = dagger(b) @ ss.rho @ b
                    evolved += [propagate_dual(g, collapsed, tau)
                                for tau in np.linspace(0.0, 10.0 / g.model.gamma_R, 9)]
    def bits(x):
        return np.float64(x).tobytes()

    for state in states:
        rho = state.rho
        for c, b in CHANNEL_SOURCES.items():
            want = expectation(b @ dagger(b), rho).real
            assert bits(_intensity(c, rho)) == bits(want)
        for i, bi in CHANNEL_SOURCES.items():
            for j, bj in CHANNEL_SOURCES.items():
                want = expectation(bi @ bj @ dagger(bj) @ dagger(bi), rho).real
                assert bits(_intensity(j, _collapse(i, rho))) == bits(want)
    for op in evolved:
        for c, b in CHANNEL_SOURCES.items():
            want = float(np.trace(op @ (b @ dagger(b))).real)
            assert bits(_intensity(c, op)) == bits(want)


def test_dark_channel_raises():
    _, ss = setup_point(0.0)  # undriven: no excited population, optical dark
    with pytest.raises(ChannelDarkError, match="channel 2 is dark"):
        cauchy_schwarz(ss)
    with pytest.raises(ChannelDarkError):
        g2_zero(1, 2, ss)


def test_a_report_forms_each_channels_reads_once(monkeypatch):
    """cauchy_schwarz forms 2 mean intensities and 2 collapsed states, one
    per channel (four g2_zero calls formed 8 and 4); g2_zero forms one
    intensity per channel and the collapse of channel i alone."""
    counts = Counter()
    for name in ("_collapse", "_mean_intensity"):
        def counted(*args, _name=name, _real=getattr(correlations, name)):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(correlations, name, counted)
    _, ss = setup_point(1e13)
    cauchy_schwarz(ss)
    assert counts == {"_collapse": 2, "_mean_intensity": 2}
    counts.clear()
    g2_zero(1, 2, ss)
    assert counts == {"_collapse": 1, "_mean_intensity": 2}


@pytest.mark.parametrize("i, j, error, message", [
    (2, 3, ChannelDarkError, "channel 2 is dark"),
    (3, 2, ValueError, "channel must be 1 or 2, got 3"),
    (1, 3, ValueError, "channel must be 1 or 2, got 3"),
])
def test_channel_errors_follow_the_channel_order(i, j, error, message):
    """Channel i is checked before channel j, whether it is bad or dark."""
    _, ss = setup_point(0.0)  # undriven: channel 2 is dark
    with pytest.raises(error, match=message):
        g2_zero(i, j, ss)


@pytest.mark.parametrize("p2, dark", [(1e-299, False), (1e-300, True), (3e-301, True),
                                      (1e-301, True)])
def test_the_dark_channel_floor_sits_at_1e_300(p2, dark):
    """A channel whose mean intensity is at most 1e-300 is dark; one just
    above it gives a finite g12 = 1/P2.  The points sit within 10x of the
    floor on both sides and on it, so moving it 10x either way, or making
    the comparison strict, fails."""
    ss = BlochState(np.diag([1.0 - p2, p2]))
    if not dark:
        assert g2_zero(1, 2, ss) == pytest.approx(1e299, rel=1e-15)
    else:
        with pytest.raises(ChannelDarkError, match="channel 2 is dark"):
            g2_zero(1, 2, ss)


def test_g2_tau_starts_at_the_zero_delay_value():
    g, ss = setup_point(1e13)
    rep = cauchy_schwarz(ss)
    assert g2_tau(1, 2, g, ss, [0.0])[0] == pytest.approx(rep.g12, abs=1e-10)
    assert g2_tau(2, 1, g, ss, [0.0])[0] == pytest.approx(rep.g21, abs=1e-10)


def test_g2_tau_relaxes_to_uncorrelated():
    g, ss = setup_point(1e13)
    tau = 10.0 / g.model.gamma_R
    assert abs(g2_tau(1, 2, g, ss, [tau])[0] - 1.0) < 1e-2
    assert abs(g2_tau(2, 1, g, ss, [tau])[0] - 1.0) < 1e-2


def test_g2_tau_grid_validation():
    """propagate_dual names a bad delay; a dark channel is named first."""
    g, ss = setup_point(1e13)
    with pytest.raises(ValueError, match="must be >= 0"):
        g2_tau(1, 2, g, ss, [-1e-9, 0.0])
    with pytest.raises(ValueError, match="t must be finite, got nan"):
        g2_tau(1, 2, g, ss, [0.0, math.nan])
    assert g2_tau(1, 2, g, ss, []) == []
    g0, dark = setup_point(0.0)  # undriven: channel 2 is dark
    with pytest.raises(ChannelDarkError, match="channel 2 is dark"):
        g2_tau(1, 2, g0, dark, [-1e-9])


@pytest.mark.parametrize("i, j", [(1, 2), (2, 1)])
def test_g2_tau_returns_an_unsorted_grid_in_the_callers_order(i, j):
    """Each delay is propagated on its own, so a permuted grid gives the
    sorted grid's values, permuted, bit for bit."""
    g, ss = setup_point(1e13)
    taus = np.linspace(0.0, 10.0 / g.model.gamma_R, 50)
    order = np.random.default_rng(7).permutation(taus.size)
    ref = g2_tau(i, j, g, ss, taus)
    got = g2_tau(i, j, g, ss, taus[order])
    assert np.array(got).tobytes() == np.array(ref)[order].tobytes()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_g2_tau_rejects_non_finite_delays(bad):
    g, ss = setup_point(1e13)
    with pytest.raises(ValueError, match="finite"):
        g2_tau(1, 2, g, ss, [0.0, bad])


def test_g2_tau_refuses_a_collapsed_state_outside_the_positive_cone():
    """At rabi/omegaL = 0.30 the steady state is positive, but the non-Lindblad
    cross channels carry the collapsed state out of the positive cone within
    a few delays; unchecked, g12 read -0.341 at tau = 1.72e-8 s."""
    params = PhysicalParams(
        omega0=4228507432267.1143, omegaL=33831139112034.574, rabi=10253141234189.902,
        dipole_ratio=0.17128596459608617, gamma0=17592445.36897007,
    )
    with pytest.warns(PerturbativeDriveWarning):
        g = build_adjoint_generator(from_physical(params))
    ss = steady_state(g)
    taus = np.linspace(0.0, 10.0 / g.model.gamma_R, 200)
    with pytest.raises(PhysicalityError, match=r"tau = 8\.61\d*e-09 s .* lambda_min/Tr = -0\.0069"):
        g2_tau(1, 2, g, ss, taus)
    with pytest.raises(PhysicalityError, match=r"tau = 1\.72\d*e-09 s .* lambda_min/Tr = -0\.012"):
        g2_tau(2, 1, g, ss, taus)


def test_g2_tau_is_continuous_in_the_delay():
    """Adjacent samples at a step of 1e-3 of the fastest timescale differ by
    < 1e-2; the Rabi oscillation at the strong-drive point has angular
    frequency sqrt(Omega^2 + delta^2), which sets that timescale."""
    g, ss = setup_point(1e13)
    m = g.model
    step = 1e-3 / np.hypot(m.omega_rabi, m.delta_eff)
    grid = np.arange(200) * step
    for pair in [(1, 2), (2, 1)]:
        vals = g2_tau(*pair, g, ss, grid)
        assert np.max(np.abs(np.diff(vals))) < 1e-2


def test_g2_tau_continuity_weak_drive_literal_step():
    """At Omega = 1e11 the g21 correlator is slow enough that a 1e-3/gamma_R
    step resolves it directly."""
    g, ss = setup_point(1e11)
    grid = np.arange(200) * (1e-3 / g.model.gamma_R)
    vals = g2_tau(2, 1, g, ss, grid)
    assert np.max(np.abs(np.diff(vals))) < 1e-2


def test_g2_tau_matches_the_50_digit_reference_at_weak_drive(reference):
    """The weak-drive case loses the most digits: the phase Delta*tau reaches
    3.3e7 rad at 10/gamma_R.  The reference rebuilds the generator from the
    lab inputs in mpmath and exponentiates it by eigen-expansion."""
    params = with_rabi(preset("gamma-globulin"), 1e11)
    eff = from_physical(params)
    g = build_adjoint_generator(eff)
    ss = steady_state(g)
    taus = np.linspace(0.0, 10.0 / eff.gamma_R, 400)
    expected = reference.correlators(reference.Lab.of(params), taus)
    for (i, j), ref in zip(reference.PAIRS, expected):
        values = g2_tau(i, j, g, ss, taus)
        worst = max(reference.rel_dev(v, r) for v, r in zip(values, ref))
        assert worst <= 1e-8, (i, j, worst)


@pytest.mark.parametrize(
    "name, rabi", [("gamma-globulin", 4.9e13), ("gan-dot", 5e14), ("gan-dot", 1e15)],
    ids=lambda v: v if isinstance(v, str) else f"{v:.3g}",
)
def test_g2_tau_matches_the_50_digit_reference_at_strong_drive(reference, name, rabi):
    """At the top of each preset's drive range the Bloch frequency, and with
    it the phase error the rounded eigenvalues carry into tau, is largest
    (measured worst deviation: 3.3e-8 at gan-dot 1e15)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # closed pair channel, strong drive
        params = with_rabi(preset(name), rabi)
        eff = from_physical(params)
    g = build_adjoint_generator(eff)
    ss = steady_state(g)
    taus = np.linspace(0.0, 10.0 / eff.gamma_R, 200)
    expected = reference.correlators(reference.Lab.of(params), taus)
    for (i, j), ref in zip(reference.PAIRS, expected):
        values = g2_tau(i, j, g, ss, taus)
        worst = max(reference.rel_dev(v, r) for v, r in zip(values, ref))
        assert worst <= 1e-7, (i, j, worst)


def _oracle_drives():
    """Both ends of each preset's valid drive range plus seeded log-uniform
    draws between them.  gan-dot's pair channel closes above about 4.4e14,
    and at 1.2e15 rabi/omegaL is near 0.24; gamma-globulin's G/omegaL is
    about 0.98 at 4.9e13."""
    rng = np.random.default_rng(2012)
    drives = []
    for name, top, extra in [
        ("gamma-globulin", 4.9e13, []),
        ("gan-dot", 1.2e15, [3e14, 5e14, 7e14, 1e15]),
    ]:
        draws = 10.0 ** rng.uniform(11.0, np.log10(top), 6)
        drives += [(name, float(r)) for r in sorted([1e11, *draws, *extra, top])]
    return drives


@pytest.mark.parametrize(
    "name, rabi", _oracle_drives(), ids=lambda v: v if isinstance(v, str) else f"{v:.3g}"
)
def test_steady_point_matches_the_50_digit_reference(reference, name, rabi):
    """p2, g12 and g21 of the full five-channel model against the mpmath
    reference, which rebuilds the generator from the lab inputs in density-
    matrix coordinates and solves it at 50 digits."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # closed pair channel, strong drive
        params = with_rabi(preset(name), rabi)
        eff = from_physical(params)
    ss = steady_state(build_adjoint_generator(eff))
    rep = cauchy_schwarz(ss)
    expected = reference.steady_point(reference.Lab.of(params))
    for value, ref in zip((ss.p_excited, rep.g12, rep.g21), expected):
        assert reference.rel_dev(value, ref) <= 1e-13


@pytest.mark.parametrize(
    "name, rabi, gamma0",
    [("gamma-globulin", 1e13, 3.0), ("gan-dot", 1e13, 1.0),
     ("gan-dot", 1e11, 1e-2), ("gan-dot", 5e14, 1e-3)],
    ids=lambda v: v if isinstance(v, str) else f"{v:.3g}",
)
def test_weak_relaxation_solves_to_the_reference(reference, name, rabi, gamma0):
    """Drives at which relaxation is many decades weaker than the detuning:
    the row-equilibrated block is badly scaled (sigma_min/sigma_max down to
    1.9e-16) but not sensitive, and the float solve matches the 50-digit
    reference."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # closed pair channel, strong drive
        params = dataclasses.replace(preset(name), rabi=rabi, gamma0=gamma0)
        eff = from_physical(params)
    ss = steady_state(build_adjoint_generator(eff))
    rep = cauchy_schwarz(ss)
    expected = reference.steady_point(reference.Lab.of(params))
    for value, ref in zip((ss.p_excited, rep.g12, rep.g21), expected):
        assert reference.rel_dev(value, ref) <= 1e-13


# log10 ranges of the inputs, drawn uniformly over the whole domain: omegaL,
# then omega0/omegaL, rabi/omegaL, dipole_ratio and gamma0
DOMAIN = ((12.0, 16.0), (-2.0, math.log10(3.0)), (-4.0, 0.0), (-2.0, 2.0), (4.0, 9.0))
STEADY_TOL = 1e-11  # relative, on p2, g12 and g21; the worst measured is 6.9e-13
# Boundary bands, in which a draw may take either neighbouring class:
# BlochState admits a rho whose smallest eigenvalue rounds down to about
# -BLOCH_RADIUS_TOL = -1e-9, and steady_state calls a mode growing past
# 1e-12 of the block's largest row; each band is a decade or two wider.
POSITIVITY_BAND = 1e-8  # on lambda_min of the unit-trace 50-digit rho
GROWTH_BAND = 1e-10  # on max Re lambda, relative to the largest generator entry


def _reference_margins(reference, params):
    """lambda_min of the 50-digit steady rho, and max Re lambda of the
    50-digit traceless block over the largest generator entry."""
    with mpmath.workdps(reference.DPS):
        g = reference.generator(reference.Lab.of(params))
        rho = reference.steady_state(g)
        lam_min = min(mpmath.re(e) for e in mpmath.eig(rho, right=False))
        # x = (rho00, rho01, rho10, rho11); g maps into the traceless x, whose
        # coordinates over (1, 0, 0, -1), (0, 1, 0, 0), (0, 0, 1, 0) are x[:3]
        traceless = mpmath.matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0]])
        block = (g * traceless)[0:3, 0:3]
        growth = max(mpmath.re(e) for e in mpmath.eig(block, right=False))
        scale = max(abs(x) for x in g)
        return float(lam_min), float(growth / scale)


@pytest.mark.filterwarnings("ignore::thzpair.model.PerturbativeDriveWarning")
@pytest.mark.filterwarnings("ignore::thzpair.model.PairChannelClosedWarning")
@settings(max_examples=100)
@given(st.randoms(use_true_random=True))
def test_steady_state_classes_agree_with_the_50_digit_reference(reference, rng):
    """Over the whole input domain every valid draw is solved to the
    reference, or refused for the reason the 50-digit model gives: a rho that
    is not positive, or a fixed point that a mode grows away from.

    Delayed correlators are not compared: at gamma0 = 1e4 and omegaL = 1e16
    the phase |Im lambda| tau reaches about 5e12 rad by 10/gamma_R, and the
    rounding of lambda to double alone puts 1e-7 out of reach there."""
    log_wl, log_w0, log_rabi, log_ratio, log_gamma0 = (rng.uniform(lo, hi) for lo, hi in DOMAIN)
    omega_l = 10.0 ** log_wl
    try:
        params = PhysicalParams(
            omega0=omega_l * 10.0 ** log_w0, omegaL=omega_l, rabi=omega_l * 10.0 ** log_rabi,
            dipole_ratio=10.0 ** log_ratio, gamma0=10.0 ** log_gamma0,
        )
        g = build_adjoint_generator(from_physical(params))
    except ConfigError:
        assume(False)
    try:
        ss = steady_state(g)
        outcome = "solved"
    except PhysicalityError:
        outcome = "not positive"
    except DegenerateSteadyStateError as exc:
        assert "not an attractor" in str(exc)
        outcome = "growing"

    event(outcome)  # shown by pytest --hypothesis-show-statistics
    lam_min, growth = _reference_margins(reference, params)
    allowed = set()
    if growth > -GROWTH_BAND:
        allowed.add("growing")
    if growth <= GROWTH_BAND:
        if lam_min < POSITIVITY_BAND:
            allowed.add("not positive")
        if lam_min >= -POSITIVITY_BAND:
            allowed.add("solved")
    assert outcome in allowed, (outcome, lam_min, growth, params)
    if outcome == "solved":
        rep = cauchy_schwarz(ss)
        expected = reference.steady_point(reference.Lab.of(params))
        for value, ref in zip((ss.p_excited, rep.g12, rep.g21), expected):
            assert reference.rel_dev(value, ref) <= STEADY_TOL
