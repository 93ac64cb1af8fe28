"""Numerical re-derivation of the effective-model coefficients."""

import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from thzpair import heff
from thzpair.algebra import SM, SP, SZ, dagger
from thzpair.heff import (
    HeffReport,
    build_lab_hamiltonian,
    compare_to_target,
    hermiticity_defect,
    rotate_frame,
    second_order_average,
    verify_derivation,
)
from thzpair.model import PhysicalParams, from_physical, preset, with_rabi


def working_point():
    params = with_rabi(preset("gamma-globulin"), 1e13)
    return params, from_physical(params)


def oscillating(params, n_trunc, mode_freq, coupling):
    """Rotated lab Hamiltonian without its static harmonic."""
    lab = build_lab_hamiltonian(params, n_trunc, mode_freq, coupling)
    rot = rotate_frame(lab, params.omegaL)
    return {n: m for n, m in rot.items() if n != 0}


# --- Hamiltonians as {harmonic: matrix} ----------------------------------------


def test_shape_mismatch_is_rejected():
    """Every matrix must live on one atom (x) mode space of dimension 2(N+1)."""
    with pytest.raises(ValueError, match="do not match"):
        rotate_frame({0: np.eye(4), 1: np.eye(6)}, 1.0)
    with pytest.raises(ValueError, match="do not match"):
        rotate_frame({0: np.eye(3)}, 1.0)
    with pytest.raises(ValueError, match="do not match"):
        second_order_average({1: np.eye(6), -1: np.eye(8)}, 1.0)
    _, model = working_point()
    with pytest.raises(ValueError, match="do not match"):
        compare_to_target({0: np.ones((6, 4))}, model)


def test_a_bare_atom_rotates_as_a_two_by_two_hamiltonian():
    """N = 0 is a 2x2 atom space with no mode: the drive splits into its
    co- and counter-rotating halves, and the static detuning stays put."""
    w0, wl, rabi = 5.0, 7.0, 0.5
    drive = 0.5 * rabi * (SP + SM)
    rot = rotate_frame({-1: drive, 0: w0 * SZ, 1: drive}, wl)
    assert rot.keys() == {-2, 0, 2}
    assert np.array_equal(rot[-2], 0.5 * rabi * SM)
    assert np.array_equal(rot[0], (w0 - wl) * SZ + drive)
    assert np.array_equal(rot[2], 0.5 * rabi * SP)


def test_the_mode_frequency_reaches_no_coefficient():
    """The mode energy is diagonal, so it stays in the static harmonic, which
    the average drops: the oscillating part is the same at any mode frequency."""
    params, model = working_point()
    at_laser = oscillating(params, 3, params.omegaL, 1e9)
    for mode_freq in (0.0, model.pair_freq, params.omega0, 1e20):
        other = oscillating(params, 3, mode_freq, 1e9)
        assert other.keys() == at_laser.keys()
        assert all(np.array_equal(other[n], at_laser[n]) for n in other)


def test_hermiticity_defect():
    m = np.kron(SP, np.eye(3))
    assert hermiticity_defect({1: m, -1: dagger(m)}) == 0.0
    assert hermiticity_defect({1: m}) == 1.0  # partner at -1 missing
    assert hermiticity_defect({0: 2.5j * np.eye(6)}) == 5.0


def test_lab_hamiltonian_structure():
    params, model = working_point()
    lab = build_lab_hamiltonian(params, 3, model.pair_freq, 1e9)
    assert {m.shape for m in lab.values()} == {(8, 8)}
    assert hermiticity_defect(lab) == 0.0
    assert sorted(lab) == [-1, 0, 1]
    # cos(w_L t) drive splits evenly between the +-1 harmonics
    assert np.array_equal(lab[+1], dagger(lab[-1]))


def test_lab_hamiltonian_does_not_share_cached_operators():
    """The operators behind a build are cached per truncation; a caller that
    edits the returned matrices must not change the next build."""
    params, model = working_point()
    first = build_lab_hamiltonian(params, 3, model.pair_freq, 1e9)
    expected = {n: m.copy() for n, m in first.items()}
    first[0] += 1.0
    first[1] += 1.0
    assert np.array_equal(first[-1], expected[-1])  # the +-1 drives are separate arrays
    again = build_lab_hamiltonian(params, 3, model.pair_freq, 1e9)
    assert all(np.array_equal(again[n], expected[n]) for n in expected)


def test_lab_hamiltonian_truncation_guard():
    """N is an integer in 2..64: a float, a string or a bool is no mode count
    and is refused by name, and a numpy integer is one."""
    params, model = working_point()
    for n in (1, 65, 3.0, 3.5, "3", True):
        with pytest.raises(ValueError, match=f"^mode truncation must be >= 2 and <= 64, got {n}$"):
            build_lab_hamiltonian(params, n, model.pair_freq, 1e9)
    assert build_lab_hamiltonian(params, 64, model.pair_freq, 1e9)[0].shape == (130, 130)
    assert verify_derivation(params, model, n_trunc=np.int64(3)).all_within(1e-8)


def test_rotated_frame_harmonics():
    """Rotation by w_L(n + S_z) sorts the pieces by net excitation change:
    the dipole drive lands on {0, +-2}, the asymmetry drive stays at +-1, and
    the non-rotating-wave coupling spreads over {-2, 0, +2}."""
    params, model = working_point()
    lab = build_lab_hamiltonian(params, 3, model.pair_freq, 1e9)
    rot = rotate_frame(lab, params.omegaL)
    assert sorted(rot) == [-2, -1, 0, 1, 2]
    assert hermiticity_defect(rot) < 1e-9  # exact amplitudes, only reshuffled
    # the static part carries the laser detuning of the transition
    pattern = np.kron(SZ, np.eye(4))
    coeff = np.trace(dagger(pattern) @ rot[0]) / np.trace(dagger(pattern) @ pattern)
    assert coeff == pytest.approx(params.omega0 - params.omegaL, rel=1e-14)


# --- second-order average ------------------------------------------------------


def test_average_rejects_static_input():
    params, model = working_point()
    lab = build_lab_hamiltonian(params, 2, model.pair_freq, 1e9)
    with pytest.raises(ValueError, match="secular"):
        second_order_average(rotate_frame(lab, params.omegaL), params.omegaL)


def test_average_of_nothing_is_empty():
    assert second_order_average({}, 5e15) == {}
    assert second_order_average({}, 5e15, keep_max_harmonic=10**6) == {}


def test_average_is_hermitian():
    params, model = working_point()
    avg = second_order_average(oscillating(params, 3, model.pair_freq, 1e9), params.omegaL)
    # each harmonic n is 0.5 (P_n + P_{-n}^dag) and its partner the same sum
    # conjugated, so the defect vanishes exactly
    assert hermiticity_defect(avg) == 0.0


def test_average_bookkeeping_is_lossless():
    """The kept harmonics are the unrestricted average's |n| <= 1 harmonics,
    bit for bit; the rest, up to the second-order reach of +-4, are dropped."""
    params, model = working_point()
    osc = oscillating(params, 3, model.pair_freq, 1e9)
    kept = second_order_average(osc, params.omegaL)
    full = second_order_average(osc, params.omegaL, keep_max_harmonic=10**6)
    assert sorted(kept) == [-1, 0, 1]
    assert sorted(full) == [-4, -3, -2, -1, 0, 1, 2, 3, 4]
    for n in kept:
        assert np.array_equal(kept[n], full[n])


# --- coefficient extraction -----------------------------------------------------


def test_verify_derivation_matches_closed_forms():
    params, model = working_point()
    report = verify_derivation(params, model, n_trunc=3)
    assert isinstance(report, HeffReport)
    assert [c.name for c in report.checks] == [
        "bloch_siegert", "pair_creation", "mode_displacement",
    ]
    assert report.all_within(1e-10)
    bs = next(c for c in report.checks if c.name == "bloch_siegert")
    assert bs.target == pytest.approx(model.bs_shift, rel=1e-14)
    pair = next(c for c in report.checks if c.name == "pair_creation")
    assert pair.target == pytest.approx(-1j * 3 * params.g_asym * 1e9 / (8 * params.omegaL))


@pytest.mark.parametrize("field, check", [
    ("bs_shift", "bloch_siegert"),
    ("c_pump", "pair_creation"),
    ("c_cross", "mode_displacement"),
])
def test_a_wrong_model_coefficient_fails_its_own_check(field, check):
    """The targets are the model's own coefficients, the numbers the dynamics
    uses: a model with one of them 5% off fails that check and no other."""
    params, model = working_point()
    wrong = dataclasses.replace(model, **{field: 1.05 * getattr(model, field)})
    report = verify_derivation(params, wrong, n_trunc=3)
    assert not report.all_within(1e-8)
    assert [c.name for c in report.checks if c.deviation > 1e-8] == [check]


def test_derivation_stable_across_truncations():
    """Only single-photon processes contribute, so N = 2, 3, 4 agree."""
    params, model = working_point()
    devs = [max(c.deviation for c in verify_derivation(params, model, n_trunc=n).checks)
            for n in (2, 3, 4)]
    assert all(d < 1e-10 for d in devs)
    assert max(devs) - min(devs) < 1e-12


@pytest.mark.parametrize("rabi", [1e12, 1e13])
def test_level_shift_keeps_full_precision_under_strong_asymmetry(rabi):
    """At dipole ratio 100 the asymmetry drive G S_z is ~100x the Rabi term;
    its square enters the static harmonic twice with opposite signs.  Summed
    as one commutator it cancels exactly instead of rounding away digits of
    the much smaller Omega^2/(4 w_L) shift."""
    params = with_rabi(preset("gamma-globulin"), rabi)
    model = from_physical(params)
    for n in (2, 3, 4, 8):
        report = verify_derivation(params, model, n_trunc=n)
        assert report.checks[0].name == "bloch_siegert"
        assert report.checks[0].deviation < 1e-15


def test_no_asymmetry_means_no_pair_term():
    params = PhysicalParams(omega0=5e15, omegaL=5.01e15, rabi=1e13, dipole_ratio=0.0)
    report = verify_derivation(params, from_physical(params), n_trunc=2)
    pair = next(c for c in report.checks if c.name == "pair_creation")
    assert pair.target == 0
    assert pair.measured == 0
    assert pair.deviation == 0.0
    assert report.all_within(1e-10)


def test_unexpected_pair_term_is_flagged():
    """Comparing a with-asymmetry average against a no-asymmetry model: the
    pair coefficient is present but its target is zero."""
    params, _ = working_point()
    sym = PhysicalParams(omega0=5e15, omegaL=5.01e15, rabi=1e13, dipole_ratio=0.0)
    model_sym = from_physical(sym)
    osc = oscillating(params, 2, model_sym.pair_freq, 1e9)
    report = compare_to_target(second_order_average(osc, params.omegaL), model_sym)
    pair = next(c for c in report.checks if c.name == "pair_creation")
    assert pair.deviation == float("inf")
    assert pair.note == "expected exactly zero"


def test_missing_pair_pattern_is_flagged():
    """A drive-only average lacks the pair operator entirely; against a model
    that expects one, the check reports the pattern as missing."""
    params, model = working_point()
    osc = oscillating(params, 2, model.pair_freq, 0.0)
    report = compare_to_target(second_order_average(osc, params.omegaL), model)
    pair = next(c for c in report.checks if c.name == "pair_creation")
    assert pair.measured == 0
    assert pair.deviation == 1.0
    assert pair.note == "operator pattern missing from the averaged Hamiltonian"


@pytest.mark.parametrize("name", ["gamma-globulin", "gan-dot"])
def test_zero_drive_reads_every_coefficient_as_zero(name):
    """Undriven, the drive-only average has no harmonic at all.  An absent
    harmonic reads as zero coefficients, every target is zero too, and the
    check passes at each truncation."""
    params = preset(name)
    assert params.rabi == 0.0
    model = from_physical(params)
    assert compare_to_target({}, model).all_within(0.0)
    for n in (2, 3, 8):
        report = verify_derivation(params, model, n_trunc=n)
        assert [(c.measured, c.target, c.deviation) for c in report.checks] == [(0j, 0j, 0.0)] * 3


def test_verify_heff_does_not_load_numpy_ma(child_env):
    """np.unique imports numpy.ma on its first call, a tenth of a cold
    verify-heff run; the harmonic bookkeeping does without it."""
    code = (
        "import sys\n"
        "from thzpair import cli\n"
        "assert cli.main(['verify-heff', '--preset', 'gamma-globulin', '--rabi', '1e12']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_bench_scores_heff_at_the_package_coupling(bench_workloads):
    """The benchmark restates the field coupling verify_derivation fixes, to
    build the closed forms it scores heff against; the two must agree, or
    heff's accuracy is measured against the wrong targets."""
    assert bench_workloads.Heff.COUPLING == heff._COUPLING
