"""Operator algebra: su(2) relations, basis orthonormality, decomposition."""

import warnings

import numpy as np

import thzpair
from thzpair import algebra
from thzpair.algebra import (
    HS_BASIS,
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
from thzpair.dynamics import _adjoint_image, _weights, build_adjoint_generator
from thzpair.model import from_physical, preset, with_rabi


def test_the_operators_are_imported_from_algebra_only():
    """The package's top level re-exports none of algebra's numpy objects."""
    for name in ("HS_BASIS", "ID", "SM", "SP", "SZ", "commutator", "dagger", "expectation"):
        assert hasattr(algebra, name)
        assert not hasattr(thzpair, name) and name not in thzpair.__all__


def test_su2_relations_exact():
    assert np.array_equal(commutator(SP, SM), 2.0 * SZ)
    assert np.array_equal(commutator(SZ, SP), SP)
    assert np.array_equal(commutator(SZ, SM), -SM)
    assert np.array_equal(commutator(SP, SP), np.zeros((2, 2)))
    # nilpotency and the population projectors
    assert np.array_equal(SP @ SP, np.zeros((2, 2)))
    assert np.array_equal(SM @ SM, np.zeros((2, 2)))
    assert np.array_equal(SP @ SM, PROJ_EXCITED)
    assert np.array_equal(SM @ SP, PROJ_GROUND)
    assert np.array_equal(dagger(SP), SM)


def test_basis_ordering_contract():
    # |1> = index 0, |2> = index 1; S+ raises |1> -> |2>
    ket1 = np.array([1.0, 0.0])
    assert np.array_equal(SP @ ket1, np.array([0.0, 1.0]))
    assert SZ[0, 0] == -0.5 and SZ[1, 1] == 0.5


def test_hs_orthonormality():
    for i, a in enumerate(HS_BASIS):
        for j, b in enumerate(HS_BASIS):
            ip = np.trace(dagger(a) @ b)
            assert abs(ip - (1.0 if i == j else 0.0)) < 1e-15


def test_decompose_examples():
    np.testing.assert_allclose(
        hs_decompose(SZ), [0, 0, 0, 1 / np.sqrt(2)], atol=1e-15
    )
    np.testing.assert_allclose(
        hs_decompose(ID), [np.sqrt(2), 0, 0, 0], atol=1e-15
    )
    np.testing.assert_allclose(
        hs_decompose(PROJ_EXCITED),
        [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)],
        atol=1e-15,
    )


def test_roundtrip_random_matrices():
    rng = np.random.default_rng(42)
    for _ in range(200):
        m = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        back = hs_reconstruct(hs_decompose(m))
        assert np.max(np.abs(back - m)) < 1e-14


def test_expectation_examples():
    assert expectation(SZ, PROJ_GROUND) == -0.5
    assert expectation(SP @ SM, PROJ_EXCITED) == 1.0
    rho = 0.5 * ID
    assert abs(expectation(ID, rho) - 1.0) < 1e-15


def test_expectation_linearity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        q1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a, b = complex(rng.standard_normal(), rng.standard_normal()), 1.7
        lhs = expectation(a * q1 + b * q2, rho)
        rhs = a * expectation(q1, rho) + b * expectation(q2, rho)
        assert abs(lhs - rhs) < 1e-12


def test_basis_is_read_only():
    assert HS_BASIS.shape == (4, 2, 2)
    assert not HS_BASIS.flags.writeable
    for e in HS_BASIS:
        assert not e.flags.writeable


def decompose_one(m):
    """Tr(e_k^dag m) for one 2x2 operator, element by element."""
    return np.array([np.trace(e.conj().T @ m) for e in HS_BASIS])


def test_decompose_of_a_stack_is_the_per_operator_decomposition_bit_for_bit():
    rng = np.random.default_rng(20)
    for _ in range(50):
        stack = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        got = hs_decompose(stack)
        assert got.shape == (4, 4)
        want = np.column_stack([decompose_one(m) for m in stack])
        assert np.array_equal(got, want)
        assert np.array_equal(dagger(stack), np.array([m.conj().T for m in stack]))


def test_reconstruct_equals_the_accumulation_loop_bit_for_bit():
    def loop(coeffs):
        out = np.zeros_like(HS_BASIS[0])
        for c, e in zip(coeffs, HS_BASIS):
            out = out + c * e
        return out

    rng = np.random.default_rng(21)
    for _ in range(500):
        real = rng.standard_normal(4) * 10.0 ** rng.uniform(-12, 12, 4)
        cplx = real + 1j * rng.standard_normal(4) * 10.0 ** rng.uniform(-12, 12, 4)
        for coeffs in (real, list(real), cplx):
            assert np.array_equal(hs_reconstruct(coeffs), loop(coeffs))


def test_generator_equals_the_per_image_column_stack_bit_for_bit():
    """One hs_decompose over the stacked images gives the matrix that
    decomposing each image and stacking the columns gives, and
    _adjoint_image maps the stack of basis elements as it maps each alone."""
    for name, rabi_max in (("gamma-globulin", 4.9e13), ("gan-dot", 1e15)):
        for rabi in np.logspace(11.0, np.log10(rabi_max), 50):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # strong drive, closed pair channel
                m = from_physical(with_rabi(preset(name), float(rabi)))
            h0 = m.delta_eff * SZ + 0.5 * m.omega_rabi * (SP + SM)
            each = np.array([_adjoint_image(q, h0, _weights(m)) for q in HS_BASIS])
            cols = [decompose_one(image) for image in each]
            assert np.array_equal(build_adjoint_generator(m).matrix, np.column_stack(cols).real)
            assert np.array_equal(_adjoint_image(HS_BASIS, h0, _weights(m)), each)
