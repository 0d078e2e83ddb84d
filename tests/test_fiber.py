import numpy as np
import pytest

import bandlab as bl
from conftest import basis_at

TWO_PI = 2.0 * np.pi
PI2_TWICE = 19.739208802178717238   # 2 pi^2


def test_free_electron_matrix(lat1d, zero):
    fib = bl.assemble(lat1d, zero, [0.0], 25.0, bl.kdependent_scheme())
    assert fib.basis == [(0,), (-1,), (1,)]
    assert np.allclose(np.diag(fib.entries), [0.0, PI2_TWICE, PI2_TWICE], rtol=1e-15)
    assert np.array_equal(fib.entries, np.diag(np.diag(fib.entries)))


def test_cosine_convolution_indexing(lat1d, cosine):
    fib = bl.assemble(lat1d, cosine, [0.0], 25.0, bl.kdependent_scheme())
    H = fib.entries
    # stored shell +-1 couples g=0 with g=+-1; the (+1,-1) pair needs +-2
    assert H[0, 1] == 1.0 and H[0, 2] == 1.0
    assert H[1, 2] == 0.0
    assert H[1, 1] == pytest.approx(PI2_TWICE, rel=1e-15)


def test_hermitian_bit_exact(hex2d):
    V = bl.synth_power_law(hex2d, t=2.2, gmax=3, seed=5)
    fib = bl.assemble(hex2d, V, [0.21, -0.4], 60.0, bl.kdependent_scheme())
    assert np.array_equal(fib.entries, fib.entries.conj().T)
    assert np.all(np.diag(fib.entries).imag == 0.0)


def test_modified_equals_kdependent_in_quadratic_region(lat1d, zero, blowup_std):
    """With every |k+G| below half the cutoff radius the blow-up acts as
    x^2 and the modified matrix is the k-dependent one, bit for bit."""
    k, ec = [0.11], 1000.0
    basis = basis_at(lat1d, k, ec)
    kin = bl.kinetic_values(lat1d, k, basis)
    inner = kin <= ec / 4.0
    a = bl.assemble(lat1d, zero, k, ec, bl.kdependent_scheme())
    b = bl.assemble(lat1d, zero, k, ec, bl.modified_scheme(blowup_std))
    assert np.array_equal(np.diag(a.entries)[inner], np.diag(b.entries)[inner])
    assert np.all(np.diag(b.entries) >= np.diag(a.entries))


def test_modified_diagonal_dominates(lat1d, cosine, blowup_std):
    for k in (0.0, 0.35, -1.2, 3.0):
        a = bl.assemble(lat1d, cosine, [k], 100.0, bl.kdependent_scheme())
        b = bl.assemble(lat1d, cosine, [k], 100.0, bl.modified_scheme(blowup_std))
        assert np.all(np.diag(b.entries).real >= np.diag(a.entries).real - 1e-15)
        # off-diagonal part is the shared potential
        off = ~np.eye(len(a), dtype=bool)
        assert np.array_equal(a.entries[off], b.entries[off])


def test_kdependent_unitary_equivalence(lat1d, cosine):
    for k in (0.0, 0.35, 2.2):
        e0 = bl.eigh(bl.assemble(lat1d, cosine, [k], 25.0, bl.kdependent_scheme())).values
        e1 = bl.eigh(bl.assemble(lat1d, cosine, [k + TWO_PI], 25.0,
                                 bl.kdependent_scheme())).values
        assert np.allclose(e0, e1, rtol=0, atol=1e-10)


def test_uniform_scheme_not_periodic(lat1d, cosine):
    # the uniform basis does not relabel under k -> k + G, so bands shift
    e0 = bl.eigh(bl.assemble(lat1d, cosine, [3.0], 25.0, bl.uniform_scheme())).values
    e1 = bl.eigh(bl.assemble(lat1d, cosine, [3.0 + TWO_PI], 25.0, bl.uniform_scheme())).values
    assert abs(e0[0] - e1[0]) > 1e-3


def test_dimension_matches_basis(lat1d, cosine):
    for k, ec in ((0.0, 25.0), (0.7, 100.0), (np.pi, 25.0)):
        fib = bl.assemble(lat1d, cosine, [k], ec, bl.kdependent_scheme())
        assert len(fib) == len(basis_at(lat1d, [k], ec))


def test_empty_basis_propagates(lat1d, cosine):
    with pytest.raises(bl.EmptyBasis):
        bl.assemble(lat1d, cosine, [np.pi], 1e-9, bl.kdependent_scheme())


def test_projection_identity_zero_potential(lat1d, zero):
    assert bl.project_modified_identity_check(lat1d, zero, [0.3], 25.0) == 0.0


def test_projection_identity_cosine(lat1d, cosine):
    # the inner block of the 4Ec modified matrix IS the Ec matrix
    dev = bl.project_modified_identity_check(lat1d, cosine, [0.3], 25.0)
    scale = np.abs(bl.assemble(lat1d, cosine, [0.3], 25.0,
                               bl.kdependent_scheme()).entries).max()
    assert dev <= 1e-13 * scale


def test_scheme_tags(blowup_std):
    assert bl.uniform_scheme().tag == "uniform"
    assert bl.kdependent_scheme().tag == "kdependent"
    mod = bl.modified_scheme(blowup_std)
    assert mod.tag == "modified" and mod.blowup is blowup_std
