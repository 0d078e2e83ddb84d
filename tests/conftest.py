import numpy as np
import pytest

import bandlab as bl
from bandlab import spectra
from bandlab.lattice import _bases

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # CI runs with --hypothesis-profile=ci: the same examples on every run,
    # and a failure prints the blob that reproduces it; local runs stay random
    settings.register_profile("ci", derandomize=True, print_blob=True)


def basis_at(lat, k, Ec, mode="kdependent"):
    """The basis at one k (k = 0 for None) as a list of G-index tuples, in
    basis order: the one basis pass of compute_bands on that k alone.
    Raises EmptyBasis when no plane wave clears the cutoff."""
    k = np.zeros(lat.dim) if k is None else np.asarray(k, dtype=float)
    box, rows, sizes, _ = _bases(lat, Ec, k.reshape(1, lat.dim), mode)
    if not sizes[0]:
        raise bl.EmptyBasis(f"no plane wave below Ec={Ec:g} at k={k}")
    return list(map(tuple, box[rows].tolist()))


@pytest.fixture(scope="session")
def lat1d():
    return bl.new_lattice([[1.0]])


@pytest.fixture(scope="session")
def zero(lat1d):
    return bl.potential_from_coeffs(lat1d, [])


@pytest.fixture(scope="session")
def cosine(lat1d):
    # V(x) = 2 cos(2 pi x): the single-shell toy potential
    return bl.potential_from_coeffs(lat1d, [((1,), 1.0), ((-1,), 1.0)])


@pytest.fixture(scope="session")
def blowup_std():
    # m=1, p=3/2 tail, the workhorse modification used throughout
    return bl.build_blowup(bl.BlowupSpec(m=1, p=1.5, C=1.0))


@pytest.fixture(scope="session")
def hex2d():
    return bl.new_lattice(np.array([[1.0, -0.5], [0.0, np.sqrt(3.0) / 2.0]]))


@pytest.fixture
def block_calls(monkeypatch):
    """The outcome of every block-solver attempt, in call order: True when
    the block path served the member, False when it went to the dense route."""
    calls = []
    solve = spectra._eigh_block

    def recorded(*args, **kwargs):
        result = solve(*args, **kwargs)
        calls.append(result is not None)
        return result

    monkeypatch.setattr(spectra, "_eigh_block", recorded)
    return calls
