"""The block eigensolver behind spectra.eigh for large fibers with few bands,
and the stacked Schur route for graded matrices.

The block solver is checked against LAPACK on random Hermitian matrices
(kinetic-like, graded and exactly degenerate) and on matrices that split
into decoupled blocks, among them random sublattice potentials on +-k
pairs, against the exact Schur-complement solve on graded fibers and the
dense route on strong axis potentials, for the confirming product its
drift bound asks for, for the columns it multiplies by H, through its
dense fallback, and for thread independence; its time-reversal warm start
on +-k pairs is checked for its product count, its bounds and the
bit-identity of every member it does not touch.  The Schur route is checked against the per-band fixed-point loop it replaced,
kept below as the oracle, on random graded stacks.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bandlab as bl
from bandlab import spectra

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

SRC = Path(__file__).resolve().parents[1] / "src"
EPS = np.finfo(float).eps
HEX = np.array([[1.0, -0.5], [0.0, np.sqrt(3.0) / 2.0]])


def kinetic_like(rng, m, amplitude):
    """Spread diagonal plus a random Hermitian coupling of spectral norm ~ 2 amplitude."""
    G = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    H = amplitude * (G + G.conj().T) / (2.0 * np.sqrt(2.0 * m))
    H[np.diag_indices(m)] = 40.0 * rng.uniform(0.0, 1.0, m) ** (2.0 / 3.0)
    return H


@st.composite
def block_matrices(draw):
    """(H, take) with the order of H at or above the block crossover."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["kinetic", "graded", "degenerate"]))
    amplitude = draw(st.floats(0.05, 2.0))
    take = draw(st.integers(1, 8))
    if kind == "degenerate":
        # r identical copies, interleaved: every eigenvalue exactly r-fold
        r = draw(st.sampled_from([2, 3, 6]))
        A = kinetic_like(rng, -(-spectra._BLOCK_MIN_ORDER // r) + draw(st.integers(0, 20)),
                         amplitude)
        H = np.kron(np.eye(r), A)
        perm = rng.permutation(H.shape[0])
        return H[np.ix_(perm, perm)], take
    H = kinetic_like(rng, draw(st.integers(spectra._BLOCK_MIN_ORDER, 280)), amplitude)
    if kind == "graded":
        # blown-up entries on the top part of the diagonal, up to 1e6 times the rest
        d = np.real(H.diagonal())
        top = d > np.quantile(d, draw(st.floats(0.5, 0.95)))
        H[np.diag_indices(len(d))] = np.where(
            top, d * 10.0 ** draw(st.floats(1.0, 6.0)), d)
    return H, take


@settings(max_examples=60, deadline=None)
@given(block_matrices())
def test_block_path_matches_lapack(case):
    H, take = case
    n = H.shape[0]
    assert n >= spectra._BLOCK_MIN_ORDER
    assert take + spectra._BLOCK_GUARD <= n // spectra._BLOCK_MIN_RATIO
    block = spectra._eigh_block(H, take)
    assert block is not None, "block solver hit its iteration cap"
    values, bound, final = block
    dense = np.linalg.eigvalsh(H)[:take]
    # LAPACK itself is only accurate to a few eps * ||H||
    tol = 1e-9 * (1.0 + np.abs(dense)) + 64 * EPS * np.max(np.abs(H))
    assert np.all(np.abs(values - dense) <= tol)
    # the final block, a -k partner's warm start, is orthonormal: a stop
    # stands only while ||X^H X - I|| <= 1e-12
    nb = take + spectra._BLOCK_GUARD
    assert final.shape == (n, nb)
    assert np.max(np.abs(final.conj().T @ final - np.eye(nb))) <= 1e-12
    sol = bl.eigh(H, n_lowest=take)   # eigh takes the block path here
    assert np.array_equal(sol.values, values) and sol.bounds == bound


@settings(max_examples=60, deadline=None)
@given(block_matrices())
def test_values_only_block_solve_is_within_its_bound(case):
    """The block path may stop on the quadratic bound ||R||_F^2 / eta; the
    bound it reports must hold against LAPACK."""
    H, take = case
    block = spectra._eigh_block(H, take)
    assert block is not None, "block solver hit its iteration cap"
    values, bound, _ = block
    # either stop rule, plus the Rayleigh-Ritz rounding term (below 1e-12 here)
    assert bound <= 1e-10 * (1.0 + np.max(np.abs(values))) + 1e-12
    sol = bl.eigh(H, n_lowest=take)   # eigh takes the block path here
    assert sol.values.tobytes() == values.tobytes() and sol.bounds == bound
    spectrum = np.linalg.eigvalsh(H)
    # LAPACK itself is only accurate to a few eps * ||H||
    lapack = 64 * EPS * np.max(np.abs(spectrum))
    assert np.all(np.abs(values - spectrum[:take]) <= bound + lapack)


def cubic_potential(lat):
    """Real coefficients with the full cubic symmetry: 2-, 3- and 6-fold
    degenerate levels at the zone center."""
    coeffs = []
    for i in range(3):
        for s in (1, -1):
            coeffs += [(tuple(s * np.eye(3, dtype=int)[i]), -1.0),
                       (tuple(2 * s * np.eye(3, dtype=int)[i]), 0.3)]
            for j in range(i + 1, 3):
                for t in (1, -1):
                    coeffs.append((tuple(s * np.eye(3, dtype=int)[i] + t * np.eye(3, dtype=int)[j]),
                                   0.5))
    return bl.potential_from_coeffs(lat, coeffs)


@pytest.mark.parametrize("frac", [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.5, 0.5, 0.0],
                                  [0.5, 0.5, 0.5]])
def test_block_path_on_degenerate_clusters(frac, block_calls):
    lat = bl.new_lattice(np.eye(3))
    H = bl.assemble(lat, cubic_potential(lat), lat.reciprocal @ np.array(frac), 400.0,
                    bl.kdependent_scheme()).entries
    dense = np.linalg.eigvalsh(H)
    assert np.min(np.diff(dense[:8])) <= 1e-9  # a degenerate level among the lowest 8
    for take in range(1, 8):
        sol = bl.eigh(H, n_lowest=take)
        assert block_calls[-1], f"n_lowest={take} left the block path"
        assert np.max(np.abs(sol.values - dense[:take])) <= 1e-10


def test_ritz_bound_reads_the_gap_from_the_guard_column():
    theta = np.array([0.0, 1.0, 1.5, 4.0])
    rounding = spectra._LAPACK_ROUNDING * EPS * 4.0
    # a clear gap: eta = 1.5 - 0.1 - 1.0, and beta is below the residuals
    norms = np.array([1e-4, 2e-4, 0.1, 0.3])
    assert spectra._ritz_bound(theta, norms, 2) == pytest.approx(5e-8 / 0.4 + rounding,
                                                                 rel=1e-12)
    # a slack (drifted H @ X) adds to the quadratic bound and comes off the gap
    assert spectra._ritz_bound(theta, norms, 2, 1e-6) == pytest.approx(
        5e-8 / (0.4 - 1e-6) + 1e-6 + rounding, rel=1e-12)
    # the guard residual closes the gap: no quadratic bound, only the residual
    norms[2] = 0.6
    assert spectra._ritz_bound(theta, norms, 2) == 2e-4 + rounding
    # n_lowest inside a degenerate multiplet
    theta[2] = 1.0
    norms[2] = 1e-12
    assert spectra._ritz_bound(theta, norms, 2) == 2e-4 + rounding


def test_values_only_stop_needs_a_gap(block_calls):
    """At the zone center the cubic potential has 2-, 3- and 6-fold levels.
    With n_lowest inside a multiplet, the first guard column belongs to the
    multiplet too, so the gap estimate eta is not positive and the quadratic
    bound is infinite: the solve must stop on the residual rule, which its
    final block meets, and report the residual bound max ||r_i||."""
    lat = bl.new_lattice(np.eye(3))
    H = bl.assemble(lat, cubic_potential(lat), np.zeros(3), 400.0,
                    bl.kdependent_scheme()).entries
    dense = np.linalg.eigvalsh(H)
    inside = [take for take in range(1, 8) if dense[take] - dense[take - 1] <= 1e-9]
    assert inside  # n_lowest cuts a multiplet
    for take in inside:
        values, bound, final = spectra._eigh_block(H, take)
        theta = np.r_[values, np.real(np.sum(final.conj() * (H @ final), axis=0))[take:]]
        norms = np.linalg.norm(H @ final - final * theta, axis=0)
        assert theta[take] - norms[take] - theta[take - 1] <= 0.0  # no gap: beta is inf
        assert np.max(norms[:take] / (1.0 + np.abs(values))) <= 1e-10  # the residual rule
        assert bound >= np.max(norms[:take])
        assert np.max(np.abs(values - dense[:take])) <= 1e-10
        assert bound <= 1e-10 * (1.0 + np.max(np.abs(values))) + 1e-12
        sol = bl.eigh(H, n_lowest=take)
        assert block_calls[-1] and sol.values.tobytes() == values.tobytes()


def test_block_path_finds_a_block_with_higher_diagonal(block_calls):
    """H = A (+) B, interleaved: the diagonal of B lies above the smallest
    entries of A, but B's coupling puts its lowest eigenvalues below A's.
    H keeps both blocks invariant, so a start inside A alone never finds them."""
    rng = np.random.default_rng(5)
    A = kinetic_like(rng, 180, 0.05)
    B = kinetic_like(rng, 60, 20.0)
    B[np.diag_indices(60)] = 20.0 + np.linspace(0.0, 1.0, 60)
    take = 4
    nb = take + spectra._BLOCK_GUARD
    assert np.sort(np.real(A.diagonal()))[nb] < np.min(np.real(B.diagonal()))
    assert np.linalg.eigvalsh(B)[take - 1] < np.linalg.eigvalsh(A)[0]
    H = np.zeros((240, 240), dtype=complex)
    H[:180, :180], H[180:, 180:] = A, B
    perm = rng.permutation(240)
    H = H[np.ix_(perm, perm)]
    sol = bl.eigh(H, n_lowest=take)
    assert block_calls == [True] and sol.bounds <= 1e-10
    assert np.max(np.abs(sol.values - np.linalg.eigvalsh(H)[:take])) <= 1e-10


def count_products(monkeypatch, columns=None):
    """Every table product, as (fiber, member), in call order; each
    product's column count X.shape[1] goes to the list `columns` when given."""
    calls = []
    apply = bl.FiberMatrix.apply

    def counted(self, X, member=0):
        calls.append((self, member))
        if columns is not None:
            columns.append(X.shape[1])
        return apply(self, X, member)

    monkeypatch.setattr(bl.FiberMatrix, "apply", counted)
    return calls


@pytest.mark.parametrize("frac", [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
def test_block_path_on_potential_on_a_sublattice(frac, monkeypatch, block_calls):
    """V on 2Z^3 couples G only to G + 2Z^3: H splits into 8 decoupled cosets,
    and the lowest bands come from several of them.  On the +-k pair the
    time-reversed start of -k must keep every coset too."""
    lat = bl.new_lattice(np.eye(3))
    V = bl.potential_from_coeffs(lat, [(tuple(2 * s * np.eye(3, dtype=int)[i]), -40.0)
                                       for i in range(3) for s in (1, -1)])
    k = lat.reciprocal @ np.array(frac)
    H = bl.assemble(lat, V, k, 400.0, bl.kdependent_scheme()).entries
    sol = bl.eigh(H, n_lowest=8)
    assert block_calls == [True] and sol.bounds <= 1e-10
    assert np.max(np.abs(sol.values - np.linalg.eigvalsh(H)[:8])) <= 1e-10
    products = count_products(monkeypatch)
    pair = bl.eigh(bl.assemble(lat, V, np.stack([k, -k]), 400.0, bl.kdependent_scheme()),
                   n_lowest=8)
    assert block_calls == [True] * 3 and np.all(pair.bounds <= 1e-10)
    assert [member for _, member in products].count(1) <= 2  # warm-started
    for b, kb in enumerate((k, -k)):
        H = bl.assemble(lat, V, kb, 400.0, bl.kdependent_scheme()).entries
        assert np.max(np.abs(pair.values[b] - np.linalg.eigvalsh(H)[:8])) <= 1e-10


def test_block_path_iterates_the_whole_block_without_a_gap(block_calls):
    """V(+-2 e_1) = -26, V(+-e_2) = -1 and V(+-e_3) = +1 at k = 0 (M = 251):
    the third and fourth levels form a pair, so for n_lowest = 3 the first
    guard column shows no gap and only the residual rule can stop.  Its pace
    then rests on the whole block, so every column takes search directions;
    with only the first n_lowest + 1 iterating, the solve hits the
    iteration cap."""
    lat = bl.new_lattice(np.eye(3))
    e = np.eye(3, dtype=int)
    V = bl.potential_from_coeffs(lat, [(tuple(s * g), c) for g, c in
                                       ((2 * e[0], -26.0), (e[1], -1.0), (e[2], 1.0))
                                       for s in (1, -1)])
    H = bl.assemble(lat, V, np.zeros(3), 300.0, bl.kdependent_scheme()).entries
    dense = np.linalg.eigvalsh(H)
    assert dense[3] - dense[2] <= 1e-9
    sol = bl.eigh(H, n_lowest=3)
    assert block_calls == [True]
    lapack = 64 * EPS * np.max(np.abs(dense))
    assert np.all(np.abs(sol.values - dense[:3]) <= sol.bounds + lapack)


@st.composite
def sublattice_pairs(draw):
    """(lattice, V, k, scheme, take): V on 2Z^3 (8 uncoupled cosets of plane
    waves) or on 2Z x Z x Z (2 cosets), with random signs and amplitudes, and
    a random k whose fibers take the block path at Ec = 300."""
    lat = bl.new_lattice(np.eye(3))
    e = np.eye(3, dtype=int)
    shells = 2 * e if draw(st.booleans()) else [2 * e[0], e[1], e[2]]
    coeffs = []
    for g in shells:
        c = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.0, 40.0))
        coeffs += [(tuple(g), c), (tuple(-g), c)]
    frac = draw(st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3))
    scheme = draw(st.sampled_from([bl.kdependent_scheme(),
                                   bl.modified_scheme(bl.build_blowup(bl.BlowupSpec(m=1, p=1.5)))]))
    return (lat, bl.potential_from_coeffs(lat, coeffs), lat.reciprocal @ np.array(frac), scheme,
            draw(st.integers(1, 8)))


def modified_on_2z3(amplitudes, frac, take):
    """A sublattice_pairs case: V(+-2 e_i) = amplitudes[i], the modified
    scheme, k = frac in reciprocal coordinates."""
    lat = bl.new_lattice(np.eye(3))
    V = bl.potential_from_coeffs(lat, [(tuple(s * g), c) for g, c in
                                       zip(2 * np.eye(3, dtype=int), amplitudes) for s in (1, -1)])
    scheme = bl.modified_scheme(bl.build_blowup(bl.BlowupSpec(m=1, p=1.5)))
    return lat, V, lat.reciprocal @ np.array(frac), scheme, take


@settings(max_examples=30, deadline=None,
          suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@given(case=sublattice_pairs())
# a deep coset's column converges by a factor of about 0.8 per iteration,
# so the +k solve takes 56 iterations
@hypothesis.example(case=modified_on_2z3([-4.0, -38.5, -15.0], [0.0, 0.25, 0.0], 7))
def test_block_start_reaches_every_coset(case, block_calls):
    """The cold start of +k and the time-reversed start of -k must both reach
    every coset the potential leaves uncoupled: the lowest values of each
    member match the dense route within the two reported bounds, the dense
    one being its LAPACK rounding."""
    lat, V, k, scheme, take = case
    pair = bl.eigh(bl.assemble(lat, V, np.stack([k, -k]), 300.0, scheme), n_lowest=take)
    assert block_calls[-2:] == [True, True]
    for b, kb in enumerate((k, -k)):
        H = bl.assemble(lat, V, kb, 300.0, scheme).entries
        values, lapack = spectra._eigh_dense(H[None], take)
        assert np.all(np.abs(pair.values[b] - values[0]) <= pair.bounds[b] + lapack[0])


def test_block_path_reorthonormalizes_a_skewed_block():
    """A sublattice case whose lowest value is a degenerate pair: with a
    multithreaded BLAS the dense solve's block loses orthogonality to
    3e-10, which holds one column at residual 3.5e-10, above the 1e-10
    tolerance, unless the solver re-orthonormalizes on any skew above
    1e-12; with one BLAS thread it converges either way.  The block path
    must serve it, within its bound of the dense route."""
    lat, V, k, scheme, take = modified_on_2z3([-40.0, -1.0, -40.0],
                                              [-0.5, 0.25, 0.1178912993974981], 1)
    H = bl.assemble(lat, V, k, 300.0, scheme).entries
    block = spectra._eigh_block(H, take)
    assert block is not None
    values, lapack = spectra._eigh_dense(H[None], take)
    assert np.all(np.abs(block[0] - values[0]) <= block[1] + lapack[0])


def fixed_point_reference(H, steep, take):
    """The low eigenvalues of H by the per-band Schur fixed-point loop that
    spectra.eigh used before its stacked route: with H = [[A, B], [B*, D]]
    and D the diagonal entries `steep`, iterate lam -> eig_i(A - B (D-lam)^-1 B*)
    from 0 until a step is below 1e-15 (1 + |lam|), for each band i alone."""
    n = H.shape[0]
    mild = np.setdiff1d(np.arange(n), steep)
    A = H[np.ix_(mild, mild)]
    B = H[np.ix_(mild, steep)]
    D = np.real(np.diag(H))[steep]

    def reduced(lam):
        return A - (B / (D - lam)) @ B.conj().T

    values = np.empty(take)
    for i in range(take):
        lam = 0.0
        for _ in range(40):
            new = np.linalg.eigvalsh(reduced(lam))[i]
            if abs(new - lam) <= 1e-15 * (1.0 + abs(new)):
                lam = new
                break
            lam = new
        values[i] = lam
    return values


def schur_reference(H, take):
    """fixed_point_reference with every entry 1e3 above the off-diagonal scale split off."""
    d = np.real(H.diagonal())
    off = np.max(np.abs(H - np.diag(H.diagonal())))
    steep = np.nonzero(d > 1e3 * max(1.0, off))[0]
    assert steep.size and take <= len(d) - steep.size
    return fixed_point_reference(H, steep, take)


@st.composite
def graded_stacks(draw):
    """(stack, take): B members of order M, couplings of modulus 1/2 to 1, and
    `count` diagonal entries 10^8.05 to 10^14 above them.  A deep case has
    them below 10^9 and the mild diagonal shifted by -1e7 to -1e8, far
    enough that the one-shot Weyl bound fails and the fixed-point steps run."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B, M = draw(st.integers(1, 4)), draw(st.integers(3, 40))
    count = draw(st.integers(1, M - 1))
    deep = draw(st.booleans())
    ratio = 10.0 ** draw(st.floats(8.05, 9.0 if deep else 14.0))
    shift = -(10.0 ** draw(st.floats(7.0, 8.0))) if deep else 0.0
    stack = np.empty((B, M, M), dtype=complex)
    for b in range(B):
        H = np.triu(rng.uniform(0.5, 1.0, (M, M)) * np.exp(2j * np.pi * rng.uniform(size=(M, M))))
        H += H.conj().T
        H[np.diag_indices(M)] = shift + np.linspace(0.0, 30.0, M)
        steep = rng.permutation(M)[:count]
        H[steep, steep] = ratio * rng.uniform(1.0, 3.0, count)
        stack[b] = H
    return stack, draw(st.integers(1, min(8, M - count)))


@settings(max_examples=80, deadline=None)
@given(graded_stacks())
def test_schur_route_matches_fixed_point_oracle(case):
    stack, take = case
    mask = spectra._graded_mask(stack)[0]
    assert mask.any(axis=1).all()  # every member takes the Schur route
    sol = bl.eigh(stack, n_lowest=take)
    assert sol.bounds.shape == (len(stack),)
    for b, H in enumerate(stack):
        values = fixed_point_reference(H, np.flatnonzero(mask[b]), take)
        assert np.all(np.abs(sol.values[b] - values) <= sol.bounds[b])
        one = bl.eigh(H, n_lowest=take)
        assert one.bounds.shape == ()
        assert sol.values[b].tobytes() == one.values.tobytes()
        assert sol.bounds[b].tobytes() == one.bounds.tobytes()


def test_schur_bound_covers_rounding_on_small_deep_members():
    """Orders 3-8 with the mild diagonal near -1e7 to -1e8: the reduced
    solves then err by several eps ||S|| (up to 5.4 here), which the bound's
    rounding term must cover."""
    for seed in range(120):
        rng = np.random.default_rng(seed)
        M = 3 + seed % 6
        count = 1 + (seed // 6) % (M - 1)
        H = np.triu(rng.uniform(0.5, 1.0, (M, M)) * np.exp(2j * np.pi * rng.uniform(size=(M, M))))
        H += H.conj().T
        H[np.diag_indices(M)] = -(10.0 ** (7.0 + rng.uniform())) + np.linspace(0.0, 30.0, M)
        steep = rng.permutation(M)[:count]
        H[steep, steep] = 10.0 ** (8.05 + 0.9 * rng.uniform()) * rng.uniform(1.0, 3.0, count)
        mask = spectra._graded_mask(H[None])[0][0]
        assert np.count_nonzero(mask) == count  # the Schur route
        take = min(2, M - count)
        sol = bl.eigh(H, n_lowest=take)
        values = fixed_point_reference(H, np.flatnonzero(mask), take)
        assert np.all(np.abs(sol.values - values) <= sol.bounds), f"seed {seed}"


def test_schur_route_iterates_where_one_evaluation_is_not_enough():
    """80 steep entries just above the split, every entry coupled to every
    other at the off-diagonal scale, and the low eigenvalues near -1e6: the
    lowest eigenvector spreads evenly over the mild rows, so the fixed-point
    steps move it by about 6e-7, well above the rounding of the reduced
    solves, and the one-shot Weyl bound fails by far."""
    rng = np.random.default_rng(11)
    M, count, take = 160, 80, 4
    H = -np.ones((M, M))
    H[np.diag_indices(M)] = -1e6 + np.linspace(0.0, 30.0, M)
    steep = np.sort(rng.permutation(M)[:count])
    H[steep, steep] = 1.01e8 * rng.uniform(1.0, 1.1, count)
    assert np.array_equal(np.flatnonzero(spectra._graded_mask(H[None])[0][0]), steep)
    values = fixed_point_reference(H, steep, take)
    mild = np.setdiff1d(np.arange(M), steep)
    B = H[np.ix_(mild, steep)]
    D = np.real(H.diagonal())[steep]
    one_shot = np.linalg.eigvalsh(H[np.ix_(mild, mild)] - (B / D) @ B.conj().T)[:take]
    assert np.max(np.abs(one_shot - values)) > 1e-7  # one evaluation is not enough
    sol = bl.eigh(H, n_lowest=take)
    assert np.all(np.abs(sol.values - values) <= sol.bounds)
    assert sol.bounds <= 1e-8


def test_block_path_matches_schur_on_graded_fibers(block_calls):
    lat = bl.new_lattice(np.eye(3))
    V = bl.synth_power_law(lat, t=2.1, gmax=1, seed=1, amplitude=5.0)
    scheme = bl.modified_scheme(bl.build_blowup(bl.BlowupSpec(m=1, p=1.5)))
    for frac in ([0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.13, 0.27, 0.41]):
        H = bl.assemble(lat, V, lat.reciprocal @ np.array(frac), 400.0, scheme).entries
        assert len(H) >= spectra._BLOCK_MIN_ORDER
        assert np.max(np.real(H.diagonal())) > 1e5
        sol = bl.eigh(H, n_lowest=4)
        assert block_calls[-1] and sol.bounds <= 1e-10
        assert np.max(np.abs(sol.values - schur_reference(H, 4))) <= 1e-10


def test_block_solver_on_graded_matrix_below_the_split():
    """A grid2d fiber whose diagonal reaches 2e8 but which _graded_mask
    declines, so the dense path would solve it without a checked bound."""
    lat = bl.new_lattice(HEX)
    V = bl.synth_power_law(lat, t=2.1, gmax=6, seed=1)
    scheme = bl.modified_scheme(bl.build_blowup(bl.BlowupSpec(m=1, p=1.5)))
    k = bl.uniform_grid(lat, 12).points[131]
    H = bl.assemble(lat, V, k, 800.0, scheme).entries
    assert not spectra._graded_mask(H[None])[0].any()
    ref = schur_reference(H, 4)
    values, bound, _ = spectra._eigh_block(H, 4)
    assert bound <= 1e-10
    assert np.max(np.abs(values - ref)) <= 1e-10


def test_dense_bound_covers_the_error_below_the_split():
    """The grid2d seed-1 fiber at k index 131 goes to a plain dense eigvalsh
    below the split: its reported bound must cover the 1.5e-7 by which that
    solve misses the Schur reference."""
    lat = bl.new_lattice(HEX)
    V = bl.synth_power_law(lat, t=2.1, gmax=6, seed=1)
    scheme = bl.modified_scheme(bl.build_blowup(bl.BlowupSpec(m=1, p=1.5)))
    k = bl.uniform_grid(lat, 12).points[131]
    H = bl.assemble(lat, V, k, 800.0, scheme).entries
    assert len(H) < spectra._BLOCK_MIN_ORDER and not spectra._graded_mask(H[None])[0].any()
    sol = bl.eigh(H, n_lowest=4)
    err = np.abs(sol.values - schur_reference(H, 4))
    assert np.max(err) > 1e-8  # the dense solve is far off
    assert np.all(err <= sol.bounds)


@pytest.mark.parametrize("coefficient", [-20.0, -80.0, 30.0, -200.0])
@pytest.mark.parametrize("scheme", [bl.kdependent_scheme(),
                                    bl.modified_scheme(bl.build_blowup(bl.BlowupSpec(m=1, p=1.5)))],
                         ids=["kdep", "modified"])
def test_block_path_on_strong_axis_potentials(scheme, coefficient, block_calls):
    """V(+-e_i) = c on the simple cubic lattice at Ec = 400 (M 360-389): hard
    fibers, on which the block path takes more iterations with its guard
    columns left out of the search directions.  Each solve stays on the
    block path and lies within the two reported bounds of the dense route.
    The modified fibers reach a diagonal of 2.4e7, below the graded split,
    so a fixed tolerance against eigvalsh would not do: the dense route
    reports up to 8.6e-8 there, and the block values sit 4.8e-10 from it."""
    lat = bl.new_lattice(np.eye(3))
    V = bl.potential_from_coeffs(lat, [(tuple(s * np.eye(3, dtype=int)[i]), coefficient)
                                       for i in range(3) for s in (1, -1)])
    for frac in ([0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.13, -0.27, 0.41]):
        fib = bl.assemble(lat, V, lat.reciprocal @ np.array(frac), 400.0, scheme)
        sol = bl.eigh(fib, n_lowest=4)
        assert block_calls[-1], f"k = {frac} left the block path"
        values, bounds = spectra._eigh_dense(fib.entries[None], 4)
        assert np.all(np.abs(sol.values - values[0]) <= sol.bounds + bounds[0])


def test_drift_past_the_tolerance_takes_the_confirming_product():
    """Diagonal entries from 1e3 to 1e12, each coupled to the low plane waves
    by sqrt(diag) / 10 and not to each other: H @ Q then has columns of norm
    up to 1e6, and the rounding of the Ritz rotations pushes the drift bound
    of the rotated H @ X past the tolerance.  The solve must confirm its stop
    on an explicit H @ X of its whole block (the last product spans the final
    block) and lie within its bound of the exact Schur fixed point, computed
    by LAPACK on the mild block."""
    rng = np.random.default_rng(1)
    H = kinetic_like(rng, 240, 1.0)
    d = np.real(H.diagonal()).copy()
    steep = np.flatnonzero(d > np.median(d))
    mild = np.setdiff1d(np.arange(240), steep)
    d[steep] = np.geomspace(1e3, 1e12, steep.size)
    scale = np.ones(240)
    scale[steep] = np.sqrt(d[steep]) / 10.0
    H *= scale[:, None] * scale[None, :]
    H[np.ix_(steep, steep)] = 0.0
    H[np.diag_indices(240)] = d
    products = []

    def product(X):
        products.append(X)
        return H @ X

    values, bound, final = spectra._eigh_block(product, 4, d)
    last = products[-1]
    assert len(products) > 1 and last.shape == final.shape
    assert np.linalg.norm(final - last @ (last.conj().T @ final)) <= 1e-8
    assert bound <= 1e-10
    lapack = 64 * EPS * np.linalg.norm(H[np.ix_(mild, mild)], 2)
    assert np.all(np.abs(values - fixed_point_reference(H, steep, 4)) <= bound + lapack)


def test_orthonormal_complement_drops_zero_columns():
    """A search direction can vanish exactly (seen at M = 245 with a block of
    100 vectors); it must not turn into nan."""
    rng = np.random.default_rng(0)
    X = np.linalg.qr(rng.normal(size=(50, 4)))[0]
    V = rng.normal(size=(50, 3))
    V[:, 1] = 0.0
    Q = spectra._orthonormal_complement(V, X)
    assert Q.shape == (50, 2)
    assert np.max(np.abs(Q.T @ Q - np.eye(2))) <= 1e-12
    assert np.max(np.abs(X.T @ Q)) <= 1e-12


def test_iteration_cap_falls_back_to_dense(monkeypatch, block_calls):
    lat = bl.new_lattice(np.eye(3))
    V = bl.synth_power_law(lat, t=2.1, gmax=1, seed=2, amplitude=5.0)
    H = bl.assemble(lat, V, lat.reciprocal @ np.array([0.1, 0.2, 0.3]), 300.0,
                    bl.kdependent_scheme()).entries
    bl.eigh(H, n_lowest=4)
    assert block_calls == [True]  # block path by default
    monkeypatch.setattr(spectra, "_BLOCK_MAX_ITER", 1)
    assert spectra._eigh_block(H, 4) is None
    capped = bl.eigh(H, n_lowest=4)
    assert block_calls[-1] is False
    assert np.array_equal(capped.values, np.linalg.eigvalsh(H)[:4])


def test_threads_bit_identical_on_block_path():
    lat = bl.new_lattice(np.eye(3))
    V = bl.synth_power_law(lat, t=2.1, gmax=1, seed=3, amplitude=5.0)
    scheme = bl.modified_scheme(bl.build_blowup(bl.BlowupSpec(m=1, p=1.5)))
    grid = bl.uniform_grid(lat, 2)
    sizes = [len(bl.assemble(lat, V, k, 300.0, scheme)) for k in grid.points]
    assert min(sizes) >= max(spectra._BLOCK_MIN_ORDER,
                             spectra._BLOCK_MIN_RATIO * (4 + spectra._BLOCK_GUARD))
    serial = bl.compute_bands(lat, V, grid, 300.0, scheme, 4, threads=1)
    threaded = bl.compute_bands(lat, V, grid, 300.0, scheme, 4, threads=2)
    assert np.array_equal(serial.energies, threaded.energies)


@pytest.fixture(scope="module")
def cubic3d():
    """The cubic3d benchmark inputs of seed 1: 27 k, M 687-739, 4 bands."""
    lat = bl.new_lattice(np.eye(3))
    V = bl.synth_power_law(lat, t=2.1, gmax=1, seed=1, amplitude=5.0)
    scheme = bl.modified_scheme(bl.build_blowup(bl.BlowupSpec(m=1, p=1.5)))
    return lat, V, scheme, bl.uniform_grid(lat, 3), 600.0


def partners(lat, points):
    """(i, j) with i < j and the fractional coordinates of k_i and k_j
    summing to 0, and the k that are their own partner."""
    frac = lat.fractional(points.T).T
    close = np.max(np.abs(frac[:, None] + frac[None]), axis=2) <= 1e-9
    i, j = np.nonzero(np.triu(close, 1))
    return list(zip(i, j)), np.flatnonzero(np.diag(close))


def test_values_only_solves_take_few_products(monkeypatch, block_calls, cubic3d):
    """Stopping on the quadratic eigenvalue bound, solving each -k from the
    time-reversed block of its +k partner, starting each cold solve from a
    preconditioned random block and skipping the confirming product where
    the drift bound allows takes at most 3.0 table products H @ X per k on
    the cubic3d inputs (2.67 measured; 3.19 when every cold stop takes the
    confirming product; 3.85 with the unweighted random start, whose large
    first products leave a drift bound that asks for it on every cold stop;
    6.4 without the warm start, 8.5 with the residual stop alone)."""
    lat, V, scheme, grid, Ec = cubic3d
    products = count_products(monkeypatch)
    bands = bl.compute_bands(lat, V, grid, Ec, scheme, 4)
    assert block_calls == [True] * len(grid)
    assert len(products) / len(grid) <= 3.0
    assert np.all(np.isfinite(bands.energies))


def test_block_iterates_only_the_requested_pairs_and_the_gap_column(monkeypatch, block_calls,
                                                                    cubic3d):
    """Only the n_lowest requested columns and the first guard column, whose
    residual _ritz_bound reads, take search directions; the other guard
    columns stay in the Rayleigh-Ritz basis.  On the cubic3d inputs H
    multiplies at most 24 columns per k (23.2 measured; 30.5 when every
    unconverged column of the block takes a direction)."""
    lat, V, scheme, grid, Ec = cubic3d
    columns = []
    count_products(monkeypatch, columns)
    bl.compute_bands(lat, V, grid, Ec, scheme, 4)
    assert block_calls == [True] * len(grid)
    assert sum(columns) / len(grid) <= 24.0


def test_each_minus_k_partner_takes_at_most_two_products(monkeypatch, cubic3d):
    """compute_bands stacks each k with its partner -k on the block path, and
    the partner starts from the time-reversed final block of the first
    member, which the first explicit Rayleigh-Ritz step already accepts."""
    lat, V, scheme, grid, Ec = cubic3d
    pairs, alone = partners(lat, grid.points)
    assert len(pairs) == 13 and len(alone) == 1  # Gamma is its own partner
    products = count_products(monkeypatch)
    bl.compute_bands(lat, V, grid, Ec, scheme, 4)
    stacks = {id(fib): fib for fib, _ in products if fib.k.ndim == 2 and len(fib.k) == 2}
    assert len(stacks) == len(pairs)
    for key, fib in stacks.items():
        rows = [np.flatnonzero(np.all(grid.points == kb, axis=1))[0] for kb in fib.k]
        assert tuple(rows) in pairs
        count = sum(id(f) == key and member == 1 for f, member in products)
        assert count <= 2, f"the -k member at k index {rows[1]} took {count} products"


def test_warm_started_partner_lies_within_its_bound(cubic3d):
    """The first member of each pair and Gamma are bit-identical to their
    single-k solves; the warm-started -k member lies within its own bound
    plus the cold solve's bound of its single-k solve."""
    lat, V, scheme, grid, Ec = cubic3d
    pairs, alone = partners(lat, grid.points)
    bands = bl.compute_bands(lat, V, grid, Ec, scheme, 4)

    def single(i):
        return bl.eigh(bl.assemble(lat, V, grid.points[i], Ec, scheme), n_lowest=4)

    for i in alone:
        assert bands.energies[i].tobytes() == single(i).values.tobytes()
    for i, j in pairs:
        sol = bl.eigh(bl.assemble(lat, V, grid.points[[i, j]], Ec, scheme), n_lowest=4)
        assert bands.energies[[i, j]].tobytes() == sol.values.tobytes()
        first, cold = single(i), single(j)
        assert sol.values[0].tobytes() == first.values.tobytes()
        assert sol.bounds[0] == first.bounds
        assert np.all(np.abs(sol.values[1] - cold.values) <= sol.bounds[1] + cold.bounds)
        assert sol.bounds[1] <= 1e-10


def test_threads_bit_identical_on_block_path_pairs(cubic3d):
    """The cubic3d grid holds 13 exact +-k pairs, each one stack and one task."""
    lat, V, scheme, grid, Ec = cubic3d
    serial = bl.compute_bands(lat, V, grid, Ec, scheme, 4, threads=1)
    threaded = bl.compute_bands(lat, V, grid, Ec, scheme, 4, threads=2)
    assert serial.energies.tobytes() == threaded.energies.tobytes()


def test_only_a_partner_is_warm_started(monkeypatch, block_calls):
    """Uniform-scheme bases are one symmetric set at every k, so every -G is
    a row of every member: only the k check keeps a member whose predecessor
    is not its partner on its cold start, bit-identical to its own solve."""
    lat = bl.new_lattice(np.eye(3))
    V = bl.synth_power_law(lat, t=2.1, gmax=1, seed=2, amplitude=5.0)
    ks = lat.reciprocal @ np.array([[0.1, 0.2, 0.3], [0.3, -0.2, 0.1], [-0.3, 0.2, -0.1]])
    fib = bl.assemble(lat, V, ks, 400.0, bl.uniform_scheme())
    assert len(fib) >= spectra._BLOCK_MIN_ORDER
    products = count_products(monkeypatch)
    sol = bl.eigh(fib, n_lowest=4)
    assert block_calls == [True] * 3
    assert [member for _, member in products].count(2) <= 2  # the partner of member 1
    for b in range(2):
        one = bl.eigh(bl.assemble(lat, V, ks[b], 400.0, bl.uniform_scheme()), n_lowest=4)
        assert sol.values[b].tobytes() == one.values.tobytes() and sol.bounds[b] == one.bounds


def test_import_pulls_in_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c",
                    "import bandlab, sys; assert 'scipy' not in sys.modules"],
                   env=env, check=True)
