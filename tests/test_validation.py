"""Library entry points reject bad input with ValueError and a message that
says what is wrong: one case per check."""

import re

import numpy as np
import pytest

import bandlab as bl
from bandlab import cli, spectra
from bandlab.lattice import _bases

LAT = bl.new_lattice([[1.0]])
COSINE = bl.potential_from_coeffs(LAT, [((1,), 1.0), ((-1,), 1.0)])


def bands_on(kset):
    return bl.compute_bands(LAT, COSINE, kset, 25.0, bl.kdependent_scheme(), 2)


def uneven_path():
    # segments of length 0.5 and 0.1 sampled alike: steps of 0.125 and 0.025
    return bl.kpath(LAT, [("G", [0.0]), ("X", [0.5]), ("Y", [0.6])], 4)


def even_path():
    return bl.kpath(LAT, [("G", [0.0]), ("X", [0.5])], 8)


def cell_scan(grid_n):
    return bl.energy_vs_cell_parameter(
        lambda a: bl.new_lattice([[a]]),
        lambda lat: bl.potential_from_coeffs(lat, [((1,), 1.0), ((-1,), 1.0)]), 25.0,
        [bl.kdependent_scheme()], [0.9, 1.0, 1.1], n_electrons=1.0, grid_n=grid_n, n_bands=2)


CASES = {
    "trace on a grid": (
        lambda: bl.band_derivative_trace(bands_on(bl.uniform_grid(LAT, 6)), 1, 1),
        "derivative traces are defined along paths"),
    "trace band out of range": (
        lambda: bl.band_derivative_trace(bands_on(even_path()), 3, 1),
        "band_index 3 outside the computed bands"),
    "trace on an uneven path": (
        lambda: bl.band_derivative_trace(bands_on(uneven_path()), 1, 1),
        "finite differences need a uniformly spaced path"),
    "cell scan of two cells": (
        lambda: bl.energy_vs_cell_parameter(
            lambda a: bl.new_lattice([[a]]), lambda lat: bl.potential_from_coeffs(lat, []),
            25.0, [bl.kdependent_scheme()], [0.9, 1.0], n_electrons=1.0, grid_n=2, n_bands=1),
        "need at least three cell parameters"),
    "non-square primitive": (
        lambda: bl.new_lattice([[1.0, 0.0]]),
        "primitive matrix must be square, got shape (1, 2)"),
    "dim mismatch": (
        lambda: cli._build_lattice({"lattice": {"dim": 2, "primitive": [[1.0]]}}),
        "dim field does not match the primitive matrix"),
    "unknown basis mode": (
        lambda: _bases(LAT, 25.0, np.zeros((1, 1)), mode="foo"),
        "unknown basis mode 'foo'"),
    "path of one node": (
        lambda: bl.kpath(LAT, [("G", [0.0])], 4),
        "a path needs at least two nodes"),
    "path without samples": (
        lambda: bl.kpath(LAT, [("G", [0.0]), ("X", [0.5])], 0),
        "samples_per_segment must be >= 1"),
    "path node of the wrong dimension": (
        lambda: bl.kpath(LAT, [("G", [0.0]), ("X", [0.5, 0.5])], 4),
        "node vectors must have the lattice dimension"),
    "empty grid": (
        lambda: bl.uniform_grid(LAT, 0),
        "grid size must be >= 1"),
    "negative gmax": (
        lambda: bl.synth_power_law(LAT, t=2.0, gmax=-1, seed=0),
        "gmax must be >= 0"),
    "unknown scheme tag": (
        lambda: bl.Scheme("foo"),
        "unknown scheme tag 'foo'"),
    "modified scheme without a blow-up": (
        lambda: bl.Scheme("modified"),
        "modified scheme needs a blow-up function"),
    "negative derivative order": (
        lambda: bl.build_blowup(bl.BlowupSpec(m=1, p=1.5, C=1.0)).eval_derivative(0.3, -1),
        "derivative order must be >= 0"),
    "no bands": (
        lambda: bl.compute_bands(LAT, COSINE, even_path(), 25.0, bl.kdependent_scheme(), 0),
        "n_bands must be >= 1"),
}


@pytest.mark.parametrize("call, message", list(CASES.values()), ids=list(CASES))
def test_bad_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()



DIAG = np.diag([1.0, 2.0, 3.0])
SPEC = bl.BlowupSpec(m=1, p=1.5, C=1.0)
DELTAS = [1e-2, 5e-3, 2.5e-3]
GRID_BANDS = bands_on(bl.uniform_grid(LAT, 4))
PATH_BANDS = bands_on(even_path())

# counts that were silently reinterpreted (int() truncation, a bool as 0 or
# 1) or failed with a bare TypeError; each must fail before any solve
COUNT_CASES = {
    "fractional n_lowest": (lambda: bl.eigh(DIAG, n_lowest=2.7),
                            "n_lowest must be an integer in [1, 3], got 2.7"),
    "bool n_lowest": (lambda: bl.eigh(DIAG, n_lowest=True),
                      "n_lowest must be an integer in [1, 3], got True"),
    "fractional n_bands": (
        lambda: bl.compute_bands(LAT, COSINE, even_path(), 25.0, bl.kdependent_scheme(), 2.5),
        "n_bands must be >= 1 and an integer, got 2.5"),
    "bool n_bands": (
        lambda: bl.compute_bands(LAT, COSINE, even_path(), 25.0, bl.kdependent_scheme(), True),
        "n_bands must be >= 1 and an integer, got True"),
    "fractional threads": (
        lambda: bl.compute_bands(LAT, COSINE, even_path(), 25.0, bl.kdependent_scheme(), 2,
                                 threads=1.5),
        "threads must be >= 1 and an integer, got 1.5"),
    "bool threads": (
        lambda: bl.compute_bands(LAT, COSINE, even_path(), 25.0, bl.kdependent_scheme(), 2,
                                 threads=True),
        "threads must be >= 1 and an integer, got True"),
}
# counts that failed with a bare TypeError or IndexError or an error naming
# another parameter (1.5), or passed as 1 (True)
for name, arg in (("fractional", 1.5), ("bool", True)):
    COUNT_CASES |= {
        f"{name} grid size": (lambda arg=arg: bl.uniform_grid(LAT, arg),
                              f"grid size must be >= 1 and an integer, got n={arg}"),
        f"{name} samples_per_segment": (
            lambda arg=arg: bl.kpath(LAT, [("G", [0.0]), ("X", [0.5])], arg),
            f"samples_per_segment must be >= 1 and an integer, got {arg}"),
        f"{name} gmax": (lambda arg=arg: bl.synth_power_law(LAT, t=2.0, gmax=arg, seed=0),
                         f"gmax must be >= 0 and an integer, got {arg}"),
        f"{name} grid_n": (
            lambda arg=arg: cell_scan(arg),
            f"'grid_n' must be >= 1 and an integer, got {arg}"),
        f"{name} band_index of a convergence study": (
            lambda arg=arg: bl.convergence_study(LAT, COSINE, arg, even_path(), [25.0, 50.0],
                                                 [bl.kdependent_scheme()], 400.0),
            f"'band_index' must be >= 1 and an integer, got {arg}"),
        f"{name} band_index of a regularity probe": (
            lambda arg=arg: bl.regularity_probe(LAT, COSINE, 25.0, SPEC, arg, 1, DELTAS),
            f"'band_index' must be >= 1 and an integer, got {arg}"),
        f"{name} band_index of a derivative trace": (
            lambda arg=arg: bl.band_derivative_trace(PATH_BANDS, arg, 1),
            f"band_index {arg} outside the computed bands"),
    }
# a bool passed as 1 here; a fraction was already rejected
COUNT_CASES |= {
    "bool order of a regularity probe": (
        lambda: bl.regularity_probe(LAT, COSINE, 25.0, SPEC, 1, True, DELTAS),
        "derivative order must be 1 or 2, got True"),
    "bool order of a derivative trace": (lambda: bl.band_derivative_trace(PATH_BANDS, 1, True),
                                         "derivative order must be 1 or 2, got True"),
    "bool m of a blow-up": (lambda: bl.build_blowup(bl.BlowupSpec(m=True, p=2.5)),
                            "m must be an integer, got True"),
    "bool msmooth of a blow-up": (
        lambda: bl.build_blowup(bl.BlowupSpec(m=1, p=2.5, msmooth=True)),
        "msmooth must be an integer, got True"),
}


@pytest.mark.parametrize("call, message", list(COUNT_CASES.values()), ids=list(COUNT_CASES))
def test_counts_must_be_integers(call, message, monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    for name in ("_eigh_block", "_eigh_dense", "eigh"):
        monkeypatch.setattr(spectra, name, solve)
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_numpy_integer_counts_are_accepted():
    assert bl.eigh(DIAG, n_lowest=np.int64(2)).values.tolist() == [1.0, 2.0]
    got = bl.compute_bands(LAT, COSINE, bl.uniform_grid(LAT, 4), 25.0, bl.kdependent_scheme(),
                           np.int32(2), threads=np.int64(2))
    assert got.energies.tobytes() == GRID_BANDS.energies.tobytes()
    grid = bl.uniform_grid(LAT, np.int64(4))
    assert grid.points.tobytes() == GRID_BANDS.kset.points.tobytes()
    path = bl.kpath(LAT, [("G", [0.0]), ("X", [0.5])], np.int32(8))
    assert path.points.tobytes() == PATH_BANDS.kset.points.tobytes()
    assert bl.synth_power_law(LAT, t=2.0, gmax=np.int64(3), seed=0).coeffs == \
        bl.synth_power_law(LAT, t=2.0, gmax=3, seed=0).coeffs
    trace = bl.band_derivative_trace(PATH_BANDS, np.int64(1), np.int64(2))
    assert trace.tobytes() == bl.band_derivative_trace(PATH_BANDS, 1, 2).tobytes()
    assert bl.build_blowup(bl.BlowupSpec(m=np.int64(1), p=2.5, msmooth=np.int32(2))).spec.m == 1
    scan = cell_scan(np.int64(2)).energies["kdependent"]
    assert scan.tobytes() == cell_scan(2).energies["kdependent"].tobytes()
