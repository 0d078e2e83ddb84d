"""Library entry points reject bad input with ValueError and a message that
says what is wrong: one case per check."""

import re

import pytest

import bandlab as bl

LAT = bl.new_lattice([[1.0]])
COSINE = bl.potential_from_coeffs(LAT, [((1,), 1.0), ((-1,), 1.0)])


def bands_on(kset):
    return bl.compute_bands(LAT, COSINE, kset, 25.0, bl.kdependent_scheme(), 2)


def uneven_path():
    # segments of length 0.5 and 0.1 sampled alike: steps of 0.125 and 0.025
    return bl.kpath(LAT, [("G", [0.0]), ("X", [0.5]), ("Y", [0.6])], 4)


def even_path():
    return bl.kpath(LAT, [("G", [0.0]), ("X", [0.5])], 8)


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
        lambda: bl.lattice_from_dict({"dim": 2, "primitive": [[1.0]]}),
        "dim field does not match the primitive matrix"),
    "unknown basis mode": (
        lambda: bl.enumerate_basis(LAT, [0.0], 25.0, mode="foo"),
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

