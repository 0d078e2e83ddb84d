import json

import numpy as np
import pytest

import bandlab as bl
from bandlab.cli import main
from bandlab.lattice import digest_of

LAT_1D = {"dim": 1, "primitive": [[1.0]]}
COSINE = {"coeffs": [{"g": [1], "re": 1.0}, {"g": [-1], "re": 1.0}]}
BANDS_1D = {"lattice": LAT_1D, "scheme": "kdep", "ec": 25.0, "nbands": 2, "grid": 4}


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_bands_free_electron(tmp_path):
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, "cfg.json", {
        "lattice": LAT_1D, "scheme": "kdep", "ec": 200.0, "nbands": 1,
        "path": {"nodes": [["G", [0.0]], ["X", [0.5]]], "samples": 4},
        "out": str(out),
    })
    assert main(["bands", "--config", cfg]) == 0
    lines = (out / "bands.csv").read_text().splitlines()
    assert lines[0] == "k_frac_1,band_1"
    assert lines[1].split(",") == ["0", "0"]
    assert len(lines) == 6
    assert json.loads((out / "summary.json").read_text())["n_k"] == 5


def test_bands_deterministic_and_config_roundtrip(tmp_path):
    base = {
        "lattice": LAT_1D, "potential": {"coeffs": COSINE["coeffs"]},
        "scheme": "modified", "blowup": {"m": 1, "p": 1.5, "c": 1.0},
        "ec": 150.0, "nbands": 2, "grid": 6,
    }
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    cfg = write_cfg(tmp_path, "cfg.json", base | {"out": str(out1)})
    assert main(["bands", "--config", cfg]) == 0
    assert main(["bands", "--config", cfg, "--out", str(out2)]) == 0
    first = (out1 / "bands.csv").read_bytes()
    assert first == (out2 / "bands.csv").read_bytes()
    # the echoed config reproduces the run byte for byte
    resolved = str(out1 / "resolved_config.json")
    assert main(["bands", "--config", resolved, "--out", str(out3)]) == 0
    assert first == (out3 / "bands.csv").read_bytes()


def test_modified_runs_record_their_blowup_spec(tmp_path, cosine):
    """summary.json and fermi.json carry the run record: the lattice and
    potential digests, Ec, the scheme, n_bands and, for a modified run only,
    the resolved blow-up spec, with C filled in when the config leaves it
    out."""
    base = {
        "lattice": LAT_1D, "potential": {"coeffs": COSINE["coeffs"]},
        "ec": 150.0, "nbands": 2, "grid": 6,
    }
    common = {"lattice_digest": digest_of(cosine.lattice.to_dict()),
              "potential_digest": cosine.digest(), "Ec": 150.0, "n_bands": 2}
    records = []
    for name, blowup, C in (("a", {"m": 1, "p": 1.5, "c": 1.0}, 1.0),
                            ("b", {"m": 2, "p": 2.5, "c": 2.0}, 2.0),
                            ("c", {"m": 1, "p": 1.5}, 1.0), ("d", None, None)):
        out = tmp_path / name
        if blowup is None:
            extra, want = {"scheme": "kdep"}, common | {"scheme": "kdependent"}
        else:
            extra = {"scheme": "modified", "blowup": blowup}
            want = common | {"scheme": "modified", "blowup": {
                "m": blowup["m"], "p": blowup["p"], "C": C, "a": 0.75, "msmooth": blowup["m"]}}
        cfg = write_cfg(tmp_path, f"{name}.json", base | extra | {"out": str(out)})
        for command in ("bands", "fermi"):
            assert main([command, "--config", cfg]) == 0
        records.append([json.loads((out / f).read_text()) for f in ("summary.json", "fermi.json")])
        for record in records[-1]:
            assert {key: record[key] for key in want} == want
            assert ("blowup" in record) == (blowup is not None)
    assert records[0][0] != records[1][0] and records[0][1] != records[1][1]


def test_flag_overrides_config(tmp_path):
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, "cfg.json", {
        "lattice": LAT_1D, "scheme": "kdep", "ec": 25.0, "nbands": 1,
        "grid": 4, "out": str(out),
    })
    assert main(["bands", "--config", cfg, "--ec", "200"]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["ec"] == 200.0


def test_fermi_free_electrons(tmp_path):
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, "cfg.json", {
        "lattice": LAT_1D, "scheme": "kdep", "ec": 200.0, "grid": 16,
        "electrons": 1.0, "out": str(out),
    })
    assert main(["fermi", "--config", cfg]) == 0
    payload = json.loads((out / "fermi.json").read_text())
    assert payload["mu"] == pytest.approx(0.5 * np.pi**2, abs=1e-12)


def test_dos_sweep(tmp_path):
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, "cfg.json", {
        "lattice": LAT_1D, "potential": {"coeffs": COSINE["coeffs"]},
        "scheme": "kdep", "ec": 100.0, "grid": 8, "nbands": 3, "out": str(out),
    })
    assert main(["dos", "--config", cfg]) == 0
    lines = (out / "dos.csv").read_text().splitlines()
    assert lines[0] == "mu,idos,idoe"
    assert len(lines) == 201
    summary = json.loads((out / "summary.json").read_text())
    assert isinstance(summary["truncated_top_band"], bool)


def test_converge_emits_rates(tmp_path):
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, "cfg.json", {
        "lattice": LAT_1D,
        "potential": {"synth": {"t": 2.1, "gmax": 4, "seed": 1}},
        "scheme": "kdep", "ec_ladder": [25.0, 50.0], "ec_reference": 400.0,
        "grid": 4, "band_index": 1, "out": str(out),
    })
    assert main(["converge", "--config", cfg]) == 0
    payload = json.loads((out / "converge.json").read_text())
    assert "fitted_rate" in payload
    assert payload["r_potential"] == pytest.approx(1.6)
    assert len((out / "converge.csv").read_text().splitlines()) == 3


def test_regularity_probe_run(tmp_path):
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, "cfg.json", {
        "lattice": LAT_1D,
        "potential": {"synth": {"t": 1.55, "gmax": 8, "seed": 7}},
        "ec": 750.0, "blowup": {"m": 0, "p": 0.5, "c": 1.0},
        "deltas": [8e-3, 4e-3, 2e-3], "derivative_order": 1, "out": str(out),
    })
    assert main(["regularity", "--config", cfg]) == 0
    payload = json.loads((out / "regularity.json").read_text())
    assert payload["verdict"] in ("BoundedDerivative", "UnboundedDerivative")
    assert len((out / "regularity.csv").read_text().splitlines()) == 4


def test_periodicity_report_run(tmp_path):
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, "cfg.json", {
        "lattice": LAT_1D, "potential": {"coeffs": COSINE["coeffs"]},
        "ec": 25.0, "k_samples": 6, "nbands": 1, "seed": 2,
        "blowup": {"m": 1, "p": 1.5, "c": 1.0}, "out": str(out),
    })
    assert main(["periodicity", "--config", cfg]) == 0
    payload = json.loads((out / "periodicity.json").read_text())
    assert payload["uniform"] > 1e-3
    assert payload["kdependent"] <= 1e-9
    assert payload["modified"] <= 1e-9


def test_cellscan_run(tmp_path):
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, "cfg.json", {
        "lattice": LAT_1D, "ec": 50.0, "grid": 4, "nbands": 3,
        "electrons": 1.0, "a_ladder": {"center": 1.0, "span": 0.05, "count": 7},
        "blowup": {"m": 1, "p": 1.5, "c": 1.0}, "out": str(out),
    })
    assert main(["cellscan", "--config", cfg]) == 0
    assert len((out / "cellscan.csv").read_text().splitlines()) == 8
    payload = json.loads((out / "cellscan.json").read_text())
    assert set(payload["second_differences"]) == {"kdependent", "modified"}


def test_cellscan_reuses_potential_file(tmp_path):
    pot = tmp_path / "pot"
    cfg = write_cfg(tmp_path, "pot.json", {"lattice": LAT_1D, "out": str(pot)})
    assert main(["potential", "synth", "--config", cfg,
                 "--t", "2.1", "--gmax", "3", "--seed", "9"]) == 0
    scan = {
        "lattice": LAT_1D, "ec": 50.0, "grid": 4, "nbands": 3,
        "electrons": 1.0, "a_ladder": {"center": 1.0, "span": 0.05, "count": 7},
        "blowup": {"m": 1, "p": 1.5, "c": 1.0},
    }
    out_file, out_coeffs = tmp_path / "from_file", tmp_path / "from_coeffs"
    cfg = write_cfg(tmp_path, "scan_file.json", scan | {
        "potential": {"file": str(pot / "potential.json")}, "out": str(out_file)})
    assert main(["cellscan", "--config", cfg]) == 0
    # the same integer-indexed coefficients given inline on every cell
    coeffs = json.loads((pot / "potential.json").read_text())["coeffs"]
    cfg = write_cfg(tmp_path, "scan_coeffs.json", scan | {
        "potential": {"coeffs": coeffs}, "out": str(out_coeffs)})
    assert main(["cellscan", "--config", cfg]) == 0
    assert (out_file / "cellscan.csv").read_bytes() == (out_coeffs / "cellscan.csv").read_bytes()


def test_cellscan_potential_file_needs_base_cell(tmp_path, capsys):
    pot = tmp_path / "pot"
    cfg = write_cfg(tmp_path, "pot.json", {"lattice": LAT_1D, "out": str(pot)})
    assert main(["potential", "synth", "--config", cfg, "--t", "2.1", "--gmax", "3"]) == 0
    capsys.readouterr()
    cfg = write_cfg(tmp_path, "scan.json", {
        "lattice": {"dim": 1, "primitive": [[1.1]]}, "ec": 50.0, "grid": 4, "nbands": 3,
        "a_ladder": {"center": 1.1, "span": 0.05, "count": 5},
        "potential": {"file": str(pot / "potential.json")}, "out": str(tmp_path / "run"),
    })
    assert main(["cellscan", "--config", cfg]) == 2
    assert "potential file" in capsys.readouterr().err


def test_potential_synth_roundtrip(tmp_path, lat1d):
    """`potential synth` writes a file that `bands` reads back as the same
    potential: the run's potential digest is the library draw's."""
    out = tmp_path / "pot"
    cfg = write_cfg(tmp_path, "cfg.json", {"lattice": LAT_1D, "out": str(out)})
    assert main(["potential", "synth", "--config", cfg,
                 "--t", "2.1", "--gmax", "3", "--seed", "9"]) == 0
    run = tmp_path / "run"
    cfg = write_cfg(tmp_path, "bands.json", BANDS_1D | {
        "potential": {"file": str(out / "potential.json")}, "out": str(run)})
    assert main(["bands", "--config", cfg]) == 0
    digest = json.loads((run / "summary.json").read_text())["potential_digest"]
    assert digest == bl.synth_power_law(lat1d, t=2.1, gmax=3, seed=9).digest()


def test_potential_file_complex_roundtrip(tmp_path, lat1d):
    """A complex, not real-valued potential file keeps every coefficient."""
    coeffs = [((1,), 0.25 - 1.5j), ((-2,), -0.125 + 3.0j)]
    path = tmp_path / "potential.json"
    path.write_text(json.dumps({"lattice": LAT_1D, "real_valued": False, "coeffs": [
        {"g": list(g), "re": c.real, "im": c.imag} for g, c in coeffs]}))
    run = tmp_path / "run"
    cfg = write_cfg(tmp_path, "cfg.json", BANDS_1D | {"potential": {"file": str(path)},
                                                      "out": str(run)})
    assert main(["bands", "--config", cfg]) == 0
    digest = json.loads((run / "summary.json").read_text())["potential_digest"]
    assert digest == bl.potential_from_coeffs(lat1d, coeffs, real_valued=False).digest()


def test_bands_csv_holds_the_energies(tmp_path, lat1d, cosine):
    """bands.csv of a grid run: fractional k columns, then the bands, each
    at 17 significant digits, so the doubles parse back exactly."""
    run = tmp_path / "run"
    cfg = write_cfg(tmp_path, "cfg.json", BANDS_1D | {"potential": COSINE, "out": str(run)})
    assert main(["bands", "--config", cfg]) == 0
    lines = (run / "bands.csv").read_text().splitlines()
    assert lines[0] == "k_frac_1,band_1,band_2"
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    grid = bl.uniform_grid(lat1d, 4)
    bands = bl.compute_bands(lat1d, cosine, grid, 25.0, bl.kdependent_scheme(), 2)
    assert np.array_equal(parsed[:, 0], [lat1d.fractional(k)[0] for k in grid.points])
    assert np.array_equal(parsed[:, 1:], bands.energies)


def test_potential_synth_refuses_non_finite_coefficients(tmp_path, capsys):
    """An amplitude whose draw overflows exits 2 naming it, and writes no
    file (no NaN or Infinity literal either)."""
    out = tmp_path / "pot"
    cfg = write_cfg(tmp_path, "cfg.json", {"lattice": {"dim": 1, "primitive": [[100.0]]},
                                           "out": str(out)})
    assert main(["potential", "synth", "--config", cfg, "--t", "2.1", "--gmax", "3",
                 "--amplitude", "1e308"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "amplitude" in err
    assert not out.exists()


def test_potential_synth_refuses_negative_seed(tmp_path, capsys):
    out = tmp_path / "pot"
    cfg = write_cfg(tmp_path, "cfg.json", {"lattice": {"dim": 1, "primitive": [[1.0]]},
                                           "out": str(out)})
    assert main(["potential", "synth", "--config", cfg, "--t", "2.1", "--gmax", "3",
                 "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "config field 'seed' must be > -1, got -1" in err
    assert not out.exists()


def test_blowup_check_ok(capsys):
    assert main(["blowup", "check", "--m", "1", "--p", "1.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m"] == 1 and payload["C"] == 1.0
    assert payload["value_at_half"] == pytest.approx(0.25, rel=1e-12)
    assert payload["junction_mismatch"] <= 1e-4
    assert payload["domination_margin"] >= -1e-12


def test_blowup_check_ill_posed(capsys):
    assert main(["blowup", "check", "--m", "1", "--p", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_blowup_check_p_within_rounding_of_m(capsys):
    assert main(["blowup", "check", "--m", "0", "--p", "5e-324"]) == 2
    err = capsys.readouterr().err
    assert "within rounding" in err and "Traceback" not in err


def test_missing_field_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "lattice": LAT_1D, "scheme": "kdep", "grid": 4,
        "out": str(tmp_path / "run"),
    })
    assert main(["bands", "--config", cfg]) == 2
    assert "ec" in capsys.readouterr().err


def test_unknown_scheme_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "lattice": LAT_1D, "scheme": "banana", "ec": 25.0, "grid": 4,
        "out": str(tmp_path / "run"),
    })
    assert main(["bands", "--config", cfg]) == 2


def test_band_count_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "lattice": LAT_1D, "scheme": "kdep", "ec": 25.0, "grid": 4,
        "nbands": 10, "out": str(tmp_path / "run"),
    })
    assert main(["bands", "--config", cfg]) == 2
    assert "plane waves" in capsys.readouterr().err


RERUN_CONFIGS = {
    "bands": {"potential": {"coeffs": COSINE["coeffs"]}, "scheme": "modified",
              "blowup": {"m": 1, "p": 1.5, "c": 1.0}, "ec": 150.0, "nbands": 2, "grid": 6},
    "dos": {"potential": {"coeffs": COSINE["coeffs"]}, "scheme": "kdep", "ec": 100.0,
            "grid": 8, "nbands": 3},
    "fermi": {"scheme": "kdep", "ec": 200.0, "grid": 16, "electrons": 1.0},
    "converge": {"potential": {"synth": {"t": 2.1, "gmax": 4, "seed": 1}}, "scheme": "kdep",
                 "ec_ladder": [25.0, 50.0], "ec_reference": 400.0, "grid": 4},
    "regularity": {"potential": {"synth": {"t": 1.55, "gmax": 8, "seed": 7}}, "ec": 750.0,
                   "blowup": {"m": 0, "p": 0.5, "c": 1.0}, "deltas": [8e-3, 4e-3, 2e-3]},
    "periodicity": {"potential": {"coeffs": COSINE["coeffs"]}, "ec": 25.0, "k_samples": 6,
                    "seed": 2, "blowup": {"m": 1, "p": 1.5, "c": 1.0}},
    "cellscan": {"ec": 50.0, "grid": 4, "nbands": 3,
                 "a_ladder": {"center": 1.0, "span": 0.05, "count": 7},
                 "blowup": {"m": 1, "p": 1.5, "c": 1.0}},
}


@pytest.mark.parametrize("command", sorted(RERUN_CONFIGS))
def test_rerun_from_resolved_config_is_byte_identical(tmp_path, command):
    first, second = tmp_path / "first", tmp_path / "second"
    cfg = write_cfg(tmp_path, "cfg.json",
                    {"lattice": LAT_1D, **RERUN_CONFIGS[command], "out": str(first)})
    assert main([command, "--config", cfg]) == 0
    resolved = str(first / "resolved_config.json")
    assert main([command, "--config", resolved, "--out", str(second)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        if name != "resolved_config.json":
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
    echoed = [json.loads((d / "resolved_config.json").read_text()) for d in (first, second)]
    assert echoed[0] | {"out": None} == echoed[1] | {"out": None}


@pytest.mark.parametrize("blowup", [None, {"m": 1, "p": 1.5}, {"m": 2, "p": 2.5, "c": None}])
def test_resolved_config_holds_the_implicit_defaults(tmp_path, blowup):
    """The echoed config holds what the run used but the user left out: the
    implicit blow-up with its resolved C and msmooth, nbands 4 and the path's
    100 samples.  Rerunning from it gives byte-identical artifacts."""
    first, second = tmp_path / "first", tmp_path / "second"
    cfg = {"lattice": LAT_1D, "potential": {"coeffs": COSINE["coeffs"]},
           "scheme": "modified", "ec": 150.0,
           "path": {"nodes": [["G", [0.0]], ["X", [0.5]]]}, "out": str(first)}
    if blowup is not None:
        cfg["blowup"] = blowup
    assert main(["bands", "--config", write_cfg(tmp_path, "cfg.json", cfg)]) == 0
    resolved = json.loads((first / "resolved_config.json").read_text())
    spec = bl.build_blowup(bl.BlowupSpec(m=1, p=1.5, C=1.0) if blowup is None else
                           bl.BlowupSpec(m=blowup["m"], p=blowup["p"])).spec
    assert resolved["blowup"] == {"m": spec.m, "p": spec.p, "c": spec.C, "a": 0.75,
                                  "msmooth": spec.m}
    assert resolved["nbands"] == 4 and resolved["path"]["samples"] == 100
    assert main(["bands", "--config", str(first / "resolved_config.json"),
                 "--out", str(second)]) == 0
    for name in ("bands.csv", "summary.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    again = json.loads((second / "resolved_config.json").read_text())
    assert again | {"out": None} == resolved | {"out": None}


def test_regularity_needs_blowup(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "lattice": LAT_1D, "ec": 750.0, "out": str(tmp_path / "run"),
    })
    assert main(["regularity", "--config", cfg]) == 2
    assert "'m'" in capsys.readouterr().err


def test_blowup_check_flags_match_config_dict(capsys):
    from bandlab.cli import _blowup_spec

    blow = {"m": 2, "p": 2.5, "c": 1, "a": 0.8, "msmooth": 3}
    spec = _blowup_spec(blow)
    assert spec == bl.BlowupSpec(m=2, p=2.5, C=1.0, a=0.8, msmooth=3)
    assert main(["blowup", "check", "--m", "2", "--p", "2.5", "--c", "1",
                 "--a", "0.8", "--msmooth", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    fn = bl.build_blowup(spec)
    assert {k: payload[k] for k in ("m", "p", "C", "a", "msmooth")} == fn.spec.to_dict()
    assert payload["value_at_half"] == fn.eval(0.5)
    assert payload["value_at_a"] == fn.eval(0.8)


def test_converge_null_potential_is_zero_potential(tmp_path):
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, "cfg.json", {
        "lattice": LAT_1D, "potential": None, "scheme": "kdep",
        "ec_ladder": [25.0, 50.0], "ec_reference": 400.0, "grid": 4, "out": str(out),
    })
    assert main(["converge", "--config", cfg]) == 0
    payload = json.loads((out / "converge.json").read_text())
    assert payload["r_potential"] is None
    # free electrons: both cutoffs already hold the lowest band exactly
    rows = [line.split(",") for line in (out / "converge.csv").read_text().splitlines()[1:]]
    assert [(float(e), float(err), flag) for e, err, flag in rows] == [
        (25.0, 1e-16, "1"), (50.0, 1e-16, "1")]


def test_path_flag_needs_path_object(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "lattice": LAT_1D, "ec": 25.0, "nbands": 1,
        "path": [["G", [0.0]], ["X", [0.5]]], "out": str(tmp_path / "run"),
    })
    assert main(["bands", "--config", cfg, "--path", "G:0 X:0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "'path'" in err


@pytest.mark.parametrize("command", ["bands", "regularity"])
def test_null_blowup_is_config_error(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "lattice": LAT_1D, "scheme": "modified", "blowup": None, "ec": 25.0, "grid": 4,
        "out": str(tmp_path / "run"),
    })
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "'blowup'" in err and "null" in err


def test_grid_of_wrong_type_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", {
        "lattice": LAT_1D, "scheme": "kdep", "ec": 25.0, "grid": {"n": 4},
        "out": str(tmp_path / "run"),
    })
    assert main(["bands", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "'grid'" in err and "integer" in err


@pytest.mark.parametrize("field, value", [
    ("nbands", None), ("ec", "high"), ("threads", [2]), ("path", 3), ("scheme", 1),
    ("lattice", [[1.0]]), ("potential", "cosine"), ("out", 7),
    ("potential.real_valued", "no"), ("potential.real_valued", 1),
])
def test_fields_of_wrong_type_are_config_errors(tmp_path, capsys, field, value):
    cfg = {"lattice": LAT_1D, "scheme": "kdep", "ec": 25.0, "nbands": 1,
           "path": {"nodes": [["G", [0.0]], ["X", [0.5]]], "samples": 4},
           "out": str(tmp_path / "run")}
    if field.startswith("potential."):  # a flag of a valid potential
        cfg["potential"] = {"coeffs": COSINE["coeffs"], field.split(".")[1]: value}
    else:
        cfg[field] = value
    assert main(["bands", "--config", write_cfg(tmp_path, "cfg.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and repr(field) in err


def test_converge_without_rate_reports_null(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, "cfg.json", {
        "lattice": LAT_1D, "potential": None, "scheme": "kdep",
        "ec_ladder": [25.0, 50.0, 100.0], "ec_reference": 800.0, "grid": 4, "out": str(out),
    })
    assert main(["converge", "--config", cfg]) == 0
    payload = json.loads((out / "converge.json").read_text())
    assert payload["fitted_rate"] is None and payload["fitted_rate_full"] is None
    assert "no rate" in capsys.readouterr().out


def test_solver_failure_exits_3(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise bl.SolverFailure("matrix norm bound is not finite")

    monkeypatch.setattr("bandlab.cli.compute_bands", fail)
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, "cfg.json", BANDS_1D | {"out": str(out)})
    assert main(["bands", "--config", cfg]) == 3
    assert capsys.readouterr().err == "solver failure: matrix norm bound is not finite\n"
    assert not (out / "bands.csv").exists()


@pytest.mark.parametrize("path, message", [
    ("G0 X:0.5", "path node 'G0' must look like LABEL:c1,c2"),
    ("G:0", "a path needs at least two nodes"),
])
def test_malformed_path_flag_exits_2(tmp_path, capsys, path, message):
    cfg = write_cfg(tmp_path, "cfg.json", BANDS_1D | {"out": str(tmp_path / "run")})
    with pytest.raises(SystemExit) as exit_:
        main(["bands", "--config", cfg, "--path", path])
    assert exit_.value.code == 2
    assert f"argument --path: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("kset", [
    {"grid": 4, "path": {"nodes": [["G", [0.0]], ["X", [0.5]]]}},
    {},
])
def test_bands_needs_exactly_one_kset(tmp_path, capsys, kset):
    cfg = {key: value for key, value in BANDS_1D.items() if key != "grid"} | kset
    out = tmp_path / "run"
    assert main(["bands", "--config", write_cfg(tmp_path, "cfg.json", cfg | {"out": str(out)})]) == 2
    assert capsys.readouterr().err == "error: exactly one of 'path' and 'grid' must be configured\n"
    assert not (out / "bands.csv").exists()
