"""Strict config reading in the CLI: JSON types are never converted silently,
a top-level key the subcommand does not know is an error, and so is a flag
it does not read."""

import json
import re

import pytest

import bandlab as bl
from bandlab.cli import _FLAGS, main

LAT_1D = {"dim": 1, "primitive": [[1.0]]}
BANDS = {"lattice": LAT_1D, "scheme": "kdep", "ec": 25.0, "nbands": 2,
         "path": {"nodes": [["G", [0.0]], ["X", [0.5]]], "samples": 4}}


def run(tmp_path, command, cfg, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg | {"out": str(tmp_path / "run")}))
    code = main([command, "--config", str(path)])
    return code, capsys.readouterr().err


def assert_config_error(code, err, field):
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1 and repr(field) in err


@pytest.mark.parametrize("field, value", [
    ("nbands", 2.7), ("nbands", 2.0), ("nbands", True), ("nbands", "2"),
    ("ec", "25"), ("ec", True), ("threads", False), ("threads", 1.5),
    ("ec", float("inf")), ("ec", float("nan")),
])
def test_values_are_not_converted(tmp_path, capsys, field, value):
    code, err = run(tmp_path, "bands", BANDS | {field: value}, capsys)
    assert_config_error(code, err, field)


@pytest.mark.parametrize("flags, field", [
    (["--ec", "nan"], "ec"), (["--ec=-inf"], "ec"), (["--blowup-p", "inf"], "p"),
])
def test_non_finite_flags_are_config_errors(tmp_path, capsys, flags, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BANDS | {"scheme": "modified", "blowup": {"m": 1, "p": 1.5},
                                        "out": str(tmp_path / "run")}))
    assert_config_error(main(["bands", "--config", str(path)] + flags),
                        capsys.readouterr().err, field)


def test_integer_beyond_the_float_range_is_config_error(tmp_path, capsys):
    code, err = run(tmp_path, "bands", BANDS | {"ec": 10**400}, capsys)
    assert_config_error(code, err, "ec")


@pytest.mark.parametrize("command, extra, flags, word", [
    ("bands", {"threads": 0}, [], "threads"), ("bands", {"threads": -5}, [], "threads"),
    ("bands", {}, ["--threads", "0"], "threads"), ("periodicity", {"k_samples": 0}, [], "empty"),
    ("converge", {"ec_ladder": [25.0, 50.0], "threads": 0}, [], "'threads' must be > 0"),
    ("regularity", {"blowup": {"m": 1, "p": 1.5}, "threads": 0}, [], "'threads' must be > 0"),
    ("periodicity", {"threads": 0}, [], "'threads' must be > 0"),
    ("cellscan", {"threads": 0}, [], "'threads' must be > 0"),
])
def test_bad_threads_and_empty_kset_are_config_errors(tmp_path, capsys, command, extra, flags,
                                                      word):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BANDS | extra | {"out": str(tmp_path / "run")}))
    code, err = main([command, "--config", str(path)] + flags), capsys.readouterr().err
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1 and word in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, extra, field", [
    ("regularity", {"blowup": {"m": 1, "p": 1.5}, "deltas": [0.01, 0.005, 0.0]}, "deltas"),
    ("regularity", {"blowup": {"m": 1, "p": 1.5}, "deltas": [-0.01, -0.005, -0.0025]},
     "deltas"),
    ("cellscan", {"a_ladder": {"span": 0}}, "a_ladder"),
    ("cellscan", {"a_ladder": {"center": 0.0}}, "a_ladder"),
])
def test_degenerate_ladder_is_config_error(tmp_path, capsys, command, extra, field):
    code, err = run(tmp_path, command, BANDS | extra, capsys)
    assert_config_error(code, err, field)
    assert "Traceback" not in err and not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, extra, field", [
    ("periodicity", {"shifts": []}, "shifts"), ("periodicity", {"shifts": [[0]]}, "shifts"),
    ("periodicity", {"shifts": [[1], [0]]}, "shifts"),
    ("cellscan", {"a_ladder": {"center": "x"}}, "a_ladder.center"),
    ("cellscan", {"a_ladder": {"span": "x"}}, "a_ladder.span"),
    ("cellscan", {"a_ladder": {"span": 1.5}}, "a_ladder.span"),
    ("cellscan", {"a_ladder": {"span": 1}}, "a_ladder.span"),
    ("cellscan", {"a_ladder": {"span": -1.0}}, "a_ladder.span"),
])
def test_zero_shift_and_wide_cell_ladder_are_config_errors(tmp_path, capsys, command, extra,
                                                           field):
    """A zero shift compares each k with itself, and a span of 1 or more puts
    a cell of zero or negative scale into the ladder."""
    code, err = run(tmp_path, command, BANDS | extra, capsys)
    assert_config_error(code, err, field)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, extra, field", [
    ("cellscan", {"a_ladder": {"count": 2}}, "a_ladder.count"),
    ("periodicity", {"k_samples": -1}, "k_samples"),
    ("bands", {"path": {"nodes": BANDS["path"]["nodes"], "samples": 0}}, "path.samples"),
    ("dos", {"grid": 2, "mu_points": 0}, "mu_points"),
    ("dos", {"grid": 2, "mu_points": -1}, "mu_points"),
    ("bands", {"nbands": 0}, "nbands"), ("dos", {"grid": 2, "nbands": 0}, "nbands"),
    ("fermi", {"grid": 2, "nbands": 0}, "nbands"), ("periodicity", {"nbands": 0}, "nbands"),
    ("cellscan", {"nbands": 0}, "nbands"),
    ("converge", {"ec_ladder": [25.0, 50.0], "band_index": 0}, "band_index"),
    ("regularity", {"blowup": {"m": 1, "p": 1.5}, "band_index": 0}, "band_index"),
    ("dos", {"grid": 0}, "grid"), ("cellscan", {"grid": 0}, "grid"),
    ("fermi", {"grid": 2, "electrons": 0}, "electrons"),
    ("fermi", {"grid": 2, "electrons": -1}, "electrons"),
    ("cellscan", {"electrons": 0}, "electrons"), ("cellscan", {"electrons": -1}, "electrons"),
])
def test_out_of_range_count_names_its_field(tmp_path, capsys, monkeypatch, command, extra,
                                            field):
    """An out-of-range field exits 2 naming it, and bands, dos and fermi read
    every field before they solve any k."""
    def solve(*args, **kwargs):
        raise AssertionError("compute_bands was called")

    monkeypatch.setattr("bandlab.cli.compute_bands", solve)
    code, err = run(tmp_path, command, BANDS | extra, capsys)
    assert_config_error(code, err, field)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("extra, field", [
    ({"ec_ladder": [25.0]}, "ec_ladder"), ({"ec_ladder": []}, "ec_ladder"),
    ({"ec_ladder": [25.0, 50.0], "ec_reference": 399.0}, "ec_reference"),
])
def test_converge_checks_its_ladder_before_the_reference_solve(tmp_path, capsys, monkeypatch,
                                                              extra, field):
    def solve(*args, **kwargs):
        raise AssertionError("compute_bands was called")

    monkeypatch.setattr("bandlab.analysis.compute_bands", solve)
    code, err = run(tmp_path, "converge", BANDS | extra, capsys)
    assert_config_error(code, err, field)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, extra, field", [
    ("bands", {"scheme": "kdependent"}, "scheme"),
    ("fermi", {"grid": 2, "scheme": "Modified"}, "scheme"),
    ("dos", {"grid": 2, "scheme": "blowup"}, "scheme"),
    ("converge", {"ec_ladder": [25.0, 50.0], "scheme": "uniform "}, "scheme"),
    ("periodicity", {"schemes": ["kdep", "kdependent"]}, "schemes"),
    ("cellscan", {"schemes": ["modified", "Uniform"]}, "schemes"),
])
def test_unknown_scheme_names_its_field_and_the_choices(tmp_path, capsys, command, extra,
                                                        field):
    code, err = run(tmp_path, command, BANDS | extra, capsys)
    assert_config_error(code, err, field)
    assert "kdep, modified, uniform" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, flags", [
    (["periodicity"], []), (["potential", "synth"], ["--t", "2.1", "--gmax", "3"]),
])
def test_negative_seed_names_the_field(tmp_path, capsys, command, flags):
    """periodicity exited with numpy's bare 'expected non-negative integer'
    and potential synth named only the library's seed=."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BANDS | {"out": str(tmp_path / "run")}))
    code = main(command + ["--config", str(path), "--seed", "-1"] + flags)
    assert_config_error(code, capsys.readouterr().err, "seed")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["periodicity", "cellscan"])
@pytest.mark.parametrize("schemes", [[["kdep"]], [5]])
def test_scheme_name_takes_only_a_string(tmp_path, capsys, command, schemes):
    code, err = run(tmp_path, command, BANDS | {"schemes": schemes}, capsys)
    assert_config_error(code, err, "schemes")
    assert "Traceback" not in err and not (tmp_path / "run").exists()


LAT_2D = {"dim": 2, "primitive": [[1.0, 0.0], [0.0, 1.0]]}


def nodes(*entries):
    return {"path": {"nodes": list(entries) + [["X", [0.5]]]}}


@pytest.mark.parametrize("command, extra, field, hint", [
    ("bands", nodes(["G", [0.0, 0.0]]), "path.nodes", "lattice dimension (1)"),
    ("bands", {"lattice": LAT_2D} | nodes(["G", [0.0, 0.0]]), "path.nodes",
     "lattice dimension (2)"),
    ("periodicity", {"shifts": [[1, 0]]}, "shifts", "lattice dimension (1)"),
    ("periodicity", {"lattice": LAT_2D, "shifts": [[1, 0], [1]]}, "shifts",
     "lattice dimension (2)"),
    ("bands", nodes(["G"]), "path.nodes", "[label, coords]"),
    ("bands", nodes(["G", [0.0], "extra"]), "path.nodes", "[label, coords]"),
    ("bands", nodes([]), "path.nodes", "[label, coords]"),
    ("bands", nodes([5, [0.0]]), "path.nodes", "a string"),
    ("bands", nodes([None, [0.0]]), "path.nodes", "a string"),
])
def test_malformed_node_or_shift_names_its_field(tmp_path, capsys, command, extra, field, hint):
    """A node or shift of the wrong length, or a node that is not a pair, is
    a config error that names the field, not a numpy matmul or unpacking
    error."""
    code, err = run(tmp_path, command, BANDS | extra, capsys)
    assert_config_error(code, err, field)
    assert hint in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("grid", ["4", 4.0, True])
def test_grid_takes_only_an_integer(tmp_path, capsys, grid):
    cfg = {k: v for k, v in BANDS.items() if k != "path"} | {"grid": grid}
    code, err = run(tmp_path, "bands", cfg, capsys)
    assert_config_error(code, err, "grid")


@pytest.mark.parametrize("blowup, field", [
    ({"m": True, "p": 1.5}, "m"), ({"m": 1, "p": "1.5"}, "p"), ({"m": 1.0, "p": 1.5}, "m"),
    ({"m": 1, "p": 1.5, "c": False}, "c"),
])
def test_blowup_fields_are_not_converted(tmp_path, capsys, blowup, field):
    cfg = BANDS | {"scheme": "modified", "blowup": blowup}
    code, err = run(tmp_path, "bands", cfg, capsys)
    assert_config_error(code, err, field)


def test_integer_is_a_number(tmp_path, capsys):
    code, _ = run(tmp_path, "bands", BANDS | {"ec": 25}, capsys)
    assert code == 0
    assert json.loads((tmp_path / "run" / "resolved_config.json").read_text())["ec"] == 25


@pytest.mark.parametrize("command, key", [
    ("bands", "nband"), ("bands", "mu_points"), ("regularity", "delta"),
    ("periodicity", "k_sample"), ("cellscan", "a_ladders"), ("converge", "ec_refrence"),
    ("dos", "band_index"),
])
def test_unknown_key_is_config_error(tmp_path, capsys, command, key):
    code, err = run(tmp_path, command, BANDS | {key: 1}, capsys)
    assert_config_error(code, err, key)
    assert f"bandlab {command}" in err


def test_unknown_key_names_a_close_match(tmp_path, capsys):
    code, err = run(tmp_path, "bands", BANDS | {"nband": 2}, capsys)
    assert code == 2 and "did you mean 'nbands'" in err


COSINE = [{"g": [1], "re": 1.0}, {"g": [-1], "re": 1.0}]


@pytest.mark.parametrize("command, nested, key, hint", [
    ("bands", {"scheme": "modified", "blowup": {"m": 1, "p": 1.5, "C": 64.0}},
     "blowup.C", "blowup.c"),
    ("bands", {"path": {"nodes": BANDS["path"]["nodes"], "sample": 4}},
     "path.sample", "path.samples"),
    ("bands", {"lattice": LAT_1D | {"primitve": [[1.0]]}},
     "lattice.primitve", "lattice.primitive"),
    ("bands", {"potential": {"coeffs": COSINE, "realvalued": True}},
     "potential.realvalued", "potential.real_valued"),
    ("bands", {"potential": {"synth": {"t": 2.1, "gmax": 4, "sed": 1}}},
     "potential.synth.sed", "potential.synth.seed"),
    ("bands", {"potential": {"coeffs": [COSINE[0], {"g": [-1], "re": 1.0, "img": 0.0}]}},
     "potential.coeffs[1].img", "potential.coeffs[1].im"),
    ("cellscan", {"a_ladder": {"center": 1.0, "span": 0.05, "counts": 7}},
     "a_ladder.counts", "a_ladder.count"),
])
def test_unknown_nested_key_is_config_error(tmp_path, capsys, command, nested, key, hint):
    code, err = run(tmp_path, command, BANDS | nested, capsys)
    assert_config_error(code, err, key)
    assert f"did you mean {hint!r}" in err
    assert not (tmp_path / "run").exists()


def test_unknown_nested_key_without_close_match(tmp_path, capsys):
    cfg = BANDS | {"scheme": "modified", "blowup": {"m": 1, "p": 1.5, "tail": 64.0}}
    code, err = run(tmp_path, "bands", cfg, capsys)
    assert_config_error(code, err, "blowup.tail")
    assert "did you mean" not in err


def test_potential_synth_rejects_unknown_key(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lattice": LAT_1D, "out": str(tmp_path), "sed": 3}))
    assert main(["potential", "synth", "--config", str(path), "--t", "2.1", "--gmax", "3"]) == 2
    assert "'sed'" in capsys.readouterr().err


README_CONFIG = {
    "lattice": {"dim": 1, "primitive": [[1.0]]},
    "potential": {"coeffs": [{"g": [1], "re": 1.0, "im": 0.0},
                             {"g": [-1], "re": 1.0, "im": 0.0}]},
    "scheme": "modified", "blowup": {"m": 1, "p": 1.5}, "ec": 100.0, "nbands": 2,
    "path": {"nodes": [["-X", [-0.5]], ["G", [0.0]], ["X", [0.5]]], "samples": 40},
}


@pytest.mark.parametrize("command, flags", [
    ("bands", []), ("fermi", ["--grid", "4", "--electrons", "1.0"]),
    ("converge", ["--ec-ladder", "25,50"]), ("regularity", []), ("periodicity", []),
    ("cellscan", ["--grid", "2"]), ("dos", ["--grid", "4"]),
])
def test_readme_config_runs_every_subcommand(tmp_path, command, flags):
    """The README shares one config between the quick-start commands."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(README_CONFIG))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "run")] + flags) == 0


@pytest.mark.parametrize("command, flags", [
    (["periodicity"], []), (["potential", "synth"], ["--t", "2.1", "--gmax", "3"]),
])
def test_negative_seed_names_the_field(tmp_path, capsys, command, flags):
    """periodicity exited with numpy's bare 'expected non-negative integer'
    and potential synth named only the library's seed=."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BANDS | {"out": str(tmp_path / "run")}))
    code = main(command + ["--config", str(path), "--seed", "-1"] + flags)
    assert_config_error(code, capsys.readouterr().err, "seed")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["periodicity", "cellscan"])
@pytest.mark.parametrize("schemes", [["kdep", "kdep"], ["modified", "uniform", "modified"], []])
def test_schemes_must_name_each_scheme_once(tmp_path, capsys, command, schemes):
    """A repeated name would solve everything twice and write duplicate
    columns; an empty list would write a study of no scheme."""
    code, err = run(tmp_path, command, BANDS | {"schemes": schemes}, capsys)
    assert_config_error(code, err, "schemes")
    assert not (tmp_path / "run").exists()


@pytest.fixture
def saved(tmp_path):
    """A potential file of the 1D lattice, as `potential synth` writes it."""
    path = tmp_path / "potential.json"
    lat = bl.lattice_from_dict(LAT_1D)
    path.write_text(json.dumps(bl.synth_power_law(lat, t=2.1, gmax=2, seed=1).to_dict()))
    return path


@pytest.mark.parametrize("edit, field", [
    (lambda p: p["coeffs"][0].update(re="x") or p, "re"),
    (lambda p: p["coeffs"][0].update(g=1) or p, "g"),
    (lambda p: p["coeffs"][0].update(g=[1.0]) or p, "g"),
    (lambda p: p.update(coeffs={"g": [1]}) or p, "coeffs"),
    (lambda p: p.update(real_valued="no") or p, "potential.real_valued"),
    (lambda p: p.update(lattice=[[1.0]]) or p, "lattice"),
    (lambda p: p.update(extra=1) or p, "extra"),
    (lambda p: p["lattice"].update(primitve=[[1.0]]) or p, "lattice.primitve"),
    (lambda p: p["coeffs"][1].update(img=0.0) or p, "coeffs[1].img"),
    (lambda p: {k: v for k, v in p.items() if k != "coeffs"}, "coeffs"),
    (lambda p: {k: v for k, v in p.items() if k != "lattice"}, "lattice"),
], ids=["re-string", "g-int", "g-float", "coeffs-object", "real_valued-string",
        "lattice-list", "unknown-key", "unknown-lattice-key", "unknown-coeff-key",
        "missing-coeffs", "missing-lattice"])
def test_potential_file_fields_are_checked(tmp_path, capsys, saved, edit, field):
    """A saved potential's fields go through the config readers: a bad one
    exits 2 with one line naming the file and the field, and writes nothing."""
    saved.write_text(json.dumps(edit(json.loads(saved.read_text()))))
    code, err = run(tmp_path, "bands", BANDS | {"potential": {"file": str(saved)}}, capsys)
    assert_config_error(code, err, field)
    assert str(saved) in err
    assert not (tmp_path / "run").exists()


def test_potential_file_must_hold_an_object(tmp_path, capsys, saved):
    saved.write_text(json.dumps([json.loads(saved.read_text())]))
    code, err = run(tmp_path, "bands", BANDS | {"potential": {"file": str(saved)}}, capsys)
    assert code == 2 and err == f"error: potential file {saved} must hold a JSON object\n"
    assert not (tmp_path / "run").exists()


def test_potential_file_reads_like_a_config_potential(tmp_path, capsys, saved):
    """A file may leave out what a config's coeffs leave out: im is 0 and
    real_valued true by default."""
    coeffs = [{"g": [1], "re": 1.0}, {"g": [-1], "re": 1.0}]
    saved.write_text(json.dumps({"lattice": LAT_1D, "coeffs": coeffs}))
    outputs = []
    for name, potential in (("file", {"file": str(saved)}), ("inline", {"coeffs": coeffs})):
        (tmp_path / name).mkdir()
        assert run(tmp_path / name, "bands", BANDS | {"potential": potential}, capsys)[0] == 0
        outputs.append((tmp_path / name / "run" / "bands.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flags, field", [
    (["--t", "nan", "--gmax", "2"], "t"),
    (["--t", "2.1", "--gmax", "2", "--amplitude", "inf"], "amplitude"),
    (["--t", "2.1", "--gmax", "-1"], "gmax"),
])
def test_potential_synth_flags_are_checked(tmp_path, capsys, flags, field):
    """`potential synth` reads its flags as a config's synth object."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lattice": LAT_1D, "out": str(tmp_path / "run")}))
    code = main(["potential", "synth", "--config", str(path)] + flags)
    assert_config_error(code, capsys.readouterr().err, field)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("source", ["file", "synth"])
def test_real_valued_only_beside_coeffs(tmp_path, capsys, saved, source):
    """A file carries its own real_valued and a synth draw is real valued:
    real_valued beside either is an error, not ignored."""
    given = {"file": str(saved), "synth": {"t": 2.1, "gmax": 2}}
    potential = {source: given[source], "real_valued": False}
    code, err = run(tmp_path, "bands", BANDS | {"potential": potential}, capsys)
    assert_config_error(code, err, "potential.real_valued")
    assert not (tmp_path / "run").exists()


def test_json_syntax_error_names_the_file(tmp_path, capsys):
    """A file that is not JSON, read as --config or as a potential file,
    exits 2 with one line naming that file."""
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["bands", "--config", str(broken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {broken}: ") and err.count("\n") == 1
    code, err = run(tmp_path, "bands", BANDS | {"potential": {"file": str(broken)}}, capsys)
    assert code == 2
    assert err.startswith(f"error: potential file {broken}: ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_config_file_must_hold_an_object(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([BANDS]))
    assert main(["bands", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: config file {path} must hold a JSON object\n"


@pytest.mark.parametrize("sources", [("file", "coeffs"), ("synth", "coeffs"), ("file", "synth"),
                                     ("file", "synth", "coeffs")])
def test_potential_takes_one_source(tmp_path, capsys, saved, sources):
    given = {"file": str(saved), "synth": {"t": 2.1, "gmax": 2}, "coeffs": COSINE}
    potential = {key: given[key] for key in sources}
    code, err = run(tmp_path, "bands", BANDS | {"potential": potential}, capsys)
    assert_config_error(code, err, "potential")
    assert " and ".join(sources) in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("scheme", ["kdep", "uniform"])
def test_null_blowup_is_config_error_without_a_blowup_scheme(tmp_path, capsys, scheme):
    """A scheme that reads no blow-up still rejects a null one."""
    code, err = run(tmp_path, "bands", BANDS | {"scheme": scheme, "blowup": None}, capsys)
    assert_config_error(code, err, "blowup")


def test_nested_flags_set_their_config_path(tmp_path):
    """--path sets path.nodes and keeps path.samples; --blowup-m and
    --blowup-p set their keys and keep the config's other blow-up keys."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BANDS | {"scheme": "modified", "out": str(tmp_path / "run"),
                                        "blowup": {"m": 1, "p": 1.5, "a": 0.8}}))
    assert main(["bands", "--config", str(path), "--path", "G:0 X:0.25",
                 "--blowup-m", "2", "--blowup-p", "2.5"]) == 0
    resolved = json.loads((tmp_path / "run" / "resolved_config.json").read_text())
    assert resolved["path"] == {"nodes": [["G", [0.0]], ["X", [0.25]]], "samples": 4}
    assert {k: resolved["blowup"][k] for k in ("m", "p", "a")} == {"m": 2, "p": 2.5, "a": 0.8}


BLOWUP_FLAGS = ("--blowup-m", "--blowup-p", "--blowup-c", "--blowup-a")
# The flags of each subcommand beyond --config, --out and --seed: those of
# the config keys it reads, 87 options in all.
EXPECTED_FLAGS = {
    "bands": {"--ec", "--scheme", *BLOWUP_FLAGS, "--nbands", "--grid", "--path", "--threads"},
    "dos": {"--ec", "--scheme", *BLOWUP_FLAGS, "--nbands", "--grid", "--threads"},
    "fermi": {"--ec", "--scheme", *BLOWUP_FLAGS, "--nbands", "--grid", "--threads",
              "--electrons"},
    "converge": {"--ec-ladder", "--scheme", *BLOWUP_FLAGS, "--grid", "--path", "--threads"},
    "regularity": {"--ec", *BLOWUP_FLAGS, "--threads"},
    "periodicity": {"--ec", *BLOWUP_FLAGS, "--nbands", "--threads"},
    "cellscan": {"--ec", *BLOWUP_FLAGS, "--nbands", "--grid", "--electrons", "--threads"},
    "potential synth": {"--t", "--gmax", "--amplitude"},
}


@pytest.mark.parametrize("command", list(EXPECTED_FLAGS))
def test_help_lists_exactly_the_flags_a_subcommand_reads(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        main(command.split() + ["--help"])
    assert exit_.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    expected = {"--help", "--config", "--out", "--seed"} | EXPECTED_FLAGS[command]
    for option, _, _ in _FLAGS:
        assert (option in listed) == (option in expected), option
    assert listed == expected


@pytest.mark.parametrize("command, flags, unread", [
    (["converge"], ["--ec-ladder", "25,50"], ["--ec", "1"]),
    (["regularity"], [], ["--grid", "3"]),
    (["dos"], ["--grid", "2"], ["--path", "G:0 X:0.3"]),
    (["potential", "synth"], ["--t", "2.1", "--gmax", "3"], ["--nbands", "2"]),
    (["bands"], [], ["--thr", "2"]),  # a prefix of --threads
])
def test_flag_the_subcommand_does_not_read_exits_2(tmp_path, capsys, command, flags, unread):
    """A flag the subcommand does not read, or a prefix of one it reads, is a
    usage error: exit 2 and no output directory.  Without it the run works."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BANDS | {"blowup": {"m": 1, "p": 1.5}}))
    args = command + ["--config", str(path), "--out", str(tmp_path / "run")] + flags
    with pytest.raises(SystemExit) as exit_:
        main(args + unread)
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(unread)}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    assert main(args) == 0


@pytest.mark.parametrize("command, flags, field", [
    ("bands", ["--path", "G:a X:0.5"], "path.nodes"),
    ("converge", ["--ec-ladder", "125,x"], "ec_ladder"),
])
def test_unparsable_flag_names_its_field(tmp_path, capsys, command, flags, field):
    """A flag value that does not parse exits 2 naming the flag and the config
    field it sets, not only float()'s "could not convert string to float"."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BANDS | {"out": str(tmp_path / "run")}))
    with pytest.raises(SystemExit) as exit_:
        main([command, "--config", str(path)] + flags)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flags[0]}: config field {field!r} takes comma-separated numbers" in err
    assert not (tmp_path / "run").exists()
