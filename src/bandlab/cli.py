"""bandlab command line driver.

Every run takes a JSON config (--config) whose fields can be overridden by
flags; the merged configuration, with every default the run used and the
blow-up spec's resolved C, is echoed to resolved_config.json next to the
outputs, so a run can be reproduced from its artifacts alone.  Outputs
are plain CSV (full double precision) plus a JSON summary and are
byte-identical across repeat runs with the same config and seed.

Exit codes: 0 success, 2 configuration or validation problem, 3 solver
failure.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import (
    convergence_study,
    energy_vs_cell_parameter,
    periodicity_report,
    regularity_probe,
)
from .blowup import BlowupSpec, build_blowup
from .fiber import Scheme
from .lattice import (
    KPointSet,
    Lattice,
    digest_of,
    kpath,
    lattice_from_dict,
    new_lattice,
    uniform_grid,
)
from .observables import TruncationWarning, fermi_level, idoe, idos
from .potential import FourierPotential, potential_from_coeffs, synth_power_law
from .spectra import BandStructure, SolverFailure, compute_bands

EXIT_OK, EXIT_CONFIG, EXIT_SOLVER = 0, 2, 3

_SCHEME_NAMES = {"uniform": "uniform", "kdep": "kdependent", "modified": "modified"}


def _flag_numbers(text: str, key: str) -> list:
    """The comma-separated numbers of a flag that sets the config field key;
    argparse reports an error, naming the flag, as a usage error (exit 2)."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"config field {key!r} takes comma-separated "
                                         f"numbers, got {text!r}") from None


def _parse_path_flag(text: str) -> list:
    nodes = []
    for token in text.split():
        label, _, coords = token.partition(":")
        if not coords:
            raise argparse.ArgumentTypeError(f"path node {token!r} must look like LABEL:c1,c2")
        nodes.append([label, _flag_numbers(coords, "path.nodes")])
    if len(nodes) < 2:
        raise argparse.ArgumentTypeError("a path needs at least two nodes")
    return nodes


# One row per flag: the option, its dest (the config path it sets: a dotted
# one such as blowup.m sets that key of the nested object) and the argparse
# keywords.  A subcommand takes the rows whose dest starts with one of its
# keys (see _COMMANDS), and every subcommand takes --out and --seed: a synth
# potential without its own seed reads the run seed.
_FLAGS = (
    ("--ec", "ec", dict(type=float, help="plane-wave cutoff energy")),
    ("--ec-ladder", "ec_ladder", dict(type=lambda text: _flag_numbers(text, "ec_ladder"),
                                      help="comma-separated cutoffs")),
    ("--scheme", "scheme", dict(choices=sorted(_SCHEME_NAMES), help="discretization scheme")),
    ("--blowup-m", "blowup.m", dict(type=int, help="blow-up order m")),
    ("--blowup-p", "blowup.p", dict(type=float, help="blow-up tail exponent p")),
    ("--blowup-c", "blowup.c", dict(type=float, help="blow-up tail constant C")),
    ("--blowup-a", "blowup.a", dict(type=float, help="blow-up junction point a")),
    ("--nbands", "nbands", dict(type=int, help="number of bands")),
    ("--grid", "grid", dict(type=int, help="uniform grid size per dimension")),
    ("--path", "path.nodes", dict(type=_parse_path_flag,
                                  help="k-path nodes, e.g. 'G:0 X:0.5' (fractional)")),
    ("--electrons", "electrons", dict(type=float, help="electrons per unit cell")),
    ("--out", "out", dict(help="output directory")),
    ("--seed", "seed", dict(type=int, help="random seed")),
    ("--threads", "threads", dict(type=int, help="worker threads for k-point solves")),
    ("--t", "potential.synth.t", dict(type=float, required=True, help="decay exponent")),
    ("--gmax", "potential.synth.gmax", dict(type=int, required=True, help="coefficient box radius")),
    ("--amplitude", "potential.synth.amplitude", dict(type=float, default=1.0, help="global scale")),
)
# Top-level keys a config file may hold in every subcommand: lattice and every
# key a flag sets, so one file serves them all.  A subcommand's own keys come
# on top; any other key (a typo such as "nband") is a configuration error.
_SHARED_KEYS = frozenset({"lattice"} | {dest.partition(".")[0] for _, dest, _ in _FLAGS})
# Keys of the nested objects by the key that holds them ("[]": each item of a
# list); "file" lists the keys of a saved potential file.
_NESTED_KEYS = {
    "blowup": frozenset({"m", "p", "c", "a", "msmooth"}),
    "path": frozenset({"nodes", "samples"}),
    "lattice": frozenset({"dim", "primitive"}),
    "potential": frozenset({"file", "synth", "coeffs", "real_valued"}),
    "synth": frozenset({"t", "gmax", "seed", "amplitude"}),
    "coeffs[]": frozenset({"g", "re", "im"}),
    "a_ladder": frozenset({"center", "span", "count"}),
    "file": frozenset({"lattice", "coeffs", "real_valued"}),
}

_REQUIRED = object()
_KINDS = {int: "an integer", float: "a finite number", str: "a string", dict: "an object",
          list: "a list", bool: "true or false"}


def _as(value, kind, key: str):
    """value checked to have the JSON type of `kind`, a ValueError naming the
    field otherwise: an int field takes only an integer, a float field an
    integer or a real number (as a float) within the float range, so no NaN
    or Infinity literal, a bool field only true or false, and a bool is
    never a number."""
    if kind is bool or not isinstance(value, bool):
        if kind is float and isinstance(value, (int, float)):
            if abs(value) <= sys.float_info.max:  # False for NaN too
                return float(value)
        elif isinstance(value, kind):
            return value
    raise ValueError(f"config field {key!r} must be {_KINDS[kind]}, got {json.dumps(value)}")


def _field(cfg: dict, key: str, kind, default=_REQUIRED, above=None):
    """cfg[key] checked by _as and, when `above` is given, to be greater than
    it; the default when the key is absent.  A dotted key such as
    "path.samples" reads its last part and names the whole path in errors.
    A default other than None is written into cfg, so the config echoed next
    to the outputs holds every value the run used."""
    name = key.rpartition(".")[2]
    if name not in cfg:
        if default is _REQUIRED:
            raise ValueError(f"config is missing the {key!r} field")
        if default is not None:
            cfg[name] = default
        return default
    value = _as(cfg[name], kind, key)
    if above is not None and not value > above:
        raise ValueError(f"config field {key!r} must be > {above}, got {value}")
    return value


def _coords(value, kind, key: str, dim: int) -> list:
    """value as a list of `dim` entries checked by _as, a ValueError naming the
    field and the lattice dimension otherwise."""
    entries = [_as(v, kind, key) for v in _as(value, list, key)]
    if len(entries) != dim:
        raise ValueError(f"config field {key!r} needs one entry per lattice dimension "
                         f"({dim}), got {json.dumps(value)}")
    return entries


def _floats(cfg: dict, key: str, default=_REQUIRED) -> list:
    """cfg[key] as a list of floats, or the default when the key is absent."""
    return [_as(v, float, key) for v in _field(cfg, key, list, default)]


def _check_keys(obj: dict, known: frozenset, prefix: str, where: str) -> None:
    """A ValueError naming the keys of obj outside known by dotted path, with a
    close match as a hint and `where` they were read; then the same for the
    _NESTED_KEYS objects in obj."""
    unknown = sorted(set(obj) - known)
    if unknown:
        hint = difflib.get_close_matches(unknown[0].lower(), known, n=1)
        raise ValueError(f"unknown config key {', '.join(repr(prefix + k) for k in unknown)} "
                         f"for {where}" + (f" (did you mean {prefix + hint[0]!r}?)" if hint else ""))
    for key, value in obj.items():
        if isinstance(value, dict) and key in _NESTED_KEYS:
            _check_keys(value, _NESTED_KEYS[key], prefix + key + ".", where)
        elif isinstance(value, list) and key + "[]" in _NESTED_KEYS:
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    _check_keys(item, _NESTED_KEYS[key + "[]"], f"{prefix}{key}[{i}].", where)


def _read_object(path: str, what: str) -> dict:
    """The JSON object in the file at path, a ValueError naming `what` and
    the file when it is not valid JSON or holds no object."""
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:  # a JSON syntax error or bytes that are not text
        raise ValueError(f"{what} {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{what} {path} must hold a JSON object")
    return payload


def _config(args) -> dict:
    """The JSON object of --config (empty without one), overridden by the
    flags.  A flag's dest is the config path it sets: a dotted one such as
    blowup.m or path.nodes sets that key of the nested object.  The flags of
    potential synth (potential.synth.t, ...) are left to cmd_potential_synth,
    whose synth object replaces the config's potential."""
    cfg = {} if args.config is None else _read_object(args.config, "config file")
    _check_keys(cfg, _SHARED_KEYS.union(args.keys), "", f"bandlab {args.command}")
    for dest, value in vars(args).items():
        top, _, key = dest.rpartition(".")
        if (top or key) in _SHARED_KEYS and value is not None:
            (_field(cfg, top, dict, {}) if top else cfg)[key] = value
    _field(cfg, "blowup", dict, None)  # null is an error whether a scheme reads it or not
    return cfg


def _build_lattice(cfg: dict) -> Lattice:
    lattice = _field(cfg, "lattice", dict)
    primitive = [[_as(v, float, "primitive") for v in _as(row, list, "primitive")]
                 for row in _field(lattice, "primitive", list)]
    return lattice_from_dict({"dim": _field(lattice, "dim", int), "primitive": primitive})


def _build_potential(cfg: dict, lat: Lattice) -> FourierPotential:
    """The potential of the config's one source: a saved file, a synth draw
    (seeded by the run's seed unless it gives its own) or a coeffs list; no
    potential, or null, is the zero potential.  A saved file's fields are
    read as a config's, and an error names the file and the field.  Only a
    coeffs list takes real_valued: a file carries its own, and a synth draw
    is real valued."""
    spec = cfg.get("potential")
    if spec is None:
        return potential_from_coeffs(lat, [])
    sources = [key for key in ("file", "synth", "coeffs") if key in _as(spec, dict, "potential")]
    if len(sources) != 1:
        raise ValueError("potential config needs one of: file, synth, coeffs" if not sources else
                         f"config field 'potential' takes one source, got {' and '.join(sources)}")
    if "real_valued" in spec and "coeffs" not in spec:
        raise ValueError("config field 'potential.real_valued' goes only with 'coeffs'")
    if "file" in spec:
        path = _field(spec, "file", str)
        saved = _read_object(path, "potential file")
        try:
            _check_keys(saved, _NESTED_KEYS["file"], "", "a saved potential")
            _field(saved, "coeffs", list)  # named when missing, not as a missing source
            V = _build_potential({"potential": saved}, _build_lattice(saved))
        except ValueError as exc:
            raise ValueError(f"potential file {path}: {exc}") from None
        if V.lattice.to_dict() != lat.to_dict():
            raise ValueError(
                f"potential file {path} was built for primitive "
                f"{V.lattice.primitive.tolist()}, not the configured {lat.primitive.tolist()}"
            )
        return V
    if "synth" in spec:
        s = _field(spec, "synth", dict)
        seed = _field(s, "seed", int, None, above=-1)
        return synth_power_law(
            lat, t=_field(s, "t", float), gmax=_field(s, "gmax", int, above=-1),
            seed=_field(cfg, "seed", int, 0, above=-1) if seed is None else seed,
            amplitude=_field(s, "amplitude", float, 1.0),
        )
    entries = []
    for item in _field(spec, "coeffs", list):
        item = _as(item, dict, "coeffs")
        g = tuple(_as(v, int, "g") for v in _field(item, "g", list))
        entries.append((g, complex(_field(item, "re", float), _field(item, "im", float, 0.0))))
    return potential_from_coeffs(lat, entries, real_valued=_as(
        spec.get("real_valued", True), bool, "potential.real_valued"))


def _blowup_spec(blow: dict) -> BlowupSpec:
    """The blow-up spec of a config or flag dict: m and p are required, c and
    msmooth may be absent or null (auto C, msmooth = m), a defaults to 0.75."""
    return BlowupSpec(
        m=_field(blow, "m", int), p=_field(blow, "p", float),
        C=None if blow.get("c") is None else _field(blow, "c", float),
        a=_field(blow, "a", float, 0.75),
        msmooth=None if blow.get("msmooth") is None else _field(blow, "msmooth", int),
    )


def _build_blowup(blow: dict):
    """The blow-up function of a config dict (see _blowup_spec), with its
    resolved tail constant C and junction order msmooth written back."""
    fn = build_blowup(_blowup_spec(blow))
    resolved = fn.spec.to_dict()
    blow.update(c=resolved["C"], msmooth=resolved["msmooth"])
    return fn


def _build_scheme(cfg: dict, scheme: str | None = None) -> Scheme:
    """The named scheme, an item of the config's "schemes", by default the
    config's "scheme" (kdep); an unknown name is an error naming that field
    and the accepted names."""
    key = "scheme" if scheme is None else "schemes"
    if scheme is None:
        scheme = _field(cfg, "scheme", str, "kdep")
    tag = _SCHEME_NAMES.get(scheme)
    if tag is None:
        raise ValueError(f"config field {key!r} takes one of "
                         f"{', '.join(sorted(_SCHEME_NAMES))}, got {json.dumps(scheme)}")
    return Scheme(tag, _build_blowup(_field(cfg, "blowup", dict, {"m": 1, "p": 1.5, "c": 1.0}))
                  if tag == "modified" else None)


def _build_kset(cfg: dict, lat: Lattice, require: str | None = None) -> KPointSet:
    has_path, has_grid = "path" in cfg, "grid" in cfg
    if require == "grid" or (has_grid and not has_path):
        return uniform_grid(lat, _field(cfg, "grid", int, above=0))
    if has_path and not has_grid:
        path = _field(cfg, "path", dict)
        nodes = []
        for node in _field(path, "nodes", list):
            if len(_as(node, list, "path.nodes")) != 2:
                raise ValueError(f"config field 'path.nodes' takes [label, coords] pairs, "
                                 f"got {json.dumps(node)}")
            frac = _coords(node[1], float, "path.nodes", lat.dim)
            nodes.append((_as(node[0], str, "path.nodes"), lat.reciprocal @ np.array(frac)))
        return kpath(lat, nodes, _field(path, "path.samples", int, 100, above=0))
    raise ValueError("exactly one of 'path' and 'grid' must be configured")


def _run_context(args, solve: bool = False, require: str | None = None) -> tuple:
    """(cfg, lattice, potential) of a run, with the flags merged into the config.

    solve=True appends the scheme and then the k-set (require="grid" demands
    a grid), built in that order, so a config with several faults reports
    the first of them in every subcommand alike.
    """
    cfg = _config(args)
    lat = _build_lattice(cfg)
    V = _build_potential(cfg, lat)
    if not solve:
        return cfg, lat, V
    return cfg, lat, V, _build_scheme(cfg), _build_kset(cfg, lat, require)


def _solve_bands(cfg: dict, lat: Lattice, V: FourierPotential, scheme: Scheme,
                 kset: KPointSet) -> tuple[BandStructure, dict]:
    """The shared solve of bands, dos and fermi on a run context (see
    _run_context), which the caller builds first so that it can check its
    own fields before any k is solved: nbands (default 4) bands at each k,
    and the run record that their outputs carry, with the lattice and
    potential digests and a modified run's resolved blow-up spec."""
    bands = compute_bands(lat, V, kset, _field(cfg, "ec", float), scheme,
                          _field(cfg, "nbands", int, 4, above=0),
                          threads=_field(cfg, "threads", int, 1, above=0))
    record = {"lattice_digest": digest_of(lat.to_dict()), "potential_digest": V.digest(),
              "Ec": bands.Ec, "scheme": scheme.tag, "n_bands": bands.n_bands}
    if scheme.blowup is not None:
        record["blowup"] = scheme.blowup.spec.to_dict()
    return bands, record


def _output_dir(cfg: dict) -> Path:
    """Create the output directory and echo the merged config into it."""
    out = Path(_field(cfg, "out", str, "."))
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "resolved_config.json", cfg)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_csv(path, header: list, rows) -> None:
    """CSV of a header and rows of numbers, each cell float(v) at full double
    precision (.17g), so a bool reads 1 or 0."""
    lines = [",".join(header)] + [",".join(f"{float(v):.17g}" for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_bands(args) -> int:
    cfg, lat, V, scheme, kset = _run_context(args, solve=True)
    bands, record = _solve_bands(cfg, lat, V, scheme, kset)
    out = _output_dir(cfg)
    _write_csv(out / "bands.csv", [f"k_frac_{i + 1}" for i in range(lat.dim)]
               + [f"band_{n + 1}" for n in range(bands.n_bands)],
               ([*lat.fractional(k), *row] for k, row in zip(kset.points, bands.energies)))
    _write_json(out / "summary.json", {
        "command": "bands", "n_k": len(kset), "labels": {str(i): s for i, s in kset.labels.items()},
        **record,
    })
    print(f"wrote {out / 'bands.csv'} ({len(kset)} k-points, {bands.n_bands} bands)")
    return EXIT_OK


def cmd_dos(args) -> int:
    cfg, lat, V, scheme, kset = _run_context(args, solve=True, require="grid")
    count = _field(cfg, "mu_points", int, 200, above=0)
    bands, record = _solve_bands(cfg, lat, V, scheme, kset)
    lo, hi = float(bands.energies.min()), float(bands.energies.max())
    margin = 0.05 * (hi - lo) if hi > lo else 1.0
    mus = np.linspace(lo - margin, hi + margin, count)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        rows = [(mu, idos(bands, mu), idoe(bands, mu)) for mu in mus]
        truncated = any(issubclass(w.category, TruncationWarning) for w in caught)
    out = _output_dir(cfg)
    _write_csv(out / "dos.csv", ["mu", "idos", "idoe"], rows)
    _write_json(out / "summary.json", {"command": "dos", "truncated_top_band": truncated, **record})
    print(f"wrote {out / 'dos.csv'} ({len(mus)} levels)")
    return EXIT_OK


def cmd_fermi(args) -> int:
    cfg, lat, V, scheme, kset = _run_context(args, solve=True, require="grid")
    electrons = _field(cfg, "electrons", float, 1.0, above=0)
    bands, record = _solve_bands(cfg, lat, V, scheme, kset)
    level = fermi_level(bands, electrons)
    out = _output_dir(cfg)
    _write_json(out / "fermi.json", {
        "command": "fermi", "mu": level.mu, "plateau_lower": level.lower,
        "plateau_upper": level.upper,
        "gap_width": level.upper - level.lower if level.upper > level.lower else None,
        **record,
    })
    print(f"fermi level mu = {level.mu:.12g} (plateau [{level.lower:.12g}, {level.upper:.12g}])")
    return EXIT_OK


def cmd_converge(args) -> int:
    cfg, lat, V, scheme, kset = _run_context(args, solve=True)
    ladder = _floats(cfg, "ec_ladder")
    ec_ref = _field(cfg, "ec_reference", float, 16.0 * max(ladder, default=0.0))
    band_index = _field(cfg, "band_index", int, 1, above=0)
    threads = _field(cfg, "threads", int, 1, above=0)
    r = None if cfg.get("sobolev_r") is None else _field(cfg, "sobolev_r", float)
    if r is None and "synth" in (cfg.get("potential") or {}):  # null: zero potential
        r = float(cfg["potential"]["synth"]["t"]) - lat.dim / 2.0
    study = convergence_study(lat, V, band_index, kset, ladder, scheme, ec_ref,
                              r_potential=r, threads=threads)
    out = _output_dir(cfg)
    _write_csv(out / "converge.csv", ["ec", "error", "clamped"],
               zip(study.ec_ladder, study.errors, study.clamped))
    _write_json(out / "converge.json", {
        "command": "converge", "fitted_rate": study.fitted_rate,
        "fitted_rate_full": study.fitted_rate_full,
        "r_potential": study.r_potential,
        "predicted_rate": study.predicted_rate, "ec_reference": ec_ref,
        "band_index": band_index, "scheme": scheme.tag,
    })
    if study.fitted_rate is None:
        print("no rate could be fitted: every error in the fit window is exact")
    else:
        print(f"fitted rate {study.fitted_rate:.3f}"
              + ("" if study.predicted_rate is None
                 else f" (predicted {study.predicted_rate:.3f})"))
    return EXIT_OK


def cmd_regularity(args) -> int:
    cfg, lat, V = _run_context(args)
    spec = _build_blowup(_field(cfg, "blowup", dict, {})).spec
    deltas = _floats(cfg, "deltas", [1e-2, 5e-3, 2.5e-3, 1.25e-3])
    probe = regularity_probe(
        lat, V, _field(cfg, "ec", float), spec,
        band_index=_field(cfg, "band_index", int, 1, above=0),
        order=_field(cfg, "derivative_order", int, 1),
        deltas=deltas, threads=_field(cfg, "threads", int, 1, above=0),
    )
    out = _output_dir(cfg)
    _write_csv(out / "regularity.csv", ["delta", "peak"], zip(probe.deltas, probe.peaks))
    _write_json(out / "regularity.json", {
        "command": "regularity", "verdict": probe.verdict,
        "band_index": probe.band_index, "derivative_order": probe.order,
        "change_points": [list(map(float, k)) for k in probe.change_points],
    })
    print(f"order-{probe.order} derivative of band {probe.band_index}: {probe.verdict}")
    return EXIT_OK


def cmd_periodicity(args) -> int:
    cfg, lat, V = _run_context(args)
    names = _field(cfg, "schemes", list, ["uniform", "kdep", "modified"])
    schemes = [_build_scheme(cfg, _as(name, str, "schemes")) for name in names]
    rng = np.random.default_rng(_field(cfg, "seed", int, 0, above=-1))
    count = _field(cfg, "k_samples", int, 50)
    if count < 1:
        raise ValueError(f"config field 'k_samples' must be >= 1, got {count}: "
                         f"the k-point set would be empty")
    fracs = rng.uniform(-0.5, 0.5, size=(count, lat.dim))
    samples = fracs @ lat.reciprocal.T
    shifts = [tuple(_coords(s, int, "shifts", lat.dim))
              for s in _field(cfg, "shifts", list, [[1] + [0] * (lat.dim - 1)])]
    report = periodicity_report(lat, V, _field(cfg, "ec", float), schemes, samples, shifts,
                                n_bands=_field(cfg, "nbands", int, 1, above=0),
                                threads=_field(cfg, "threads", int, 1, above=0))
    out = _output_dir(cfg)
    _write_json(out / "periodicity.json", {"command": "periodicity", **report})
    for tag, worst in report.items():
        print(f"{tag:>10}: max |e(k) - e(k+G)| = {worst:.3e}")
    return EXIT_OK


def cmd_cellscan(args) -> int:
    cfg, base, saved = _run_context(args)
    ladder = _field(cfg, "a_ladder", dict, {})
    center = _field(ladder, "a_ladder.center", float, 1.0)
    span = _field(ladder, "a_ladder.span", float, 0.05)
    count = _field(ladder, "a_ladder.count", int, 50, above=2)
    if center == 0.0 or span == 0.0:
        raise ValueError(f"config field 'a_ladder' needs a nonzero center and span, "
                         f"got {json.dumps(ladder)}")
    if not abs(span) < 1.0:
        raise ValueError(f"config field 'a_ladder.span' must satisfy |span| < 1, got {span}: "
                         f"the ladder scales the cell by 1 - |span| to 1 + |span|")
    a_values = np.linspace(center * (1.0 - span), center * (1.0 + span), count)
    unit = base.primitive / center
    if "file" in (cfg.get("potential") or {}):
        # a saved potential belongs to the base cell; its integer-indexed
        # coefficients are reused unchanged on every scaled cell
        def make_potential(lat):
            return replace(saved, lattice=lat)
    else:
        def make_potential(lat):
            return _build_potential(cfg, lat)

    names = _field(cfg, "schemes", list, ["kdep", "modified"])
    schemes = [_build_scheme(cfg, _as(name, str, "schemes")) for name in names]
    scan = energy_vs_cell_parameter(
        lambda a: new_lattice(a * unit), make_potential, _field(cfg, "ec", float), schemes,
        a_values, n_electrons=_field(cfg, "electrons", float, 1.0, above=0),
        grid_n=_field(cfg, "grid", int, 6, above=0),
        n_bands=_field(cfg, "nbands", int, 6, above=0),
        threads=_field(cfg, "threads", int, 1, above=0),
    )
    out = _output_dir(cfg)
    tags = [s.tag for s in schemes]
    rows = [
        [a] + [scan.energies[tag][i] for tag in tags]
        for i, a in enumerate(scan.a_values)
    ]
    _write_csv(out / "cellscan.csv", ["a"] + [f"energy_{t}" for t in tags], rows)
    _write_json(out / "cellscan.json", {
        "command": "cellscan",
        "second_differences": scan.second_differences,
    })
    for tag in tags:
        print(f"{tag:>10}: max |second difference| = {scan.second_differences[tag]:.6g}")
    return EXIT_OK


def cmd_potential_synth(args) -> int:
    cfg = _config(args)
    synth = {key: vars(args)["potential.synth." + key] for key in ("t", "gmax", "amplitude")}
    cfg["potential"] = {"synth": synth}
    V = _build_potential(cfg, _build_lattice(cfg))
    out = Path(_field(cfg, "out", str, "."))
    out.mkdir(parents=True, exist_ok=True)
    # no NaN or Infinity literal: they are not JSON, and no reader takes them back
    (out / "potential.json").write_text(json.dumps(V.to_dict(), indent=2, allow_nan=False) + "\n")
    print(f"wrote {out / 'potential.json'} ({len(V.coeffs)} coefficients)")
    return EXIT_OK


def cmd_blowup_check(args) -> int:
    fn = build_blowup(_blowup_spec(vars(args)))  # --m, --p, --c, --a, --msmooth
    payload = {
        **fn.spec.to_dict(),
        "value_at_half": fn.eval(0.5),
        "value_at_a": fn.eval(fn.spec.a),
        "domination_margin": fn.domination_margin,
        "junction_mismatch": fn.junction_mismatch,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


# Each config-reading subcommand: its function, its help and the top-level
# config keys it reads beyond lattice, potential, out and seed.  It takes
# --config, --out, --seed and the _FLAGS rows of those keys, and no other flag.
_COMMANDS = {
    "bands": (cmd_bands, "band structure along a path or grid",
              "ec scheme blowup nbands grid path threads"),
    "dos": (cmd_dos, "integrated density of states and energy sweep",
            "ec scheme blowup nbands grid threads mu_points"),
    "fermi": (cmd_fermi, "Fermi level for a given electron count",
              "ec scheme blowup nbands grid threads electrons"),
    "converge": (cmd_converge, "cutoff convergence study against a reference",
                 "ec_ladder scheme blowup grid path threads ec_reference band_index sobolev_r"),
    "regularity": (cmd_regularity, "band derivative mesh-refinement probe",
                   "ec blowup threads band_index deltas derivative_order"),
    "periodicity": (cmd_periodicity, "band periodicity violation report",
                    "ec blowup nbands threads k_samples shifts schemes"),
    "cellscan": (cmd_cellscan, "total energy along a cell parameter ladder",
                 "ec blowup nbands grid electrons threads a_ladder schemes"),
    "potential synth": (cmd_potential_synth, "synthesize a power-law potential", "potential"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandlab",
        description="plane-wave band structures with k-dependent and "
                    "blow-up-modified discretizations",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    # allow_abbrev=False: a prefix such as --ec must not pass for --ec-ladder
    for name, (func, doc, keys) in _COMMANDS.items():
        group, _, name = name.rpartition(" ")
        parent = subs if not group else subs.add_parser(
            group, help=f"{group} utilities", allow_abbrev=False,
        ).add_subparsers(dest="subcommand", required=True)
        sub = parent.add_parser(name, help=doc, allow_abbrev=False)
        sub.add_argument("--config", help="JSON configuration file")
        for option, dest, kwargs in _FLAGS:
            if dest.partition(".")[0] in ("out", "seed", *keys.split()):
                sub.add_argument(option, dest=dest, **kwargs)
        sub.set_defaults(func=func, keys=keys.split())

    blow = subs.add_parser("blowup", help="blow-up function utilities", allow_abbrev=False)
    blow_subs = blow.add_subparsers(dest="subcommand", required=True)
    check = blow_subs.add_parser("check", help="validate a blow-up specification",
                                 allow_abbrev=False)
    check.add_argument("--m", type=int, required=True, help="smoothness order m")
    check.add_argument("--p", type=float, required=True, help="tail exponent p")
    check.add_argument("--c", type=float, default=None, help="tail constant C")
    check.add_argument("--a", type=float, default=0.75, help="junction point a")
    check.add_argument("--msmooth", type=int, default=None, help="junction smoothness order")
    check.set_defaults(func=cmd_blowup_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
