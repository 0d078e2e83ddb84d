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
    _check_ladder,
    convergence_study,
    energy_vs_cell_parameter,
    make_reference,
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


# Top-level config keys each subcommand knows: every key a common flag can set,
# plus lattice and potential, and the subcommand's own keys.  Any other key
# (a typo such as "nband") is a configuration error.
_COMMON_KEYS = frozenset({"lattice", "potential", "blowup", "ec", "ec_ladder", "electrons",
                          "grid", "nbands", "out", "path", "scheme", "seed", "threads"})
_KNOWN_KEYS = {
    "bands": _COMMON_KEYS,
    "dos": _COMMON_KEYS | {"mu_points"},
    "fermi": _COMMON_KEYS,
    "converge": _COMMON_KEYS | {"ec_reference", "band_index", "sobolev_r"},
    "regularity": _COMMON_KEYS | {"band_index", "deltas", "derivative_order"},
    "periodicity": _COMMON_KEYS | {"k_samples", "shifts", "schemes"},
    "cellscan": _COMMON_KEYS | {"a_ladder", "schemes"},
    "potential": _COMMON_KEYS,
}
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


def _parse_path_flag(text: str) -> list:
    nodes = []
    for token in text.split():
        label, _, coords = token.partition(":")
        if not coords:
            raise ValueError(f"path node {token!r} must look like LABEL:c1,c2")
        nodes.append([label, [float(v) for v in coords.split(",")]])
    if len(nodes) < 2:
        raise ValueError("--path needs at least two nodes")
    return nodes


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
    blowup.m or path.nodes sets that key of the nested object."""
    cfg = {} if args.config is None else _read_object(args.config, "config file")
    _check_keys(cfg, _KNOWN_KEYS[args.command], "", f"bandlab {args.command}")
    for dest, value in vars(args).items():
        top, _, key = dest.rpartition(".")
        if (top or key) in _COMMON_KEYS and value is not None:
            if key == "ec_ladder":
                value = [float(v) for v in value.split(",")]
            elif dest == "path.nodes":
                value = _parse_path_flag(value)
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
        seed = _field(s, "seed", int, None)
        return synth_power_law(
            lat, t=_field(s, "t", float), gmax=_field(s, "gmax", int, above=-1),
            seed=_field(cfg, "seed", int, 0) if seed is None else seed,
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
    _check_ladder(ladder, ec_ref)  # before the reference solve
    band_index = _field(cfg, "band_index", int, 1, above=0)
    threads = _field(cfg, "threads", int, 1, above=0)
    r = None if cfg.get("sobolev_r") is None else _field(cfg, "sobolev_r", float)
    if r is None and "synth" in (cfg.get("potential") or {}):  # null: zero potential
        r = float(cfg["potential"]["synth"]["t"]) - lat.dim / 2.0
    reference = make_reference(lat, V, kset, ec_ref, band_index, threads=threads)
    study = convergence_study(lat, V, band_index, kset, ladder, scheme, reference,
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
    rng = np.random.default_rng(_field(cfg, "seed", int, 0))
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
    cfg["potential"] = {"synth": {"t": args.t, "gmax": args.gmax, "amplitude": args.amplitude}}
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


def _add_common_flags(sub) -> None:
    sub.add_argument("--config", help="JSON configuration file")
    sub.add_argument("--ec", type=float, help="plane-wave cutoff energy")
    sub.add_argument("--ec-ladder", dest="ec_ladder", help="comma-separated cutoffs")
    sub.add_argument("--scheme", choices=sorted(_SCHEME_NAMES), help="discretization scheme")
    sub.add_argument("--blowup-m", dest="blowup.m", type=int, help="blow-up order m")
    sub.add_argument("--blowup-p", dest="blowup.p", type=float, help="blow-up tail exponent p")
    sub.add_argument("--blowup-c", dest="blowup.c", type=float, help="blow-up tail constant C")
    sub.add_argument("--blowup-a", dest="blowup.a", type=float, help="blow-up junction point a")
    sub.add_argument("--nbands", type=int, help="number of bands")
    sub.add_argument("--grid", type=int, help="uniform grid size per dimension")
    sub.add_argument("--path", dest="path.nodes",
                     help="k-path nodes, e.g. 'G:0 X:0.5' (fractional)")
    sub.add_argument("--electrons", type=float, help="electrons per unit cell")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--seed", type=int, help="random seed")
    sub.add_argument("--threads", type=int, help="worker threads for k-point solves")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandlab",
        description="plane-wave band structures with k-dependent and "
                    "blow-up-modified discretizations",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, func, doc in (
        ("bands", cmd_bands, "band structure along a path or grid"),
        ("dos", cmd_dos, "integrated density of states and energy sweep"),
        ("fermi", cmd_fermi, "Fermi level for a given electron count"),
        ("converge", cmd_converge, "cutoff convergence study against a reference"),
        ("regularity", cmd_regularity, "band derivative mesh-refinement probe"),
        ("periodicity", cmd_periodicity, "band periodicity violation report"),
        ("cellscan", cmd_cellscan, "total energy along a cell parameter ladder"),
    ):
        sub = subs.add_parser(name, help=doc)
        _add_common_flags(sub)
        sub.set_defaults(func=func)

    pot = subs.add_parser("potential", help="potential utilities")
    pot_subs = pot.add_subparsers(dest="subcommand", required=True)
    synth = pot_subs.add_parser("synth", help="synthesize a power-law potential")
    _add_common_flags(synth)
    synth.add_argument("--t", type=float, required=True, help="decay exponent")
    synth.add_argument("--gmax", type=int, required=True, help="coefficient box radius")
    synth.add_argument("--amplitude", type=float, default=1.0, help="global scale")
    synth.set_defaults(func=cmd_potential_synth)

    blow = subs.add_parser("blowup", help="blow-up function utilities")
    blow_subs = blow.add_subparsers(dest="subcommand", required=True)
    check = blow_subs.add_parser("check", help="validate a blow-up specification")
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
