"""File formats: link specs, field files, seed lists, reports, delimited tables.

Everything is JSON (human-readable structured text) with an explicit schema
field. Floats serialize through repr, the shortest round-tripping decimal form,
so save/load cycles are bitwise exact.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import presets
from .curves import FourierCurve, LinkSpec
from .field import BeltramiExpansion

LINK_SCHEMA = "knotflows.link/1"
FIELD_SCHEMA = "knotflows.field/1"
SEEDS_SCHEMA = "knotflows.seeds/1"
REPORT_SCHEMA = "knotflows.report/2"


class FileFormatError(ValueError):
    """Malformed or mismatched input file."""


def _require(cond, msg):
    if not cond:
        raise FileFormatError(msg)


def _is_number(value) -> bool:
    # a JSON true or false is a Python bool, which is an int
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _no_bools(value, what: str) -> None:
    """Refuse a JSON true or false anywhere in a numeric value (nested lists
    and objects included): numpy and float() would read it as 1.0 or 0.0."""
    if isinstance(value, bool):
        raise FileFormatError(f"{what} must hold numbers, not {str(value).lower()}")
    if isinstance(value, (list, dict)):
        for v in value.values() if isinstance(value, dict) else value:
            _no_bools(v, what)


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), f"{path}: top level must be an object")
    return doc


def _dump_json(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


# link files ----------------------------------------------------------------

def save_link(link: LinkSpec, path) -> None:
    comps = []
    for c in link.components:
        comps.append({"fourier": {
            "cos": [list(c.cos_coeffs[:, i]) for i in range(3)],
            "sin": [list(c.sin_coeffs[:, i]) for i in range(3)],
        }})
    _dump_json({"schema": LINK_SCHEMA, "lambda": link.lam, "components": comps}, path)


def load_link(path, lam_override: float | None = None) -> LinkSpec:
    """Parse a link file: lambda plus preset or explicit-fourier components."""
    doc = _load_json(path)
    _require(doc.get("schema") == LINK_SCHEMA,
             f"{path}: expected schema {LINK_SCHEMA!r}, got {doc.get('schema')!r}")
    lam = doc.get("lambda") if lam_override is None else lam_override
    _require(_is_number(lam), f"{path}: field 'lambda' must be a number")
    comps_doc = doc.get("components")
    _require(isinstance(comps_doc, list) and comps_doc,
             f"{path}: 'components' must be a non-empty list")
    curves: list[FourierCurve] = []
    for i, entry in enumerate(comps_doc):
        _require(isinstance(entry, dict), f"{path}: component {i} must be an object")
        if "preset" in entry:
            name = entry["preset"]
            params = entry.get("params", {})
            _require(isinstance(params, dict), f"{path}: component {i} params must "
                                               "be an object")
            _no_bools(params, f"{path}: component {i} params")
            try:
                curves.extend(presets.generate(name, params))
            except (KeyError, TypeError, ValueError) as exc:
                raise FileFormatError(f"{path}: component {i}: {exc}") from exc
        elif "fourier" in entry:
            four = entry["fourier"]
            _require(isinstance(four, dict) and "cos" in four and "sin" in four,
                     f"{path}: component {i} needs 'cos' and 'sin' arrays")
            _no_bools([four["cos"], four["sin"]], f"{path}: component {i} fourier")
            try:
                cos = np.array(four["cos"], dtype=float).T
                sin = np.array(four["sin"], dtype=float).T
                curves.append(FourierCurve(cos, sin))
            except (ValueError, TypeError) as exc:
                raise FileFormatError(f"{path}: component {i}: {exc}") from exc
        else:
            raise FileFormatError(
                f"{path}: component {i} must carry 'preset' or 'fourier'")
    try:
        return LinkSpec(float(lam), tuple(curves))
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


# field files ---------------------------------------------------------------

def save_field(expansion: BeltramiExpansion, path) -> None:
    members = []
    for j in range(expansion.n_members):
        members.append({"k": list(expansion.k[j]), "e": list(expansion.e[j]),
                        "alpha": float(expansion.alpha[j]),
                        "beta": float(expansion.beta[j])})
    _dump_json({"schema": FIELD_SCHEMA, "lambda": expansion.lam,
                "members": members}, path)


def load_field(path) -> BeltramiExpansion:
    doc = _load_json(path)
    _require(doc.get("schema") == FIELD_SCHEMA,
             f"{path}: expected schema {FIELD_SCHEMA!r}, got {doc.get('schema')!r}")
    lam = doc.get("lambda")
    _require(_is_number(lam) and lam != 0.0,
             f"{path}: field 'lambda' must be a nonzero number")
    members = doc.get("members")
    _require(isinstance(members, list) and members,
             f"{path}: 'members' must be a non-empty list")
    k, e, alpha, beta = [], [], [], []
    for i, m in enumerate(members):
        _require(isinstance(m, dict) and all(key in m for key in ("k", "e", "alpha", "beta")),
                 f"{path}: member {i} needs k, e, alpha, beta")
        _no_bools([m["k"], m["e"], m["alpha"], m["beta"]], f"{path}: member {i}")
        k.append(m["k"])
        e.append(m["e"])
        alpha.append(m["alpha"])
        beta.append(m["beta"])
    try:
        return BeltramiExpansion(float(lam), np.array(k, dtype=float),
                                 np.array(e, dtype=float),
                                 np.array(alpha, dtype=float),
                                 np.array(beta, dtype=float))
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


# seeds, polylines, tables ---------------------------------------------------

def load_seeds(path) -> np.ndarray:
    doc = _load_json(path)
    _require(doc.get("schema") == SEEDS_SCHEMA,
             f"{path}: expected schema {SEEDS_SCHEMA!r}, got {doc.get('schema')!r}")
    seeds = doc.get("seeds")
    _require(isinstance(seeds, list), f"{path}: 'seeds' must be a list")
    _no_bools(seeds, f"{path}: seeds")
    try:
        arr = np.array(seeds, dtype=float).reshape(-1, 3) if not seeds \
            else np.array(seeds, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: seeds must be a list of [x, y, z] "
                              f"triples: {exc}") from exc
    _require(arr.ndim == 2 and arr.shape[1] == 3,
             f"{path}: seeds must be a list of [x, y, z] triples")
    _require(np.isfinite(arr).all(), f"{path}: seeds must be finite")
    return arr


def save_seeds(seeds, path) -> None:
    _dump_json({"schema": SEEDS_SCHEMA,
                "seeds": [list(map(float, s)) for s in np.atleast_2d(seeds)]}, path)


def write_table(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Comma-delimited text with full (repr) precision."""
    rows = zip(*columns)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_report(report: dict, path) -> None:
    _dump_json(report, path)
