"""File formats: bitwise round trips and malformed-input rejection."""

import json

import numpy as np
import pytest

from knotflows import presets
from knotflows.curves import LinkSpec
from knotflows.field import BeltramiExpansion, make_basis
from knotflows.fileio import (FileFormatError, load_field, load_link, load_seeds,
                              save_field, save_link, save_seeds, write_report,
                              write_table)

from conftest import twin_basis


def _expansion(seed=0, lam=1.5, n=3):
    rng = np.random.default_rng(seed)
    k, e = make_basis(n, rng)
    m = k.shape[0]
    return BeltramiExpansion(lam, k, e, rng.standard_normal(m),
                             rng.standard_normal(m))


def test_link_round_trip_is_bitwise(tmp_path):
    link = LinkSpec(np.pi, tuple(presets.trefoil()))
    path = tmp_path / "link.json"
    save_link(link, path)
    back = load_link(path)
    assert back.lam == link.lam
    assert len(back) == 1
    assert np.array_equal(back.components[0].cos_coeffs,
                          link.components[0].cos_coeffs)
    assert np.array_equal(back.components[0].sin_coeffs,
                          link.components[0].sin_coeffs)


def test_link_preset_entries(tmp_path):
    path = tmp_path / "link.json"
    path.write_text(json.dumps({
        "schema": "knotflows.link/1", "lambda": 1.0,
        "components": [{"preset": "hopf", "params": {"radius": 2.0}}]}))
    link = load_link(path)
    expect = presets.hopf(2.0)
    assert len(link) == 2
    for got, want in zip(link.components, expect):
        assert np.array_equal(got.cos_coeffs, want.cos_coeffs)
        assert np.array_equal(got.sin_coeffs, want.sin_coeffs)


def test_link_lambda_override(tmp_path):
    path = tmp_path / "link.json"
    save_link(LinkSpec(1.0, tuple(presets.circle())), path)
    assert load_link(path, lam_override=2.5).lam == 2.5


@pytest.mark.parametrize("doc,msg", [
    ({"schema": "other/1", "lambda": 1.0, "components": []}, "schema"),
    ({"schema": "knotflows.link/1", "lambda": 0.0,
      "components": [{"preset": "circle"}]}, "nonzero"),
    ({"schema": "knotflows.link/1", "lambda": -2.0,
      "components": [{"preset": "circle"}]}, "positive"),
    ({"schema": "knotflows.link/1", "lambda": 1.0, "components": []}, "non-empty"),
    ({"schema": "knotflows.link/1", "lambda": 1.0,
      "components": [{"what": 1}]}, "preset.*fourier|'preset' or 'fourier'"),
    ({"schema": "knotflows.link/1", "lambda": 1.0,
      "components": [{"fourier": {"cos": [[0.0], [0.0], [0.0]]}}]}, "cos.*sin"),
    ({"schema": "knotflows.link/1", "lambda": 1.0,
      "components": [{"preset": "nonesuch"}]}, "nonesuch"),
    ({"schema": "knotflows.link/1", "lambda": 1.0,
      "components": [{"fourier": {"cos": [[0.0, 1.0], [0.0, float("nan")], [0.0, 0.0]],
                                  "sin": [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}}]},
     "component 0.*finite"),
    ({"schema": "knotflows.link/1", "lambda": 1.0,
      "components": [{"preset": "circle", "params": {"radius": float("nan")}}]},
     "component 0.*finite"),
    ({"schema": "knotflows.link/1", "lambda": float("inf"),
      "components": [{"preset": "circle"}]}, "finite"),
    # a JSON boolean is a Python int, but no eigenvalue
    ({"schema": "knotflows.link/1", "lambda": True,
      "components": [{"preset": "circle"}]}, "must be a number"),
    # nor anywhere in a numeric array or preset parameter
    ({"schema": "knotflows.link/1", "lambda": 1.0,
      "components": [{"fourier": {"cos": [[0.0, True], [0.0, 0.0], [0.0, 0.0]],
                                  "sin": [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}}]},
     "component 0 fourier must hold numbers, not true"),
    ({"schema": "knotflows.link/1", "lambda": 1.0,
      "components": [{"fourier": {"cos": [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
                                  "sin": [[0.0, 0.0], [False, 1.0], [0.0, 0.0]]}}]},
     "component 0 fourier must hold numbers, not false"),
    ({"schema": "knotflows.link/1", "lambda": 1.0,
      "components": [{"preset": "circle", "params": {"radius": True}}]},
     "component 0 params must hold numbers, not true"),
    ({"schema": "knotflows.link/1", "lambda": 1.0,
      "components": [{"preset": "torus_knot", "params": {"p": True, "q": 3}}]},
     "component 0 params must hold numbers"),
])
def test_link_malformed_documents(tmp_path, doc, msg):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError, match=msg):
        load_link(path)


def test_unreadable_and_invalid_json(tmp_path):
    with pytest.raises(FileFormatError, match="cannot read"):
        load_link(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(FileFormatError, match="not valid JSON"):
        load_link(bad)
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    with pytest.raises(FileFormatError, match="top level"):
        load_link(lst)


def test_field_round_trip_is_bitwise(tmp_path):
    u = _expansion()
    path = tmp_path / "field.json"
    save_field(u, path)
    back = load_field(path)
    assert back.lam == u.lam
    assert np.array_equal(back.k, u.k)
    assert np.array_equal(back.e, u.e)
    assert np.array_equal(back.alpha, u.alpha)
    assert np.array_equal(back.beta, u.beta)
    pts = np.random.default_rng(1).uniform(-1, 1, (20, 3))
    assert np.array_equal(back(pts), u(pts))


def test_twin_basis_field_file_loads_and_folds(tmp_path):
    # field files written with two polarizations per direction still load,
    # and equal their folded one-member-per-direction form
    rng = np.random.default_rng(4)
    k, e = twin_basis(5, rng)
    alpha, beta = rng.standard_normal(10), rng.standard_normal(10)
    path = tmp_path / "twin.json"
    save_field(BeltramiExpansion(1.5, k, e, alpha, beta), path)
    back = load_field(path)
    assert back.n_members == 10
    folded = BeltramiExpansion(1.5, k[0::2], e[0::2], alpha[0::2] - beta[1::2],
                               beta[0::2] + alpha[1::2])
    pts = rng.uniform(-2.0, 2.0, (40, 3))
    assert np.max(np.abs(back(pts) - folded(pts))) < 1e-12


def test_field_malformed_documents(tmp_path):
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"schema": "knotflows.field/1", "lambda": 1.0,
                                "members": []}))
    with pytest.raises(FileFormatError, match="non-empty"):
        load_field(path)
    path.write_text(json.dumps({"schema": "knotflows.field/1", "lambda": 1.0,
                                "members": [{"k": [0, 0, 1], "e": [1, 0, 0]}]}))
    with pytest.raises(FileFormatError, match="alpha"):
        load_field(path)
    path.write_text(json.dumps({"schema": "knotflows.field/1", "lambda": True,
                                "members": [{"k": [0, 0, 1], "e": [1, 0, 0],
                                             "alpha": 1.0, "beta": 0.0}]}))
    with pytest.raises(FileFormatError, match="nonzero number"):
        load_field(path)
    # a boolean inside a member reads as 1.0 or 0.0 to numpy: refused too
    member = {"k": [0, 0, 1], "e": [1, 0, 0], "alpha": 1.0, "beta": 0.0}
    for bad in ({"alpha": True}, {"beta": False}, {"k": [0, 0, True]},
                {"e": [True, 0, 0]}):
        path.write_text(json.dumps({"schema": "knotflows.field/1", "lambda": 1.0,
                                    "members": [member, {**member, **bad}]}))
        with pytest.raises(FileFormatError, match="member 1 must hold numbers"):
            load_field(path)
    # corrupted member: |k| != 1 must be rejected at load time
    path.write_text(json.dumps({"schema": "knotflows.field/1", "lambda": 1.0,
                                "members": [{"k": [0, 0, 2], "e": [1, 0, 0],
                                             "alpha": 1.0, "beta": 0.0}]}))
    with pytest.raises(FileFormatError, match="unit"):
        load_field(path)
    # malformed member shapes are format errors, not crashes or silent broadcasts
    member = {"k": [0, 0, 1], "e": [1, 0, 0], "alpha": 1.0, "beta": 0.0}
    for bad in ({"alpha": [0.5]}, {"beta": [0.5, 0.1]}, {"k": [1.0, 0.0]},
                {"e": [1.0, 0.0, 0.0, 0.0]}):
        path.write_text(json.dumps({"schema": "knotflows.field/1", "lambda": 1.0,
                                    "members": [member, {**member, **bad}]}))
        with pytest.raises(FileFormatError):
            load_field(path)
        path.write_text(json.dumps({"schema": "knotflows.field/1", "lambda": 1.0,
                                    "members": [{**member, **bad}]}))
        with pytest.raises(FileFormatError, match="shape"):
            load_field(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("key", ["k", "e", "alpha", "beta"])
def test_field_non_finite_member_is_format_error(tmp_path, key, value):
    # json writes and reads NaN and Infinity; a field built on them would make
    # every solver downstream spin or write NaN rows, so loading must refuse it
    member = {"k": [0.0, 0.0, 1.0], "e": [1.0, 0.0, 0.0], "alpha": 1.0, "beta": 0.0}
    member[key] = [0.0, 0.0, value] if key in ("k", "e") else value
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"schema": "knotflows.field/1", "lambda": 1.0,
                                "members": [member]}))
    with pytest.raises(FileFormatError, match="finite"):
        load_field(path)


def test_seeds_round_trip_including_empty(tmp_path):
    path = tmp_path / "seeds.json"
    seeds = np.array([[0.1, -0.2, 0.3], [1.0 / 3.0, np.pi, 1e-17]])
    save_seeds(seeds, path)
    assert np.array_equal(load_seeds(path), seeds)
    save_seeds(np.zeros((0, 3)), path)
    empty = load_seeds(path)
    assert empty.shape == (0, 3)
    save_seeds(np.array([1.0, 2.0, 3.0]), path)
    assert load_seeds(path).shape == (1, 3)


def test_seeds_malformed(tmp_path):
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps({"schema": "knotflows.seeds/1",
                                "seeds": [[1.0, 2.0]]}))
    with pytest.raises(FileFormatError, match="triples"):
        load_seeds(path)
    path.write_text(json.dumps({"schema": "knotflows.seeds/1", "seeds": 5}))
    with pytest.raises(FileFormatError, match="list"):
        load_seeds(path)
    path.write_text(json.dumps({"schema": "knotflows.seeds/1",
                                "seeds": [[0.0, np.inf, 0.0]]}))
    with pytest.raises(FileFormatError, match="finite"):
        load_seeds(path)
    # booleans would read as 1.0 and 0.0; ragged or non-numeric rows are
    # format errors that name the file, not numpy's bare ValueError
    for seeds, msg in (([[True, 0.0, 0.0]], "must hold numbers, not true"),
                       ([[1.0, 0.0, 0.0], [0.0, False, 0.0]], "must hold numbers"),
                       ([[1, 0], [0]], "triples"), ([["a", 0, 0]], "triples"),
                       ([[1.0, 0.0, 0.0], [0.0, [1.0], 0.0]], "triples")):
        path.write_text(json.dumps({"schema": "knotflows.seeds/1", "seeds": seeds}))
        with pytest.raises(FileFormatError, match=msg) as info:
            load_seeds(path)
        assert str(path) in str(info.value)


def test_write_table_full_precision(tmp_path):
    path = tmp_path / "table.csv"
    x = np.array([np.pi, 1.0 / 3.0, 1e-17, -0.1])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    write_table(path, ["x", "y"], [x, y])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,y"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], x)
    assert np.array_equal(back[:, 1], y)


def test_write_report_is_plain_json(tmp_path):
    path = tmp_path / "report.json"
    doc = {"schema": "knotflows.report/1", "passed": True,
           "values": [1.0, 2.5e-17]}
    write_report(doc, path)
    assert json.loads(path.read_text()) == doc
