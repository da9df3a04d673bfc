"""Command-line interface: exit codes, file round trips, subcommand behavior."""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from knotflows import cli, pipeline
from knotflows.dynamics import IntegrationError
from knotflows.field import BeltramiExpansion
from knotflows.fileio import load_field, save_field, save_link, save_seeds
from knotflows.curves import LinkSpec
from knotflows.pipeline import VerificationOutcome
from knotflows.presets import circle

from conftest import CRITERIA, rotating_orbit


def _axis_field(tmp_path, lam=1.0, name="field.json"):
    u = BeltramiExpansion(lam, np.array([[0.0, 0.0, 1.0]]),
                          np.array([[1.0, 0.0, 0.0]]),
                          np.array([1.0]), np.array([0.0]))
    path = tmp_path / name
    save_field(u, path)
    return u, path


def _circle_link(tmp_path, lam=1.0, name="link.json"):
    path = tmp_path / name
    save_link(LinkSpec(lam, tuple(circle())), path)
    return path


def test_usage_errors_exit_2(tmp_path):
    assert cli.main([]) == 2
    assert cli.main(["synthesize"]) == 2
    assert cli.main(["sample", "--nope"]) == 2


def test_flags_of_the_other_command_exit_2(tmp_path):
    # each subcommand takes only the flags it reads
    link = _circle_link(tmp_path)
    _, field = _axis_field(tmp_path)
    assert cli.main(["verify", "--field", str(field), "--link", str(link),
                     "--directions", "5"]) == 2
    # verify samples no points: the direction seed is synthesize's alone
    assert cli.main(["verify", "--field", str(field), "--link", str(link),
                     "--seed", "1"]) == 2
    args = cli.build_parser().parse_args(["synthesize", "--link", str(link),
                                          "--out", "f.json", "--seed", "3"])
    assert cli._config_from_args(args, 1.0).seed == 3
    out = tmp_path / "out.json"
    assert cli.main(["synthesize", "--link", str(link), "--out", str(out),
                     "--rtol", "1e-8"]) == 2
    assert not out.exists()


def test_missing_and_malformed_inputs_exit_2(tmp_path, capsys):
    _, field = _axis_field(tmp_path)
    assert cli.main(["sample", "--field", str(tmp_path / "absent.json"),
                     "--grid", "0:1:2,0:1:2,0:1:2",
                     "--out", str(tmp_path / "t.csv")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    assert cli.main(["sample", "--field", str(bad), "--grid", "0:1:2,0:1:2,0:1:2",
                     "--out", str(tmp_path / "t.csv")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [
    "0:1:2,0:1:2",            # only two axes
    "0:1:1,0:1:2,0:1:2",      # count below 2
    "a:1:2,0:1:2,0:1:2",      # non-numeric bound
    "0:inf:2,0:1:2,0:1:2",    # non-finite bound
    "0:1,0:1:2,0:1:2",        # missing count
])
def test_bad_grid_specs_exit_2(tmp_path, grid):
    _, field = _axis_field(tmp_path)
    assert cli.main(["sample", "--field", str(field), "--grid", grid,
                     "--out", str(tmp_path / "t.csv")]) == 2


def test_sample_matches_expansion_bitwise(tmp_path):
    u, field = _axis_field(tmp_path)
    out = tmp_path / "samples.csv"
    assert cli.main(["sample", "--field", str(field),
                     "--grid", "0:1:2,-1:1:2,0:0.5:2", "--out", str(out)]) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    assert table.shape == (8, 6)
    xs, ys, zs = np.meshgrid(np.linspace(0, 1, 2), np.linspace(-1, 1, 2),
                             np.linspace(0, 0.5, 2), indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])
    assert np.array_equal(table[:, :3], pts)
    assert np.array_equal(table[:, 3:], u(pts))


def test_sample_as_subprocess(tmp_path):
    _, field = _axis_field(tmp_path)
    out = tmp_path / "samples.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "knotflows.cli", "sample", "--field", str(field),
         "--grid", "0:1:2,0:1:2,0:1:2", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "8 samples" in proc.stdout
    assert out.exists()


def test_certifier_imports_neither_paper_nor_marcher():
    # the paper's scaffolding and the local marcher stay outside what
    # synthesize and verify load
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, knotflows.cli, knotflows.pipeline; "
         "print(sorted(m for m in ('knotflows.paper', 'knotflows.marcher') "
         "if m in sys.modules))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_trace_writes_polylines(tmp_path):
    _, field = _axis_field(tmp_path)
    seeds = tmp_path / "seeds.json"
    save_seeds(np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]), seeds)
    out = tmp_path / "traces"
    assert cli.main(["trace", "--field", str(field), "--seeds", str(seeds),
                     "--t-end", "1.0", "--samples", "16",
                     "--out", str(out)]) == 0
    files = sorted(out.glob("trace_*.csv"))
    assert [f.name for f in files] == ["trace_000.csv", "trace_001.csv"]
    table = np.loadtxt(files[0], delimiter=",", skiprows=1)
    assert table.shape == (16, 4)
    assert table[0, 0] == 0.0 and table[-1, 0] == 1.0
    # axis wave from the origin: u = (cos z, -sin z, 0) so the flow stays
    # in the z = 0 plane and moves at unit speed along x
    assert abs(table[-1, 1] - 1.0) < 1e-8
    assert np.max(np.abs(table[:, 3])) < 1e-12


def test_trace_degenerate_and_empty(tmp_path):
    _, field = _axis_field(tmp_path)
    seeds = tmp_path / "seeds.json"
    save_seeds(np.array([[0.25, 0.0, 0.125]]), seeds)
    out = tmp_path / "single"
    # t-end 0 writes --samples rows, like any other t-end: copies of the seed
    assert cli.main(["trace", "--field", str(field), "--seeds", str(seeds),
                     "--t-end", "0", "--samples", "4", "--out", str(out)]) == 0
    table = np.loadtxt(out / "trace_000.csv", delimiter=",", skiprows=1)
    assert np.array_equal(table, np.tile([0.0, 0.25, 0.0, 0.125], (4, 1)))

    save_seeds(np.zeros((0, 3)), seeds)
    empty = tmp_path / "none"
    assert cli.main(["trace", "--field", str(field), "--seeds", str(seeds),
                     "--t-end", "1.0", "--out", str(empty)]) == 0
    assert list(empty.glob("*.csv")) == []

    assert cli.main(["trace", "--field", str(field), "--seeds", str(seeds),
                     "--t-end", "-1.0", "--out", str(empty)]) == 2
    # one sample would be the seed row alone; none once meant the solver's steps
    fresh = tmp_path / "fresh"
    for samples in ("1", "0"):
        assert cli.main(["trace", "--field", str(field), "--seeds", str(seeds),
                         "--t-end", "1.0", "--samples", samples, "--out", str(fresh)]) == 2
    # a non-finite t-end would make the solver spin
    for t_end in ("nan", "inf"):
        assert cli.main(["trace", "--field", str(field), "--seeds", str(seeds),
                         "--t-end", t_end, "--out", str(fresh)]) == 2
    assert not fresh.exists()


def test_verify_lambda_mismatch_exit_2(tmp_path, capsys):
    link = _circle_link(tmp_path, lam=1.0)
    _, field = _axis_field(tmp_path, lam=2.0)
    assert cli.main(["verify", "--field", str(field), "--link", str(link)]) == 2
    assert "lambda mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("failed, code", [
    pytest.param(set(), 0, id="none"),
    pytest.param({"cauchy_closedness"}, 3, id="cauchy_closedness"),
    pytest.param({"strip_residual_budget", "orbits_converged", "linking_matrix"}, 3,
                 id="strip_residual_budget-orbits_converged-linking_matrix"),
    pytest.param({"orbits_converged"}, 4, id="orbits_converged"),
    pytest.param({"orbits_hyperbolic", "orbits_confined"}, 4,
                 id="orbits_hyperbolic-orbits_confined"),
    pytest.param({"unit_determinant"}, 4, id="unit_determinant"),
    pytest.param({"orbits_confined"}, 5, id="orbits_confined"),
    pytest.param({"hausdorff_distance"}, 5, id="hausdorff_distance"),
    pytest.param({"linking_matrix"}, 5, id="linking_matrix"),
    pytest.param({"eigen_relation"}, 3, id="eigen_relation"),
    pytest.param({"eigen_relation", "orbits_converged"}, 4,
                 id="eigen_relation-orbits_converged"),
    pytest.param({"eigen_relation", "hausdorff_distance"}, 5,
                 id="eigen_relation-hausdorff_distance"),
])
def test_verify_exit_code_mapping(tmp_path, monkeypatch, failed, code):
    link = _circle_link(tmp_path)
    _, field = _axis_field(tmp_path)

    def fake(link, expansion, config=None):
        criteria = [{"name": name, "passed": name not in failed, "detail": "-"}
                    for name in CRITERIA]
        return VerificationOutcome(report={"criteria": criteria}, passed=not failed)

    monkeypatch.setattr(cli, "verify", fake)
    assert cli.main(["verify", "--field", str(field), "--link", str(link)]) == code


def test_exit_code_table_names_every_criterion():
    # a criterion with no row would fail with exit code 0; test_report_schema
    # pins CRITERIA to verify's report
    assert sorted(n for row, _ in cli.VERIFY_EXIT_CODES for n in row) == sorted(CRITERIA)


def test_verify_junk_field_exits_3(tmp_path, capsys):
    # a single axis wave is far over the strip budget of a circle: verify
    # reports the budget failure first, and no orbit is refined for it
    link = _circle_link(tmp_path)
    _, field = _axis_field(tmp_path)
    code = cli.main(["verify", "--field", str(field), "--link", str(link),
                     "--rtol", "1e-8", "--atol", "1e-10"])
    assert code == 3
    out = capsys.readouterr().out
    assert "[FAIL] strip_residual_budget" in out
    assert "[FAIL] orbits_converged" in out


def test_verify_scaled_coefficients_fail_eigen_relation_and_exit_3(unknot_run, tmp_path,
                                                                   capsys):
    # 1e6 times the coefficients is 1e6 times the member-defect bounds, which
    # then exceed the 1e-8 gate (so does the strip residual its budget)
    u = unknot_run["synthesis"].expansion
    field = tmp_path / "scaled.json"
    save_field(BeltramiExpansion(u.lam, u.k, u.e, 1e6 * u.alpha, 1e6 * u.beta), field)
    link = _circle_link(tmp_path)
    report = tmp_path / "report.json"
    assert cli.main(["verify", "--field", str(field), "--link", str(link),
                     "--report", str(report)]) == 3
    assert "[FAIL] eigen_relation" in capsys.readouterr().out
    bounds = json.loads(report.read_text())["eigen_relation"]
    base = unknot_run["report"]["eigen_relation"]
    for key in ("curl_bound", "div_bound"):
        assert bounds[key] == pytest.approx(1e6 * base[key], rel=1e-12)
    assert bounds["curl_bound"] > 1e-8


def test_bad_tolerance_exits_2_before_any_geometry(tmp_path, capsys, monkeypatch):
    # a NaN rtol would make the integrator's step loop spin for good
    def verify(*args, **kwargs):
        raise AssertionError("verify reached with an invalid config")

    monkeypatch.setattr(cli, "verify", verify)
    link = _circle_link(tmp_path)
    _, field = _axis_field(tmp_path)
    t0 = time.thread_time()
    code = cli.main(["verify", "--field", str(field), "--link", str(link),
                     "--rtol", "nan"])
    assert code == 2 and time.thread_time() - t0 < 5.0
    assert "rtol" in capsys.readouterr().err
    seeds = tmp_path / "seeds.json"
    save_seeds(np.zeros((0, 3)), seeds)
    assert cli.main(["trace", "--field", str(field), "--seeds", str(seeds),
                     "--t-end", "1.0", "--out", str(tmp_path / "t"),
                     "--atol", "nan"]) == 2


def test_synthesize_closedness_failure_exits_3_without_a_field(tmp_path, capsys,
                                                               monkeypatch):
    monkeypatch.setattr(pipeline, "CLOSEDNESS_TOL", 1e-18)
    link = _circle_link(tmp_path)
    out = tmp_path / "field.json"
    assert cli.main(["synthesize", "--link", str(link), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "closedness" in err
    assert not out.exists()


def test_synthesize_linear_algebra_failure_exits_1_without_a_field(tmp_path, capsys,
                                                                   monkeypatch):
    # numpy's LinAlgError is a ValueError, but a failed SVD is no input error
    def fails(link, config):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    monkeypatch.setattr(cli, "synthesize", fails)
    out = tmp_path / "field.json"
    assert cli.main(["synthesize", "--link", str(_circle_link(tmp_path)),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("unexpected error: LinAlgError") and "SVD" in err
    assert not out.exists()


def test_verify_elliptic_orbit_exits_4_with_its_report(unknot_run, tmp_path, capsys,
                                                      monkeypatch):
    # an orbit whose multipliers are e^(+-0.64i): the report is still written,
    # each complex multiplier as [re, im], and every criterion is printed
    monkeypatch.setattr(pipeline, "refine_orbit", lambda *a, **k: rotating_orbit())
    field = tmp_path / "field.json"
    save_field(unknot_run["synthesis"].expansion, field)
    link = _circle_link(tmp_path)
    report = tmp_path / "report.json"
    assert cli.main(["verify", "--field", str(field), "--link", str(link),
                     "--report", str(report)]) == 4
    out = capsys.readouterr().out
    assert len(out.splitlines()) == len(CRITERIA)
    assert all(name in out for name in CRITERIA)
    assert "[FAIL] orbits_hyperbolic" in out
    comp = json.loads(report.read_text())["components"][0]
    assert comp["classification"] == "elliptic"
    got = sorted(comp["multipliers"], key=lambda z: z[1])
    expect = [[np.cos(0.64), -np.sin(0.64)], [np.cos(0.64), np.sin(0.64)]]
    assert np.max(np.abs(np.array(got) - expect)) < 1e-12


def test_trace_failure_of_one_seed_exits_4(tmp_path, capsys, monkeypatch):
    # the first of two seeds fails to integrate: the second is still traced
    integrate = cli.integrate
    calls = []

    def fails_first(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise IntegrationError("integration failed: step size too small")
        return integrate(*args, **kwargs)

    monkeypatch.setattr(cli, "integrate", fails_first)
    _, field = _axis_field(tmp_path)
    seeds = tmp_path / "seeds.json"
    save_seeds(np.zeros((2, 3)), seeds)
    out = tmp_path / "traces"
    assert cli.main(["trace", "--field", str(field), "--seeds", str(seeds),
                     "--t-end", "1.0", "--out", str(out)]) == 4
    assert not (out / "trace_000.csv").exists()
    assert (out / "trace_001.csv").exists()
    assert "seed 0: integration failed" in capsys.readouterr().err


def test_synthesize_under_resourced_exits_3(tmp_path, capsys):
    link = _circle_link(tmp_path)
    out = tmp_path / "field.json"
    code = cli.main(["synthesize", "--link", str(link), "--out", str(out),
                     "--directions", "12"])
    assert code == 3
    # the field file is still written so the failure can be inspected
    assert out.exists()
    captured = capsys.readouterr()
    assert "OVER BUDGET" in captured.out
    assert "enlarge the direction set" in captured.err


def test_synthesize_verify_round_trip(tmp_path, capsys):
    link = _circle_link(tmp_path)
    field = tmp_path / "field.json"
    syn_report = tmp_path / "syn.json"
    ver_report = tmp_path / "ver.json"
    assert cli.main(["synthesize", "--link", str(link), "--out", str(field),
                     "--report", str(syn_report)]) == 0
    out = capsys.readouterr().out
    assert "tube 0: strip residual" in out and "[ok]" in out
    syn = json.loads(syn_report.read_text())
    assert syn["kind"] == "synthesis" and syn["fit"]["success"]

    assert cli.main(["verify", "--field", str(field), "--link", str(link),
                     "--report", str(ver_report)]) == 0
    out = capsys.readouterr().out
    assert "[pass] orbits_hyperbolic" in out
    report = json.loads(ver_report.read_text())
    assert report["passed"] is True
    assert report["components"][0]["winding"] == 1
    # the field file must reload to the exact synthesized expansion
    back = load_field(field)
    assert back.n_members == json.loads(syn_report.read_text())["fit"]["basis_members"]
