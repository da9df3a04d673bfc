"""The paper's tolerance schedule bookkeeping and the global least-squares fit."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from knotflows import fitting, presets
from knotflows.config import RunConfig
from knotflows.curves import LinkSpec
from knotflows.field import BeltramiExpansion, make_basis
from knotflows.fitting import design_matrix, fit_global
from knotflows.paper import make_error_budget, multi_index_count
from knotflows.pipeline import build_geometry
from knotflows.strip import GAUSS_T_NODES, CauchyData

from conftest import twin_basis


def _grid(data):
    """The (ns, nt, 3) strip grid of a tube's rulings, core + t e1."""
    return data.core[:, None, :] + data.t[None, :, None] * data.e1[:, None, :]


def _rulings(rng, ns, nt, centre=(0.0, 0.0, 0.0), spread=1.0, half=0.25):
    """ns rulings with seeded cores in the cube centre +- spread and unit
    directions, and nt t-nodes across [-half, half]; at lam = 1 no phase
    offset along a ruling exceeds half, so strip_residual reads the series."""
    core = np.asarray(centre) + rng.uniform(-spread, spread, (ns, 3))
    e1 = rng.standard_normal((ns, 3))
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    return core, e1, np.linspace(-half, half, nt)


def _synthetic_data(core, e1, t, target, weight=None):
    """CauchyData on the grid of the given rulings with targets target(points),
    whose fit rows are the grid itself, column j weighted by weight[j] (by
    default 1: the full-grid fit)."""
    weight = np.ones(t.size) if weight is None else np.asarray(weight, float)
    points = core[:, None, :] + t[None, :, None] * e1[:, None, :]
    w = target(points.reshape(-1, 3)).reshape(points.shape)
    return CauchyData(core=core, e1=e1, t=t, w=w, closedness=0.0,
                      fit_points=points, fit_w=w, fit_sqrt_weight=np.sqrt(weight))


def _full_grid(data):
    """The full-grid reference of a tube's fit rows: every grid node, unit weights."""
    return dataclasses.replace(data, fit_points=_grid(data), fit_w=data.w,
                               fit_sqrt_weight=np.ones(data.t.size))


# integer column weights of _three_tubes, so that a weight counts copies of a row
TUBE_WEIGHTS = (1, 2, 3, 1)


def _three_tubes(rng):
    """Three separated tubes of quadratic targets, which no basis fits exactly;
    their fit rows carry TUBE_WEIGHTS."""
    datas = []
    for centre in ([0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 1.0]):
        rulings = _rulings(rng, 6, len(TUBE_WEIGHTS), centre, spread=0.5)
        datas.append(_synthetic_data(*rulings, np.square, TUBE_WEIGHTS))
    return datas


def test_multi_index_count_small_orders():
    assert multi_index_count(0) == 1
    assert multi_index_count(1) == 4
    assert multi_index_count(2) == 10
    assert multi_index_count(3) == 20
    with pytest.raises(ValueError):
        multi_index_count(-1)


def test_budget_schedule_values():
    budget = make_error_budget([0.7], s=2)
    assert budget.sigma == 10
    # eps_1 = 0.7 / (7 * 10) / 3
    assert abs(budget.epsilon(1) - 0.7 / 210.0) < 1e-15
    assert abs(budget.epsilon(3) - 0.7 / 210.0 / 9.0) < 1e-16
    assert abs(budget.tail(4) - 0.5 * budget.epsilon(4)) < 1e-18
    with pytest.raises(ValueError):
        budget.epsilon(0)


def test_budget_inequalities_hold_strictly():
    for s, sigma in ((0, 1), (1, 4), (2, 10)):
        budget = make_error_budget([1e-3, 2e-3], s=s)
        assert budget.sigma == sigma
        assert budget.verify(50)
        bound = 1e-3 / (6.0 * sigma)
        for m in range(1, 51):
            assert budget.epsilon(m) < bound
            assert budget.tail(m) < budget.epsilon(m)


def test_budget_validation():
    with pytest.raises(ValueError, match="positive"):
        make_error_budget([1e-3, 0.0], s=1)


def test_design_matrix_columns_are_member_fields():
    rng = np.random.default_rng(13)
    k, e = make_basis(3, rng)
    pts = rng.uniform(-1.0, 1.0, (15, 3))
    a = design_matrix(k, e, 1.4, pts)
    assert a.shape == (45, 6)
    for j in range(k.shape[0]):
        re_n = BeltramiExpansion(1.4, k[j:j + 1], e[j:j + 1], [1.0], [0.0])(pts)
        im_n = BeltramiExpansion(1.4, k[j:j + 1], e[j:j + 1], [0.0], [1.0])(pts)
        assert np.max(np.abs(a[:, 2 * j].reshape(15, 3) - re_n)) < 1e-13
        assert np.max(np.abs(a[:, 2 * j + 1].reshape(15, 3) - im_n)) < 1e-13


def test_fit_recovers_single_member_exactly():
    rng = np.random.default_rng(4)
    k, e = make_basis(4, rng)
    target = BeltramiExpansion(1.0, k[2:3], e[2:3], [1.0], [0.0])
    data = _synthetic_data(*_rulings(rng, 12, 5), target)
    fitted, report = fit_global([data], 1e-8, k, e, 1.0, ridge=0.0)
    expect = np.zeros(k.shape[0])
    expect[2] = 1.0
    assert np.max(np.abs(fitted.alpha - expect)) < 1e-8
    assert np.max(np.abs(fitted.beta)) < 1e-8
    probe = rng.uniform(-1.0, 1.0, (30, 3))
    assert np.max(np.abs(fitted(probe) - target(probe))) < 1e-10
    assert report.success
    assert max(report.tube_residuals) < 1e-10
    # one member per direction: full column rank, 2 real fields per member
    assert report.rank == 2 * k.shape[0]


def test_single_basis_at_half_ridge_matches_twin_basis():
    # on the twin basis N2 = -i N1, so the minimum-norm ridge solution splits
    # each coefficient evenly across the twins: twin ridge rho is single rho/2
    datas = _three_tubes(np.random.default_rng(8))
    eps = 1e-3
    ridge = 1e-6
    k2, e2 = twin_basis(6, np.random.default_rng(5))
    twin, twin_report = fit_global(datas, eps, k2, e2, 1.0, ridge=ridge)
    k, e = make_basis(6, np.random.default_rng(5))
    single, report = fit_global(datas, eps, k, e, 1.0, ridge=ridge / 2)
    assert np.array_equal(k, k2[0::2]) and np.array_equal(e, e2[0::2])
    probe = np.random.default_rng(1).uniform(-1.0, 2.5, (200, 3))
    ref = twin(probe)
    assert np.max(np.abs(single(probe) - ref)) < 1e-8 * np.max(np.abs(ref))
    assert np.allclose(report.tube_residuals, twin_report.tube_residuals,
                       rtol=1e-8, atol=0.0)
    # alpha = alpha_1 - beta_2 and beta = beta_1 + alpha_2
    folded = np.concatenate([twin.alpha[0::2] - twin.beta[1::2],
                             twin.beta[0::2] + twin.alpha[1::2]])
    coef = np.concatenate([single.alpha, single.beta])
    assert np.max(np.abs(coef - folded)) < 1e-8 * np.max(np.abs(coef))


def test_fit_reports_failure_with_advice():
    rng = np.random.default_rng(6)
    k, e = make_basis(2, rng)
    # a quadratic target is not in the span of two plane-wave directions
    data = _synthetic_data(*_rulings(rng, 10, 4), np.square)
    _, report = fit_global([data], 1e-10, k, e, 1.0)
    assert not report.success
    assert max(report.tube_residuals) > 1e-10
    assert "enlarge the direction set" in report.advice


def test_fit_residuals_follow_component_permutation():
    # the weights must not depend on the order in which tubes are listed
    rng = np.random.default_rng(8)
    k, e = make_basis(6, rng)
    datas = _three_tubes(rng)
    _, report = fit_global(datas, 1e-3, k, e, 1.0)
    perm = [2, 0, 1]
    _, permuted = fit_global([datas[i] for i in perm], 1e-3, k, e, 1.0)
    expect = [report.tube_residuals[i] for i in perm]
    assert np.allclose(permuted.tube_residuals, expect, rtol=1e-6, atol=0.0)


def test_fit_defaults_are_the_run_config_defaults():
    rng = np.random.default_rng(8)
    k, e = make_basis(6, rng)
    datas = _three_tubes(rng)
    _, report = fit_global(datas, 1e-3, k, e, 1.0)
    assert report.ridge == RunConfig().ridge


def test_fit_requires_one_finite_positive_tolerance():
    rng = np.random.default_rng(0)
    k, e = make_basis(2, rng)
    data = _synthetic_data(*_rulings(rng, 4, 4), np.zeros_like)
    for eps in (0.0, -1e-3, np.nan, np.inf, (1e-3, 2e-3)):
        with pytest.raises(ValueError, match="one finite tolerance > 0"):
            fit_global([data], eps, k, e, 1.0)


def test_streamed_fit_matches_dense_lstsq():
    rng = np.random.default_rng(8)
    k, e = make_basis(6, rng)
    datas = _three_tubes(rng)
    eps, ridge, lam = 1e-3, 1e-6, 1.0
    fitted, report = fit_global(datas, eps, k, e, lam, ridge=ridge)
    # dense reference: the whole ridge-stacked system at once, with a row of
    # integer weight m taken m times
    n = 2 * k.shape[0]
    copies = np.tile(TUBE_WEIGHTS, 6)
    pts = np.vstack([np.repeat(_grid(d).reshape(-1, 3), copies, axis=0) for d in datas])
    a = design_matrix(k, e, lam, pts)
    b = np.concatenate([np.repeat(d.w.reshape(-1, 3), copies, axis=0).reshape(-1)
                        for d in datas])
    a = np.vstack([a, np.sqrt(ridge) * np.eye(n)])
    b = np.concatenate([b, np.zeros(n)])
    coef, _, rank, sv = scipy.linalg.lstsq(a, b, lapack_driver="gelsd")
    streamed = np.empty(n)
    streamed[0::2], streamed[1::2] = fitted.alpha, fitted.beta
    assert np.linalg.norm(streamed - coef) <= 1e-8 * np.linalg.norm(coef)
    assert report.rank == rank
    assert report.condition == pytest.approx(sv[0] / sv[-1], rel=1e-8)
    assert report.weighted_objective == pytest.approx(
        float(np.sum((a @ coef - b) ** 2)), rel=1e-8)


def test_fit_streams_the_design_matrix_in_blocks(monkeypatch):
    rows = []

    def recording(k, e, lam, points):
        out = design_matrix(k, e, lam, points)
        rows.append(out.shape[0])
        return out

    monkeypatch.setattr(fitting, "design_matrix", recording)
    link = LinkSpec(1.0, tuple(presets.hopf(radius=1.0)))
    _, datas = build_geometry(link, RunConfig(strip_s_per_2pi=64))
    k, e = make_basis(6, np.random.default_rng(8))
    _, report = fit_global(datas, 1e-3, k, e, 1.0)
    n_coef = 2 * k.shape[0]
    assert len(rows) > 1
    assert max(rows) <= n_coef + 3
    assert sum(rows) == 3 * report.n_points
    # the fit reads the Gauss rows: GAUSS_T_NODES per s-node of every tube
    assert report.n_points == sum(d.core.shape[0] * GAUSS_T_NODES for d in datas)


@pytest.mark.parametrize("run", ["unknot_run", "hopf_run", "trefoil_run"])
def test_gauss_rows_fit_matches_the_full_grid_fit(run, request):
    # the fixtures' fits on the Gauss rows against the same fit on every grid node
    fixture = request.getfixturevalue(run)
    link, cfg, result = fixture["link"], fixture["config"], fixture["synthesis"]
    _, datas = build_geometry(link, cfg)
    k, e = make_basis(cfg.directions, np.random.default_rng(cfg.seed))
    ref, ref_report = fit_global([_full_grid(d) for d in datas], cfg.eps_tilde, k, e,
                                 link.lam, ridge=cfg.ridge)
    got = np.concatenate([result.expansion.alpha, result.expansion.beta])
    want = np.concatenate([ref.alpha, ref.beta])
    assert np.linalg.norm(got - want) <= 1e-7 * np.linalg.norm(want)
    assert np.allclose(result.fit.tube_residuals, ref_report.tube_residuals,
                       rtol=1e-8, atol=0.0)
    assert ref_report.n_points == sum(d.w[..., 0].size for d in datas)
    assert result.fit.n_points == sum(d.core.shape[0] * GAUSS_T_NODES for d in datas)
