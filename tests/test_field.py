"""Plane-wave Beltrami expansions: exact eigenfield identities, the bounds on
their defects, the scalar lift and the finite-difference eigen oracle."""

from types import SimpleNamespace

import numpy as np
import pytest

from knotflows import field
from knotflows.curves import LinkSpec
from knotflows.field import (NEAR_PHASE, BeltramiExpansion, _cos_sin_near, direction_set,
                             eigen_bounds, make_basis, polarization_pair)
from knotflows.paper import (HelmholtzScalarExpansion, beltramize, check_points,
                             fd_curl_divergence, to_scalar_components)
from knotflows.presets import circle

from conftest import fd_jacobian


def _random_expansion(n_dirs=7, lam=1.0, seed=11):
    rng = np.random.default_rng(seed)
    k, e = make_basis(n_dirs, rng)
    m = k.shape[0]
    return BeltramiExpansion(lam, k, e, rng.standard_normal(m),
                             rng.standard_normal(m))


def test_cos_sin_near_matches_libm_to_2_ulp():
    # a dense grid of [-1/2, 1/2] with both ends, signed zeros, values near
    # 1e-300 (where d^2 underflows) and the last doubles inside the bound;
    # sin(-0.0) reads +0.0, which the angle addition does not see
    edge = np.nextafter(NEAR_PHASE, 0.0)
    tiny = np.array([1e-300, 3.7e-300, 1e-308, 5e-324, 1e-160, 1e-8])
    d = np.concatenate([np.linspace(-NEAR_PHASE, NEAR_PHASE, 400_001), [0.0, -0.0],
                        tiny, -tiny, [edge, -edge]])
    assert NEAR_PHASE == 0.5 and d.min() == -0.5 and d.max() == 0.5
    given = d.copy()
    c, s = _cos_sin_near(d)
    assert np.array_equal(d, given)
    for got, want in ((c, np.cos(d)), (s, np.sin(d))):
        assert np.all(np.abs(got - want) <= 2.0 * np.spacing(np.abs(want)))


def test_single_member_axis_wave():
    # k = z, e = x: Re N = (cos lam z, -sin lam z, 0), Im N = (sin, cos, 0)
    lam = 2.0
    k = np.array([[0.0, 0.0, 1.0]])
    e = np.array([[1.0, 0.0, 0.0]])
    z = np.linspace(-1.0, 1.0, 9)
    pts = np.column_stack([np.zeros_like(z), np.zeros_like(z), z])
    re_n = BeltramiExpansion(lam, k, e, [1.0], [0.0])(pts)
    im_n = BeltramiExpansion(lam, k, e, [0.0], [1.0])(pts)
    expect_re = np.column_stack([np.cos(lam * z), -np.sin(lam * z), np.zeros_like(z)])
    expect_im = np.column_stack([np.sin(lam * z), np.cos(lam * z), np.zeros_like(z)])
    assert np.max(np.abs(re_n - expect_re)) < 1e-14
    assert np.max(np.abs(im_n - expect_im)) < 1e-14


def test_value_at_origin_is_alpha_e_plus_beta_f():
    u = _random_expansion()
    expect = u.alpha @ u.e + u.beta @ np.cross(u.k, u.e)
    assert np.max(np.abs(u(np.zeros(3)) - expect)) < 1e-13


def test_curl_equals_lam_u_by_finite_differences():
    u = _random_expansion(lam=1.3)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.0, 1.0, (20, 3))
    for x in pts:
        jac = fd_jacobian(u, x)
        curl = np.array([jac[2, 1] - jac[1, 2],
                         jac[0, 2] - jac[2, 0],
                         jac[1, 0] - jac[0, 1]])
        val = u(x)
        assert np.linalg.norm(curl - u.lam * val) < 1e-6 * max(np.linalg.norm(val), 1.0)
        assert abs(np.trace(jac)) < 1e-7


def test_analytic_jacobian_matches_finite_differences():
    u = _random_expansion(lam=0.8, seed=5)
    rng = np.random.default_rng(2)
    for x in rng.uniform(-2.0, 2.0, (10, 3)):
        assert np.max(np.abs(u.jet(x)[1] - fd_jacobian(u, x))) < 1e-6


def test_analytic_curl_residual_and_trace():
    u = _random_expansion(n_dirs=12, lam=3.0)
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1.0, 1.0, (50, 3))
    jac = u.jet(pts)[1]
    curl = np.stack([jac[:, 2, 1] - jac[:, 1, 2],
                     jac[:, 0, 2] - jac[:, 2, 0],
                     jac[:, 1, 0] - jac[:, 0, 1]], axis=-1)
    assert np.max(np.abs(curl - u.lam * u(pts))) < 1e-10
    assert np.max(np.abs(np.trace(jac, axis1=-2, axis2=-1))) < 1e-12


def test_jet_matches_call_and_is_traceless():
    u = _random_expansion(n_dirs=12, lam=1.7, seed=4)
    pts = np.random.default_rng(8).uniform(-3.0, 3.0, (30, 3))
    val, jac = u.jet(pts)
    ref = u(pts)
    assert val.shape == (30, 3) and jac.shape == (30, 3, 3)
    assert np.max(np.abs(val - ref)) < 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(np.trace(jac, axis1=-2, axis2=-1))) < 1e-12
    val1, jac1 = u.jet(pts[3])
    assert val1.shape == (3,) and jac1.shape == (3, 3)
    assert np.max(np.abs(val1 - u(pts[3]))) < 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(jac1 - jac[3])) < 1e-13 * np.max(np.abs(jac))


def _rulings(rng, n, lam_h, u):
    """n rulings with cores in [-1, 1]^3 and unit directions, and 9 t-nodes whose
    largest |t| max|B| is lam_h (B = lam k.e1 over the members of u)."""
    core = rng.uniform(-1.0, 1.0, (n, 3))
    e1 = rng.standard_normal((n, 3))
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    t = np.linspace(-1.0, 1.0, 9) * lam_h / np.max(np.abs(e1 @ u.lk))
    return core, e1, t, core[:, None, :] + t[None, :, None] * e1[:, None, :]


def test_on_rulings_matches_call_within_the_members_rounding(monkeypatch):
    # the series against the direct sum on the grid, for h up to NEAR_PHASE;
    # both are exact but for rounding, which the members' sum bounds
    terms = []
    taylor_terms = field._taylor_terms
    monkeypatch.setattr(field, "_taylor_terms", lambda h: terms.append(h) or taylor_terms(h))
    rng = np.random.default_rng(21)
    for seed, lam in ((3, 1.0), (4, 1.7), (5, 0.3)):
        u = _random_expansion(n_dirs=60, lam=lam, seed=seed)
        bound = 4.0 * 2.0**-52 * np.sum(np.linalg.norm(u.cos_table[:, :3], axis=1)
                                        + np.linalg.norm(u.sin_table[:, :3], axis=1))
        for lam_h in (0.0, 1e-3, 0.014, 0.1, 0.3, 0.999 * NEAR_PHASE):
            core, e1, t, x = _rulings(rng, 40, lam_h, u)
            got = u.on_rulings(core, e1, t)
            assert got.shape == (40, 9, 3)
            assert np.max(np.abs(got - u(x.reshape(-1, 3)).reshape(x.shape))) <= bound
    # every call took the series, none the fallback
    assert len(terms) == 18 and max(terms) <= NEAR_PHASE


def test_on_rulings_past_near_phase_is_call_on_the_grid(monkeypatch):
    monkeypatch.setattr(field, "_taylor_terms", lambda h: pytest.fail("series taken"))
    u = _random_expansion(n_dirs=30, lam=1.3, seed=6)
    rng = np.random.default_rng(22)
    for lam_h in (1.001 * NEAR_PHASE, 3.0):
        core, e1, t, x = _rulings(rng, 25, lam_h, u)
        assert np.array_equal(u.on_rulings(core, e1, t), u(x.reshape(-1, 3)).reshape(x.shape))
    # a non-finite t or ruling direction takes the fallback too
    core, e1, t, _ = _rulings(rng, 25, 0.1, u)
    t[4], e1[3, 1] = np.nan, np.nan
    x = core[:, None, :] + t[None, :, None] * e1[:, None, :]
    assert np.array_equal(u.on_rulings(core, e1, t), u(x.reshape(-1, 3)).reshape(x.shape),
                          equal_nan=True)


def test_direction_set_quasi_uniform():
    dirs = direction_set(6)
    assert np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) < 1e-12
    dots = dirs @ dirs.T
    np.fill_diagonal(dots, -1.0)
    # 6 Fibonacci points stay at least 40 degrees apart
    assert np.degrees(np.arccos(np.max(dots))) > 40.0
    assert direction_set(1).shape == (1, 3)
    with pytest.raises(ValueError):
        direction_set(0)


def test_direction_set_rotation_preserves_geometry():
    base = direction_set(32)
    rot = direction_set(32, np.random.default_rng(4))
    assert np.max(np.abs(np.linalg.norm(rot, axis=1) - 1.0)) < 1e-12
    # a rigid rotation preserves the Gram matrix
    assert np.max(np.abs(base @ base.T - rot @ rot.T)) < 1e-10


def test_make_basis_polarizations():
    k, e = make_basis(10, np.random.default_rng(2))
    assert k.shape == (10, 3) and e.shape == (10, 3)
    # one member per direction, in the order of the direction set
    assert np.array_equal(k, direction_set(10, np.random.default_rng(2)))
    assert np.max(np.abs(np.sum(k * e, axis=1))) < 1e-12
    assert np.max(np.abs(np.linalg.norm(e, axis=1) - 1.0)) < 1e-12


@pytest.mark.parametrize("n", [200, 400, 1200])
def test_polarization_pair_on_rows_is_each_row_alone_bit_for_bit(n):
    # the reference: one direction at a time, normalized by np.linalg.norm;
    # a last-bit change in e would move the fit
    def one(k):
        axis = np.zeros(3)
        axis[np.argmin(np.abs(k))] = 1.0
        e1 = np.cross(k, axis)
        e1 /= np.linalg.norm(e1)
        return e1, np.cross(k, e1)

    dirs = direction_set(n, np.random.default_rng(n))
    e, f = polarization_pair(dirs)
    assert np.array_equal(e, np.array([one(k)[0] for k in dirs]))
    assert np.array_equal(f, np.array([one(k)[1] for k in dirs]))
    assert all(np.array_equal(polarization_pair(k)[0], one(k)[0]) for k in dirs[:5])


def test_member_validation():
    with pytest.raises(ValueError, match="unit"):
        BeltramiExpansion(1.0, [[0.0, 0.0, 2.0]], [[1.0, 0.0, 0.0]], [1.0], [0.0])
    with pytest.raises(ValueError, match="k . e"):
        BeltramiExpansion(1.0, [[0.0, 0.0, 1.0]], [[0.0, 0.0, 1.0]], [1.0], [0.0])
    with pytest.raises(ValueError, match="nonzero"):
        BeltramiExpansion(0.0, [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]], [1.0], [0.0])
    for lam, alpha in ((np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            BeltramiExpansion(lam, [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]], [alpha], [0.0])
    # shapes: k and e must be (m, 3), alpha and beta (m,); nothing broadcasts
    k3 = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    e3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for k, e, alpha, beta in (
            (k3, e3, [1.0], [0.0]),                        # one coefficient, 3 members
            (k3, e3, np.ones((3, 1)), np.zeros((3, 1))),   # (m, 1) coefficients
            (k3, e3, 1.0, 0.0),                            # scalar coefficients
            ([[1.0, 0.0]], [[0.0, 1.0]], [1.0], [0.0]),    # 2-vectors
            ([[0.0, 0.0, 1.0]], [[1.0, 0.0]], [1.0], [0.0]),
            ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [1.0], [0.0])):  # k not (m, 3)
        with pytest.raises(ValueError, match="shape"):
            BeltramiExpansion(1.0, k, e, alpha, beta)


def test_expansion_equality_by_value_and_unhashable():
    u, v = _random_expansion(), _random_expansion()
    assert u is not v
    assert (u == v) is True and (u != v) is False
    assert u != _random_expansion(seed=12)
    assert u != _random_expansion(lam=2.0)
    assert u != BeltramiExpansion(u.lam, u.k, u.e, u.alpha, 2.0 * u.beta)
    assert u != BeltramiExpansion(u.lam, u.k[:-1], u.e[:-1], u.alpha[:-1], u.beta[:-1])
    assert u != "not an expansion"
    with pytest.raises(TypeError, match="BeltramiExpansion"):
        hash(u)


def test_beltramize_fixes_beltrami_inputs():
    # canonical polarizations so the coefficient comparison is literal
    rng = np.random.default_rng(21)
    dirs = direction_set(9, rng)
    e = np.array([polarization_pair(k)[0] for k in dirs])
    u = BeltramiExpansion(2.0, dirs, e, rng.standard_normal(9),
                          rng.standard_normal(9))
    v = beltramize(*to_scalar_components(u))
    assert v.lam == u.lam
    assert np.max(np.abs(v.k - u.k)) == 0.0
    assert np.max(np.abs(v.alpha - u.alpha)) < 1e-12
    assert np.max(np.abs(v.beta - u.beta)) < 1e-12


def test_beltramize_fixes_field_values_for_any_polarization():
    u = _random_expansion(n_dirs=6, lam=1.7, seed=3)
    v = beltramize(*to_scalar_components(u))
    pts = np.random.default_rng(1).uniform(-1.0, 1.0, (40, 3))
    assert np.max(np.abs(v(pts) - u(pts))) < 1e-12


def test_beltramize_annihilates_anti_beltrami_inputs():
    rng = np.random.default_rng(8)
    dirs = direction_set(5, rng)
    amps = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    # p = e - i k x e is the curl = -lam branch; the lift must kill it
    p = np.array([a * (polarization_pair(k)[0] - 1j * np.cross(k, polarization_pair(k)[0]))
                  for a, k in zip(amps, dirs)])
    comps = tuple(HelmholtzScalarExpansion(1.0, dirs, p[:, i]) for i in range(3))
    v = beltramize(*comps)
    assert np.max(np.abs(v.alpha)) < 1e-12
    assert np.max(np.abs(v.beta)) < 1e-12
    pts = rng.uniform(-1.0, 1.0, (10, 3))
    assert np.max(np.abs(v(pts))) < 1e-12


def test_beltramize_input_validation():
    dirs = direction_set(4)
    w = HelmholtzScalarExpansion(1.0, dirs, np.ones(4, dtype=complex))
    w_lam = HelmholtzScalarExpansion(2.0, dirs, np.ones(4, dtype=complex))
    with pytest.raises(ValueError, match="lambda"):
        beltramize(w, w, w_lam)
    other = HelmholtzScalarExpansion(1.0, direction_set(4, np.random.default_rng(0)),
                                     np.ones(4, dtype=complex))
    with pytest.raises(ValueError, match="direction"):
        beltramize(w, w, other)


def test_scalar_components_reproduce_cartesian_values():
    u = _random_expansion(n_dirs=5, lam=2.2, seed=17)
    w1, w2, w3 = to_scalar_components(u)
    pts = np.random.default_rng(6).uniform(-1.5, 1.5, (30, 3))
    vals = u(pts)
    assert np.max(np.abs(w1(pts) - vals[:, 0])) < 1e-12
    assert np.max(np.abs(w2(pts) - vals[:, 1])) < 1e-12
    assert np.max(np.abs(w3(pts) - vals[:, 2])) < 1e-12


def test_helmholtz_scalar_explicit_value():
    k = np.array([[1.0, 0.0, 0.0]])
    w = HelmholtzScalarExpansion(3.0, k, np.array([2.0 - 1.0j]))
    x = np.array([[0.4, 0.0, 0.0], [0.0, 5.0, -1.0]])
    expect = np.array([2.0 * np.cos(1.2) + np.sin(1.2), 2.0])
    assert np.max(np.abs(w(x) - expect)) < 1e-14


# the exact unit members along the axes: every defect is 0.0 in floating point
AXIS_K = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
AXIS_E = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def test_eigen_bounds_move_by_the_member_defect():
    # exact members bound nothing; |k| = 1 + 1e-13 and k.e = 2e-13 pass
    # _check_members (1e-12), and each moves its bound by lam c_j times that
    # member's defect
    lam, alpha, beta = 1.5, np.array([3.0, -1.0, 0.5]), np.array([4.0, 2.0, 0.0])
    assert eigen_bounds(BeltramiExpansion(lam, AXIS_K, AXIS_E, alpha, beta)) == (0.0, 0.0)
    c = np.hypot(alpha, beta)
    k = AXIS_K.copy()
    k[0, 2] = 1.0 + 1e-13
    curl, div = eigen_bounds(BeltramiExpansion(lam, k, AXIS_E, alpha, beta))
    assert curl == pytest.approx(lam * c[0] * np.linalg.norm(AXIS_E[0]) * (k[0] @ k[0] - 1.0),
                                 rel=1e-12)
    assert 0.0 < curl < 1e-11 and div == 0.0
    e = AXIS_E.copy()
    e[1, 0] = 2e-13
    curl, div = eigen_bounds(BeltramiExpansion(lam, AXIS_K, e, alpha, beta))
    assert div == pytest.approx(lam * c[1] * abs(AXIS_K[1] @ e[1]), rel=1e-12)
    # |k| = 1 exactly here, so the curl term is k (k.e): the same defect
    assert curl == pytest.approx(div, rel=1e-12)


def test_eigen_bounds_are_reached_by_one_defective_member():
    # one member far from unit (BeltramiExpansion would refuse it) as the
    # field u = A e + B (k x e), A = alpha cos + beta sin, B = beta cos - alpha
    # sin of lam k.x: over one period of the phase, central differences of u
    # reach each bound, where |A| or |B| reaches hypot(alpha, beta)
    lam, alpha, beta = 1.5, 0.6, -0.8
    k, e = np.array([0.1, 0.2, 1.05]), np.array([1.0, 0.03, 0.0])
    f = np.cross(k, e)
    member = SimpleNamespace(lam=lam, k=k[None], e=e[None], alpha=np.array([alpha]),
                             beta=np.array([beta]))

    def u(x):
        ph = lam * x @ k
        return (np.outer(alpha * np.cos(ph) + beta * np.sin(ph), e)
                + np.outer(beta * np.cos(ph) - alpha * np.sin(ph), f))

    pts = np.outer(np.linspace(0.0, 2.0 * np.pi / lam, 256, endpoint=False), k / (k @ k))
    h = 1e-5
    jac = np.stack([(u(pts + h * d) - u(pts - h * d)) / (2.0 * h) for d in np.eye(3)],
                   axis=2)
    curl = np.stack([jac[:, 2, 1] - jac[:, 1, 2], jac[:, 0, 2] - jac[:, 2, 0],
                     jac[:, 1, 0] - jac[:, 0, 1]], axis=1)
    curl_fd = np.max(np.linalg.norm(curl - lam * u(pts), axis=1))
    div_fd = np.max(np.abs(np.trace(jac, axis1=1, axis2=2)))
    curl_bound, div_bound = eigen_bounds(member)
    assert curl_bound > 0.1 and div_bound > 0.01
    # 256 phases sample the maximum of |cos| to within 1 - cos(pi/256)
    assert curl_bound * (1.0 - 1e-4) < curl_fd < curl_bound * (1.0 + 1e-6)
    assert div_bound * (1.0 - 1e-4) < div_fd < div_bound * (1.0 + 1e-6)


def test_check_points_deterministic_and_in_box():
    link = LinkSpec(1.0, tuple(circle()))
    a = check_points(link, 100, seed=0)
    b = check_points(link, 100, seed=0)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, check_points(link, 100, seed=1))
    # the box inflates the link's sample cloud by 0.5 on each side
    assert a.shape == (100, 3)
    assert np.all(a >= [-1.5, -1.5, -0.5]) and np.all(a <= [1.5, 1.5, 0.5])


def test_fd_curl_divergence_on_exact_beltrami():
    u = BeltramiExpansion(1.5, [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]], [1.0], [0.0])
    pts = np.random.default_rng(2).uniform(-1, 1, (50, 3))
    curl_rel, div_max = fd_curl_divergence(u, pts)
    assert curl_rel < 1e-9
    assert div_max < 1e-11


def test_fd_curl_divergence_flags_non_beltrami():
    class Shear:
        lam = 1.0

        def __call__(self, pts):
            pts = np.atleast_2d(pts)
            out = np.zeros_like(pts)
            out[:, 0] = pts[:, 1]      # u = (y, 0, 0): curl = -z_hat != u
            return out

    curl_rel, div_max = fd_curl_divergence(Shear(), np.array([[0.3, 0.7, -0.2]]))
    assert curl_rel > 0.5
    assert div_max < 1e-10
