import numpy as np
import pytest
from numpy.testing import assert_allclose

import signorini_lab as sl
from conftest import yeoh_energy
from signorini_lab.material import (
    MANDEL9,
    cofactor,
    det_minus_one_from_deviation,
    g_from_deviation,
    qi_bilinear,
    solve_volume_correction,
    sym_to_mandel,
    yeoh_density,
)


def random_rotation(rng):
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def incompressible_limit_oracle(hmat, mat, step=2e-5):
    """h^-2 W(I + hH + h^2 K) with det = 1 solved exactly: the stated FD oracle
    for the quadratic form along volume-preserving paths. The remainder is
    O(step), so one Richardson step removes the leading term."""

    def value(s):
        k = solve_volume_correction(hmat, s)
        d = s * hmat + s**2 * k * np.eye(3)
        return yeoh_density(g_from_deviation(d), mat) / s**2

    return 2.0 * value(step / 2.0) - value(step)


def test_yeoh_identity_is_zero():
    m = sl.yeoh_material(1.0, 1.0, 1.0)
    assert yeoh_energy(np.eye(3), m) == 0.0


def test_yeoh_value_frozen():
    # g = |F|^2 - 3 = 2.25; W = g + g^2 + g^3 evaluated independently
    g = 2.25
    expected = g + g**2 + g**3
    m = sl.yeoh_material(1.0, 1.0, 1.0)
    assert_allclose(yeoh_energy(np.diag([2.0, 1.0, 0.5]), m), expected, rtol=1e-15)
    assert_allclose(expected, 18.703125)


def test_frame_indifference():
    m = sl.yeoh_material(1.0, 0.2, 0.1)
    rng = np.random.default_rng(0)
    for _ in range(100):
        f = rng.standard_normal((3, 3))
        r = random_rotation(rng)
        assert_allclose(yeoh_energy(r @ f, m), yeoh_energy(f, m), rtol=1e-12,
                        atol=1e-14)


def test_elastic_tensor_against_finite_differences():
    # central differences of t -> W(I + tH) on symmetric trace-free probes see
    # the plain Hessian (the linear term of W drops out): H:C:H in Mandel form
    e = np.eye(3)
    probes = [np.diag([1.0, -1.0, 0.0]), np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0),
              *(np.outer(e[i], e[j]) + np.outer(e[j], e[i]) for i, j in ((0, 1), (0, 2), (1, 2)))]
    step = 1e-4
    for coeffs in [(1.0, 0.2, 0.1), (2.0, 0.0, 0.0), (0.7, 1.3, 0.4)]:
        m = sl.yeoh_material(*coeffs)
        c6 = m.elastic_tensor
        assert_allclose(c6, c6.T)
        for h in probes:
            fd = (yeoh_energy(np.eye(3) + step * h, m)
                  + yeoh_energy(np.eye(3) - step * h, m)) / step**2
            v = sym_to_mandel(h)
            assert abs(fd - v @ c6 @ v) <= 1e-6 * max(abs(v @ c6 @ v), 1.0)
        # plain Hessian on a trace-free shear: (1/2) H:C:H = c1 |H|^2
        h = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        v = sym_to_mandel(h)
        assert_allclose(0.5 * v @ c6 @ v, coeffs[0] * 2.0, rtol=1e-12)


def test_elastic_tensor_fd_probe_values():
    # direct central differences reproduce 2 c1 |H|^2 + 8 c2 (tr H)^2
    m = sl.yeoh_material(1.0, 0.3, 0.05)
    rng = np.random.default_rng(3)
    step = 1e-4
    for _ in range(5):
        h = rng.standard_normal((3, 3))
        h -= np.trace(h) / 3.0 * np.eye(3)
        fd = (yeoh_energy(np.eye(3) + step * h, m)
              + yeoh_energy(np.eye(3) - step * h, m)) / step**2
        assert_allclose(fd, 2.0 * (h * h).sum() * m.c1, rtol=1e-5)


def test_quadratic_form_infeasible_off_trace_free():
    m = sl.yeoh_material(1.0)
    assert sl.quadratic_form_QI(np.zeros((3, 3)), m) == 0.0
    assert sl.quadratic_form_QI(np.eye(3), m) == np.inf


def test_quadratic_form_matches_incompressible_path_oracle():
    # The value on trace-free strains must agree with the finite-difference
    # oracle along exactly volume-preserving paths. For the simple shear
    # E = sym(e1 x e3) the oracle gives 2 c1 |E|^2 = 1.0 at c1 = 1 (the path
    # F = I + t e1 x e3 has det = 1 exactly and W = c1 t^2 + O(t^4)).
    m = sl.yeoh_material(1.0)
    e = 0.5 * (np.outer([1, 0, 0], [0, 0, 1]) + np.outer([0, 0, 1], [1, 0, 0]))
    oracle = incompressible_limit_oracle(np.outer([1.0, 0, 0], [0, 0, 1.0]), m)
    assert_allclose(sl.quadratic_form_QI(e, m), oracle, rtol=1e-8)
    assert_allclose(sl.quadratic_form_QI(e, m), 1.0, rtol=1e-12)


@pytest.mark.parametrize("coeffs", [(1.0, 0.0, 0.0), (1.0, 0.2, 0.1)])
def test_quadratic_form_oracle_random_probes(coeffs):
    m = sl.yeoh_material(*coeffs)
    rng = np.random.default_rng(9)
    for _ in range(6):
        h = rng.standard_normal((3, 3))
        h -= np.trace(h) / 3.0 * np.eye(3)
        e = 0.5 * (h + h.T)
        assert_allclose(sl.quadratic_form_QI(e, m),
                        incompressible_limit_oracle(h, m), rtol=1e-6)


def test_c2_c3_zero_gives_pure_shear_modulus():
    m = sl.yeoh_material(1.0, 0.0, 0.0)
    rng = np.random.default_rng(4)
    h = rng.standard_normal((3, 3))
    h = 0.5 * (h + h.T)
    h -= np.trace(h) / 3.0 * np.eye(3)
    assert_allclose(sl.quadratic_form_QI(h, m), 2.0 * (h * h).sum(), rtol=1e-12)


def test_mandel_roundtrip():
    rng = np.random.default_rng(1)
    e = rng.standard_normal((3, 3))
    e = 0.5 * (e + e.T)
    assert_allclose((sym_to_mandel(e) @ MANDEL9).reshape(3, 3), e, rtol=1e-15)
    v = sym_to_mandel(e)
    assert_allclose(v @ v, (e * e).sum(), rtol=1e-14)


def test_qi_bilinear_polarization():
    m = sl.yeoh_material(1.3, 0.4, 0.2)
    rng = np.random.default_rng(2)
    e1 = rng.standard_normal((3, 3))
    e1 = 0.5 * (e1 + e1.T)
    e2 = rng.standard_normal((3, 3))
    e2 = 0.5 * (e2 + e2.T)
    pol = 0.25 * (qi_bilinear(e1 + e2, e1 + e2, m) - qi_bilinear(e1 - e2, e1 - e2, m))
    assert_allclose(qi_bilinear(e1, e2, m), pol, rtol=1e-12)


def test_volume_correction_solves_det():
    rng = np.random.default_rng(5)
    for step in (1e-1, 1e-3):
        h = rng.standard_normal((3, 3))
        h -= np.trace(h) / 3.0 * np.eye(3)
        k = solve_volume_correction(h, step)
        d = step * h + step**2 * k * np.eye(3)
        assert abs(det_minus_one_from_deviation(d)) < 1e-14 * max(1.0, step**2)


def _exact_det_minus_one(d):
    """det(I + D) - 1 in rational arithmetic from the float entries of D."""
    from fractions import Fraction

    f = [[Fraction(float(d[i, j])) + (i == j) for j in range(3)] for i in range(3)]
    det = (f[0][0] * (f[1][1] * f[2][2] - f[1][2] * f[2][1])
           - f[0][1] * (f[1][0] * f[2][2] - f[1][2] * f[2][0])
           + f[0][2] * (f[1][0] * f[2][1] - f[1][1] * f[2][0]))
    return float(det - 1)


def test_det_minus_one_matches_det():
    rng = np.random.default_rng(11)
    eye = np.eye(3)
    for shape, scale in (((162,), 0.3), ((4, 5), 1.0)):
        d = scale * rng.standard_normal(shape + (3, 3))
        got = det_minus_one_from_deviation(d)
        assert got.shape == shape
        assert_allclose(got, np.linalg.det(eye + d) - 1.0, rtol=0, atol=1e-13)
    d = rng.standard_normal((3, 3))
    got = det_minus_one_from_deviation(d)
    assert np.ndim(got) == 0
    assert abs(got - (np.linalg.det(eye + d) - 1.0)) <= 1e-13
    # at |D| ~ 1e-6 det(I + D) - 1 in floating point loses six digits to
    # cancellation; the expansion must not, so the oracle is exact
    for _ in range(20):
        d = 1e-6 * rng.standard_normal((3, 3))
        exact = _exact_det_minus_one(d)
        assert abs(det_minus_one_from_deviation(d) - exact) <= 1e-12 * abs(exact)


def test_taylor_remainder_table(yeoh):
    table = sl.verify_taylor_remainder(yeoh)
    hs = sorted(table, reverse=True)
    vals = [table[h] for h in hs]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-7
    assert vals[-1] <= 1e-3


def test_taylor_remainder_zero_probe(yeoh):
    table = sl.verify_taylor_remainder(yeoh, probes=[np.zeros((3, 3))])
    assert all(v == 0.0 for v in table.values())


def test_taylor_remainder_order_with_cubic_correction_only():
    # c2 = c3 = 0: the remainder comes from the cubic determinant correction
    # alone and scales like h
    m = sl.yeoh_material(1.0, 0.0, 0.0)
    table = sl.verify_taylor_remainder(m, h_values=(1e-2, 1e-3, 1e-4))
    ratio1 = table[1e-2] / table[1e-3]
    ratio2 = table[1e-3] / table[1e-4]
    assert 5.0 < ratio1 < 20.0
    assert 5.0 < ratio2 < 20.0


def test_nonnegative_on_unit_determinant():
    m = sl.yeoh_material(1.0, 0.2, 0.1)
    rng = np.random.default_rng(6)
    for _ in range(200):
        a = rng.standard_normal((3, 3))
        det = np.linalg.det(a)
        if abs(det) < 1e-6:
            continue
        f = a / np.cbrt(abs(det))
        if det < 0:
            f[:, 0] = -f[:, 0]
        assert np.linalg.det(f) > 0.999
        assert yeoh_energy(f, m) >= -1e-12


def distance_to_rotations(f):
    """Euclidean distance d(F, SO(3)) via singular values."""
    u, s, vt = np.linalg.svd(np.asarray(f, dtype=float))
    if np.linalg.det(u @ vt) < 0:
        s = s.copy()
        s[-1] = -s[-1]
    return float(np.sqrt(((s - 1.0) ** 2).sum()))


def test_coercivity_surrogate_fit():
    # W(F) >= C d(F, SO(3))^2 on sampled unit-determinant matrices; the fitted
    # constant is reported positive, never assumed
    m = sl.yeoh_material(1.0, 0.2, 0.1)
    rng = np.random.default_rng(7)
    ratios = []
    for _ in range(100):
        a = np.eye(3) + 0.5 * rng.standard_normal((3, 3))
        det = np.linalg.det(a)
        if det <= 1e-3:
            continue
        f = a / np.cbrt(det)
        dist = distance_to_rotations(f)
        if dist > 1e-8:
            ratios.append(yeoh_energy(f, m) / dist**2)
    c_fit = min(ratios)
    assert c_fit > 0.0


def test_cofactor_is_det_gradient():
    rng = np.random.default_rng(8)
    f = rng.standard_normal((3, 3))
    cof = cofactor(f)
    step = 1e-6
    for i in range(3):
        for j in range(3):
            fp = f.copy()
            fp[i, j] += step
            fm = f.copy()
            fm[i, j] -= step
            fd = (np.linalg.det(fp) - np.linalg.det(fm)) / (2 * step)
            assert_allclose(cof[i, j], fd, rtol=1e-7, atol=1e-9)


def test_material_validation():
    with pytest.raises(sl.MaterialError):
        sl.yeoh_material(-1.0)
    with pytest.raises(sl.MaterialError):
        sl.yeoh_material(1.0, -0.1)
