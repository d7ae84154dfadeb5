"""Yeoh stored energy and its linearized quadratic forms.

The energy is W(F) = c1 (|F|^2 - 3) + c2 (...)^2 + c3 (...)^3, homogeneous in x.
Its Hessian at the identity is stored in a 6x6 Mandel layout. Because the Yeoh
stress at the identity is the hydrostatic pressure DW(I) = 2 c1 I (nonzero),
the quadratic form that governs volume-preserving paths picks up a curvature
term from the det F = 1 manifold: along F(h) = I + hH + h^2 K with
det F(h) = 1 one has h^-2 W(F(h)) -> (1/2) H : D2W(I) : H + 2 c1 tr K and
tr K = tr(H^2)/2 is forced by the constraint. quadratic_form_QI implements
that manifold form; the MaterialModel field elastic_tensor holds the plain
Hessian.

W, its g-derivatives (g = |F|^2 - 3), the pressure-compensated density and the
Mandel form of Q^I are defined here once, batched; solvers and recovery call
them, so G_h and its limit functionals come from one constitutive definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class MaterialError(Exception):
    """Inconsistent material data (failed self-check)."""


DET_TOL = 1e-9

# Mandel component order (11, 22, 33, 23, 13, 12); shears carry sqrt(2).
_MANDEL_IDX = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
_SQRT2 = np.sqrt(2.0)


def sym_to_mandel(e):
    """(..., 3, 3) symmetric strains to (..., 6) Mandel vectors."""
    e = np.asarray(e, dtype=float)
    return np.stack([e[..., i, j] if i == j else _SQRT2 * e[..., i, j]
                     for i, j in _MANDEL_IDX], axis=-1)


# Mandel vector of sym G from vec(G), vec index 3i + j: v = MANDEL9 @ vec(G).
_UNIT9 = np.eye(9).reshape(9, 3, 3)
MANDEL9 = np.ascontiguousarray(sym_to_mandel(0.5 * (_UNIT9 + _UNIT9.transpose(0, 2, 1))).T)
# vec indices of the shear-lift gradients e_a (x) e3, a = 1, 2, and the Mandel
# vectors of their strains (1/2)(e_a (x) e3 + e3 (x) e_a)
SHEAR_VEC = [2, 5]
SHEAR_MANDEL = MANDEL9[:, SHEAR_VEC]


@dataclass(frozen=True)
class MaterialModel:
    """Homogeneous Yeoh material with an incompressibility penalty weight."""

    c1: float
    c2: float
    c3: float
    penalty_kappa: float = 100.0
    elastic_tensor: np.ndarray = field(default=None, repr=False)      # 6x6, D2W(I)
    pressure: float = field(default=0.0)                              # tr DW(I) / 3

    def __post_init__(self):
        if self.c1 <= 0.0:
            raise MaterialError("c1 must be positive")
        if self.c2 < 0.0 or self.c3 < 0.0:
            raise MaterialError("c2, c3 must be nonnegative")
        m = np.zeros(6)
        m[:3] = 1.0
        c6 = 2.0 * self.c1 * np.eye(6) + 8.0 * self.c2 * np.outer(m, m)
        object.__setattr__(self, "elastic_tensor", c6)
        object.__setattr__(self, "pressure", 2.0 * self.c1)

    @property
    def incompressible_tensor(self):
        """Mandel matrix of the manifold-restricted quadratic form (see module docstring)."""
        return self.elastic_tensor + self.pressure * np.eye(6)


def yeoh_material(c1, c2=0.0, c3=0.0, penalty_kappa=100.0):
    return MaterialModel(c1=float(c1), c2=float(c2), c3=float(c3),
                         penalty_kappa=float(penalty_kappa))


def g_from_deviation(d):
    """The Yeoh invariant g = |I + D|^2 - 3 = 2 tr D + |D|^2, batched over
    leading axes; evaluated from D, so without cancellation for small D."""
    d = np.asarray(d, dtype=float)
    tr = np.trace(d, axis1=-2, axis2=-1)
    return 2.0 * tr + (d * d).sum(axis=(-2, -1))


def yeoh_density(g, m):
    """The Yeoh law W = c1 g + c2 g^2 + c3 g^3 as a function of g = |F|^2 - 3."""
    return m.c1 * g + m.c2 * g**2 + m.c3 * g**3


def yeoh_slope(g, m):
    """W'(g) = c1 + 2 c2 g + 3 c3 g^2; the Piola stress is DW(F) = 2 W'(g) F."""
    return m.c1 + 2.0 * m.c2 * g + 3.0 * m.c3 * g**2


def yeoh_curvature(g, m):
    """W''(g) = 2 c2 + 6 c3 g; D2W(F) = 2 W'(g) Id + 4 W''(g) F (x) F."""
    return 2.0 * m.c2 + 6.0 * m.c3 * g


def compensated_density(g, r, m):
    """W(g) - p0 r with r = det F - 1 and p0 = 2 c1, the Yeoh pressure at the
    identity: W on det F = 1, without the first-order sensitivity p0 r through
    which h^-2 scaling would turn roundoff-level residuals r into energy."""
    return yeoh_density(g, m) - m.pressure * r


def det_minus_one_from_deviation(d):
    """det(I + D) - 1 via the exact expansion tr D + m2(D) + det D (batched).

    m2 is the sum of the principal 2x2 minors; det D is the cofactor expansion
    along the first row, whose first minor is also one of them.
    """
    d = np.asarray(d, dtype=float)
    d00, d01, d02 = d[..., 0, 0], d[..., 0, 1], d[..., 0, 2]
    d10, d11, d12 = d[..., 1, 0], d[..., 1, 1], d[..., 1, 2]
    d20, d21, d22 = d[..., 2, 0], d[..., 2, 1], d[..., 2, 2]
    minor12 = d11 * d22 - d12 * d21
    m2 = (d00 * d11 - d01 * d10) + (d00 * d22 - d02 * d20) + minor12
    det = d00 * minor12 - d01 * (d10 * d22 - d12 * d20) + d02 * (d10 * d21 - d11 * d20)
    return (d00 + d11 + d22) + m2 + det


def cofactor(f):
    """Cofactor matrix, d det / d F, batched; exact polynomial (no inverse).

    Row i is the cross product of rows i + 1 and i + 2 (cyclic).
    """
    f = np.asarray(f, dtype=float)
    r1 = f[..., [1, 2, 0], :]
    r2 = f[..., [2, 0, 1], :]
    return r1[..., [1, 2, 0]] * r2[..., [2, 0, 1]] - r1[..., [2, 0, 1]] * r2[..., [1, 2, 0]]


def qi_bilinear(e1, e2, m):
    """Bilinear form of the incompressible quadratic, batched over leading
    axes: Q^I(E) = qi_bilinear(E, E, m) = (1/2) v^T A v for the Mandel vector
    v of E and A = m.incompressible_tensor."""
    v1, v2 = sym_to_mandel(e1), sym_to_mandel(e2)
    return 0.5 * np.einsum("...k,kl,...l->...", v1, m.incompressible_tensor, v2)


def qi_gradient_hessian(m):
    """9x9 Hessian S^T A S of G -> Q^I(sym G) in vec(G), with S = MANDEL9."""
    return MANDEL9.T @ (m.incompressible_tensor @ MANDEL9)


def quadratic_form_QI(e, m, trace_tol=DET_TOL):
    """Incompressible quadratic form on strains; +inf off the trace-free set.

    For Yeoh this equals 2 c1 |E|^2 on trace-free E, matching the limit of
    h^-2 W along exactly volume-preserving paths (see module docstring).
    """
    e = np.asarray(e, dtype=float)
    if abs(np.trace(e)) > trace_tol:
        return np.inf
    return qi_bilinear(e, e, m)


def solve_volume_correction(h, step):
    """Scalar k with det(I + step*H + step^2*k*I) = 1, by Newton iteration."""
    h = np.asarray(h, dtype=float)
    k = float(np.trace(h @ h)) / 6.0
    for _ in range(8):
        d = step * h + step**2 * k * np.eye(3)
        r = det_minus_one_from_deviation(d)
        slope = step**2 * float(np.trace(cofactor(np.eye(3) + d)))
        k -= r / slope
        if abs(r) < 1e-30 + 1e-16 * step**2:
            break
    return k


def verify_taylor_remainder(m, probes=None, h_values=(1e-1, 1e-2, 1e-3, 1e-4)):
    """Empirical expansion modulus along exactly volume-preserving paths.

    For each probe H (trace-free) and each h, solves the second-order
    correction K = k I with det(I + hH + h^2 K) = 1 and tabulates
      sup_probes |h^-2 W(I + hH + h^2 K) - Q^I(sym H)| / |H|^2.
    Returns {h: remainder}; no explicit modulus is assumed, the table is data.
    """
    if probes is None:
        rng = np.random.default_rng(7)
        probes = []
        for _ in range(8):
            a = rng.standard_normal((3, 3))
            a -= np.trace(a) / 3.0 * np.eye(3)
            probes.append(a / np.linalg.norm(a))
    table = {}
    for step in h_values:
        worst = 0.0
        for hmat in probes:
            hmat = np.asarray(hmat, dtype=float)
            norm2 = float((hmat * hmat).sum())
            if norm2 == 0.0:
                continue
            k = solve_volume_correction(hmat, step)
            d = step * hmat + step**2 * k * np.eye(3)
            w = yeoh_density(g_from_deviation(d), m)
            target = quadratic_form_QI(0.5 * (hmat + hmat.T), m)
            worst = max(worst, abs(w / step**2 - target) / norm2)
        table[step] = worst
    return table
