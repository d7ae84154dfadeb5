"""Constrained minimization of the nonlinear contact energies and their quadratic limits.

The quadratic limit problems are solved exactly: the kernel maximum in the
load term turns the objective into min over a rotation angle theta of convex
QPs (min_u [quad(u) - L(R_theta u)] swapped with the max). The load term is
affine in (cos theta, sin theta), so along an arc of angles on which one
working set stays optimal the minimizer is affine in them too and the value
is a degree-2 trigonometric polynomial: an exact path over the circle solves
one QP per arc and minimizes each arc in closed form. Each QP is solved by a
primal active-set method in the null space of the div rows: a pivoted QR of
B^T, computed once per mesh, gives an orthonormal basis Z of null(B) (the
per-element rows of a Kuhn mesh are far from independent: rank 96 of 162 on
cube 3), and only the reduced KKT matrix [[Z^T H Z, Z_W^T], [Z_W, 0]] of each
working set W is factored, once, and reused across iterations, arcs and
every later limit solve on the mesh and material (cached on the mesh).
The nonlinear problems impose incompressibility against the stable pressures:
c(y) = Pi(det F - 1) = 0, with Pi = Q Q^T V the L2(P0) projection onto the
discrete divergences range(B) (Q volume-orthonormal, V the element volumes).
Pi(det(I + h grad u) - 1) = h B u + O(h^2), so the constraint linearizes to
the limit QPs' B u = 0; det F = 1 in every element would also impose the
dependent rows of B (the singular-edge checkerboards of Kuhn meshes), which
break LICQ and add an h-independent offset to the energies. Each h is
solved from the identity or from a warm start (h-continuation along a
sweep) by Newton steps on the KKT system of the identified active set; with
the projected rows that system has full row rank, and its null space is the
flat motions (the horizontal translations, and the rotation about e3 under a
vertical load), known in closed form: each step borders the KKT matrix by
them and solves the square system by one LU factorization, with no
numerical rank decision; the confirming step from an iterate that already
meets the tolerance reuses the previous step's factors (a chord step). The
finish is first tried from the start itself:
at small h the minimizer is a small perturbation of it (the Gamma-limit is
a linearization), so Newton converges from the identity and from the
sweep's rescaled warm start. Where that try fails, the same finish is
continued in h: G_h under the load t f equals t^2 G_(t h) under f, so a
smaller h is a lighter load. h is halved until a finish from the rescaled
start is ok, then marched back to the target with an adaptive step
(Allgower & Georg, Introduction to Numerical Continuation Methods, SIAM
2003), down to the one constant MIN_H_STEP. A continuation that fails
raises SolveFailure naming the last try's outcome: every returned minimizer
is a finished KKT point.

Both sides are built from the mesh's P1 gradient operator D (nodal
displacements to element gradients). The limit QPs' strain Hessian is the
sparse product D^T blockdiag(9x9 element blocks) D, the div rows are
blockdiag(element rows) D, and nodal gradients are D^T applied to the
volume-weighted Piola stress. The Newton finish forms no global Hessian or
Jacobian: each element's 12x12 Hessian block D_e^T h9_e D_e and Jacobian row
vol_e vec(cof F_e)^T D_e, D_e the element's 9x12 gradient map, go straight
into the bordered KKT matrix, in one workspace per h that LAPACK factors in
place.
"""

from __future__ import annotations

import dataclasses
import enum
import logging
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.optimize import minimize  # noqa: F401  only perfbench's tracer wraps solvers.minimize

from .geometry import Mesh, ObstacleSet, element_gradient_maps, gradient_form, gradient_rows
from .kinematics import DeformationField, DisplacementField
from .loads import (KernelClass, LoadSpec, Rotation, is_zero_load, linear_order_violations,
                    load_moments, load_vector)
from .material import (SHEAR_MANDEL, SHEAR_VEC, MaterialModel, cofactor, compensated_density,
                       det_minus_one_from_deviation, g_from_deviation, qi_bilinear,
                       qi_gradient_hessian, sym_to_mandel, yeoh_curvature, yeoh_slope)

logger = logging.getLogger(__name__)


class SolveFailure(Exception):
    """Solver could not produce a usable minimizer."""


class Variant(enum.Enum):
    EI = "EI"
    GI = "GI"
    GTILDE = "GTildeI"


# Most negative bound multiplier an optimal active-set working set may carry.
QP_MULTIPLIER_TOL = 1e-9

# Active-set updates the Newton finish may make before it gives up.
NEWTON_ROUNDS = 3

# Smallest h, and smallest h step, that the continuation of a failed finish tries.
MIN_H_STEP = 1e-4

# Second derivative of det: vec(d2 det / dF dF) = _DET_HESS @ vec(F), from
# d2 det / dF_ip dF_jq = eps_ijk eps_pqr F_kr.
_LEVI_CIVITA = np.fromfunction(lambda i, j, k: (i - j) * (j - k) * (k - i) / 2.0, (3, 3, 3))
_DET_HESS = np.einsum("ijk,pqr->ipjqkr", _LEVI_CIVITA, _LEVI_CIVITA).reshape(81, 9)


@dataclass
class NonlinearProblem:
    mesh: Mesh
    material: MaterialModel
    load: LoadSpec
    obstacle: ObstacleSet
    h: float
    warm_start: np.ndarray = None

    def __post_init__(self):
        if not (0.0 < self.h < 1.0):
            raise ValueError("h must be in (0, 1)")
        if self.obstacle.num_nodes == 0:
            raise ValueError("obstacle set must be nonempty")


@dataclass
class QuadraticProblem:
    mesh: Mesh
    material: MaterialModel
    load: LoadSpec
    obstacle: ObstacleSet
    variant: Variant
    kernel_class: KernelClass = None

    def __post_init__(self):
        if self.variant in (Variant.GI, Variant.GTILDE) and self.kernel_class is None:
            raise ValueError(f"variant {self.variant.value} requires kernel_class")


@dataclass
class SolveResult:
    field: object
    objective: float
    residuals: dict
    active_nodes: np.ndarray
    iterations: int
    termination: str
    trace: list = field(default_factory=list)
    theta_star: float = None


# ---------------------------------------------------------------------------
# assembly

def _shear_block(material, mesh):
    """Hessian of b -> integral Q^I(shear(b)): volume times H9's shear block."""
    h9 = qi_gradient_hessian(material)
    return float(mesh.element_volumes.sum()) * h9[np.ix_(SHEAR_VEC, SHEAR_VEC)]


def assemble_strain_hessian(mesh, material, with_shear=False, plain=None):
    """Dense Hessian of u -> 2 * integral Q^I(E(u)); optionally with shear columns.

    It is D^T blockdiag(vol_e H9) D, with D the mesh's gradient operator and
    H9 = `material.qi_gradient_hessian`; `plain`, when given, is that
    Hessian, already assembled, and only the shear columns are. They are
    D^T (vol (x) H9[:, shear]) for the shear-lift gradients e_a (x) e3.
    """
    h9 = qi_gradient_hessian(material)
    vols = mesh.element_volumes
    h = gradient_form(mesh, vols[:, None, None] * h9) if plain is None else plain
    if not with_shear:
        return h
    c = mesh.gradient_operator.T @ np.kron(vols[:, None], h9[:, SHEAR_VEC])
    return np.block([[h, c], [c.T, _shear_block(material, mesh)]])


def assemble_div_matrix(mesh):
    """Rows map nodal displacements to per-element divergences: the trace rows of D."""
    return gradient_rows(mesh, np.tile(np.eye(3).ravel(), (mesh.num_elements, 1)))


def obstacle_bound_dofs(obstacle):
    return 3 * np.asarray(obstacle.node_indices, dtype=int) + 2


# ---------------------------------------------------------------------------
# exact QP

class _NullSpaceFrame(NamedTuple):
    """Pivoted QR of A_eq^T = [Q1 Q2] R P^T, split at the numerical rank.

    `z` = Q2 is an orthonormal basis of null(A_eq). The independent rows
    `rows` = P[:rank] satisfy A_eq[rows] = r11^T Q1^T with Q1 = `range_basis`,
    so a particular solution in the row space is Q1 r11^-T b_eq[rows].
    """

    z: np.ndarray            # (n, n - rank)
    range_basis: np.ndarray  # (n', rank), n' <= n: the rows past n' are 0
    r11: np.ndarray          # (rank, rank) upper triangular
    rows: np.ndarray         # (rank,) independent rows of A_eq

    def particular(self, b_eq):
        """Minimum-norm x with A_eq[rows] x = b_eq[rows]; exactly 0 for b_eq = 0.
        x has the length of z's rows, zero past those of `range_basis`."""
        b_eq = np.asarray(b_eq, dtype=float)
        x = np.zeros(self.z.shape[0])
        if b_eq[self.rows].any():
            c = scipy.linalg.solve_triangular(self.r11, b_eq[self.rows], trans="T")
            x[:self.range_basis.shape[0]] = self.range_basis @ c
        return x

    def padded(self, extra):
        """Frame of [A_eq, 0] with `extra` zero columns appended; it shares
        this frame's `range_basis`, which `particular` pads."""
        n, k = self.z.shape
        z = np.zeros((n + extra, k + extra))
        z[:n, :k] = self.z
        z[n:, k:] = np.eye(extra)
        return _NullSpaceFrame(z, self.range_basis, self.r11, self.rows)


def _null_space_frame(a_eq, n):
    """Frame of the (m, n) rows A_eq; diagonal entries of R at or below
    eps * max(m, n) * |R_00| count as dependent (the gap is 1e-14 against O(1)
    for the Kuhn divergence rows)."""
    m = a_eq.shape[0] if a_eq is not None and len(a_eq) else 0
    if m == 0 or n == 0:
        return _NullSpaceFrame(np.eye(n), np.zeros((n, 0)), np.zeros((0, 0)),
                               np.zeros(0, dtype=int))
    q, r, piv = scipy.linalg.qr(np.asarray(a_eq, dtype=float).T, mode="full", pivoting=True)
    d = np.abs(np.diag(r))
    rank = int(np.count_nonzero(d > np.finfo(float).eps * max(m, n) * d.max()))
    # copies, so that a cached frame does not keep all of Q and R alive
    return _NullSpaceFrame(q[:, rank:].copy(), q[:, :rank].copy(), r[:rank, :rank].copy(),
                           piv[:rank])


def _div_rows(mesh):
    """The mesh's div rows B (`assemble_div_matrix`), assembled once per mesh."""
    return mesh.cached(("div_rows",), lambda: assemble_div_matrix(mesh))


def _div_null_space(mesh):
    """Frame of the mesh's div rows B, computed once per mesh."""
    return mesh.cached(("div_null_space",),
                       lambda: _null_space_frame(_div_rows(mesh), 3 * mesh.num_nodes))


def _div_range_basis(mesh):
    """Volume-orthonormal basis Q (Q^T V Q = I) of range(B), B the div rows,
    so that Pi = Q Q^T V is the L2(P0) projection onto the discrete
    divergences. range(B) = range(B Q1) with Q1 the div frame's row-space
    basis, and B Q1 has full column rank, so one thin QR of V^(1/2) B Q1
    gives it. Computed once per mesh, when the nonlinear path first asks."""
    def build():
        root_v = np.sqrt(mesh.element_volumes)[:, None]
        q, _ = np.linalg.qr(root_v * (_div_rows(mesh) @ _div_null_space(mesh).range_basis))
        return q / root_v
    return mesh.cached(("div_range_basis",), build)


def _kkt_factor(hz, z, working):
    """Truncated eigendecomposition of the reduced KKT matrix of one working set,
    [[Z^T H Z, Z_W^T], [Z_W, 0]] with Z_W the rows of Z at the working bounds.

    Eigenpairs with |lambda| <= eps * dim * max|lambda| are dropped, which is
    lstsq's default cutoff (the singular values are the |lambda|), so
    v @ ((v.T @ rhs) / lambda) is the same minimum-norm solution.
    """
    k = hz.shape[0]
    z_w = z[np.asarray(working, dtype=int)]
    dim = k + len(working)
    kkt = np.zeros((dim, dim))
    kkt[:k, :k] = hz
    kkt[:k, k:] = z_w.T
    kkt[k:, :k] = z_w
    lam, v = scipy.linalg.eigh(kkt, driver="evr")
    keep = np.abs(lam) > np.finfo(float).eps * dim * np.abs(lam).max(initial=0.0)
    return v[:, keep], lam[keep]


def _working_set_solve(factors, working, rhs_y, x0_w):
    """Minimum-norm (y, nu) of the reduced KKT system of one working set W,
    [[Z^T H Z, Z_W^T], [Z_W, 0]] [y; nu] = [rhs_y; -x0_w], for one right-hand
    side or for a block of columns. W's factorization is taken from `factors`
    (see `active_set_qp`) and made there on its first use."""
    key = tuple(working)
    if key not in factors:
        factors[key] = _kkt_factor(factors["reduced_hessian"], factors["null_space"].z, working)
    v, lam = factors[key]
    rhs = np.concatenate([rhs_y, -x0_w])
    sol = v @ ((v.T @ rhs) / (lam if rhs.ndim == 1 else lam[:, None]))
    return sol[:rhs_y.shape[0]], sol[rhs_y.shape[0]:]


def active_set_qp(h, g, a_eq, b_eq, bound_idx, warm_working=None, factors=None):
    """min (1/2) x^T H x + g^T x  s.t.  A_eq x = b_eq,  x_i >= 0 for i in bound_idx.

    Primal active-set method in the null space of the equality rows
    (Nocedal & Wright, sec. 16.2): x = x0 + Z y with Z an orthonormal basis of
    null(A_eq) and x0 = `_NullSpaceFrame.particular(b_eq)`, so dependent rows
    of A_eq never enter a factorization. The reduced KKT matrix of each
    working set is factored once and reused for every later step on that
    working set; its solves give the minimum-norm y, and as Z is orthonormal
    and x0 lies in the row space the step has no component along flat
    directions of H (H may be singular and A_eq rank-deficient). `factors`
    holds the frame ("null_space"), Z^T H Z ("reduced_hessian") and one
    factorization per tuple(working set); it may be shared by calls with the
    same H and A_eq (g and b_eq may differ), as along an angle path, and a
    caller may seed its "null_space"; by default it is local to the call. A
    working set is optimal when no bound multiplier is below
    -QP_MULTIPLIER_TOL; the method gives up after 3 max(#bounds, 1) + 30
    iterations, and raises SolveFailure when the result violates any row of
    A_eq (inconsistent equalities). Returns (x, info) with the bound
    multipliers of the final working set.
    """
    n = h.shape[0]
    g = np.asarray(g, dtype=float)
    bound_idx = np.asarray(bound_idx, dtype=int)
    n_eq = a_eq.shape[0] if a_eq is not None and len(a_eq) else 0
    if factors is None:
        factors = {}
    if "null_space" not in factors:
        factors["null_space"] = _null_space_frame(a_eq, n)
    frame = factors["null_space"]
    z = frame.z
    if "reduced_hessian" not in factors:
        factors["reduced_hessian"] = z.T @ h @ z
    x0 = frame.particular(b_eq) if n_eq else np.zeros(n)
    rhs_y = -(z.T @ (g + h @ x0))
    x = np.zeros(n)
    working = list(bound_idx) if warm_working is None else list(warm_working)
    iters = 0
    mu = np.zeros(0)
    for _ in range(3 * max(len(bound_idx), 1) + 30):
        iters += 1
        w_idx = np.asarray(working, dtype=int)
        y, nu = _working_set_solve(factors, working, rhs_y, x0[w_idx])
        x_star = x0 + z @ y
        p = x_star - x
        if np.abs(p).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(x).max(initial=0.0)):
            mu = -nu
            if mu.size == 0 or mu.min() >= -QP_MULTIPLIER_TOL:
                x = x_star
                break
            working.pop(int(np.argmin(mu)))
            continue
        # ratio test: the first minimal step to a bound outside the working
        # set, in bound_idx order
        p_b = p[bound_idx]
        in_working = np.zeros(n, dtype=bool)
        in_working[w_idx] = True
        open_ = (p_b < -1e-14) & ~in_working[bound_idx]
        ratio = np.full(bound_idx.size, np.inf)
        np.divide(np.maximum(x[bound_idx], 0.0), -p_b, out=ratio, where=open_)
        alpha = ratio.min(initial=1.0)
        x = x + alpha * p
        if alpha < 1.0:
            blocker = bound_idx[int(np.argmin(ratio))]
            x[blocker] = 0.0
            working.append(blocker)
    else:
        raise SolveFailure("active-set QP did not converge")
    if n_eq:
        eq_res = float(np.abs(a_eq @ x - b_eq).max())
        if eq_res > 1e-8 * max(1.0, np.abs(b_eq).max() if n_eq else 1.0):
            raise SolveFailure(
                f"equality constraints unsatisfiable (residual {eq_res:.3e}); "
                "the mesh has too few free dofs for these constraints")
    info = {"iterations": iters, "working_set": list(working),
            "bound_multipliers": mu}
    return x, info


# ---------------------------------------------------------------------------
# limit functionals

def strain_energy_quadratic(u_field, material, mesh, b=None):
    """integral of Q^I over the body for E(u) (+ optional shear lift b)."""
    strains = u_field.strains
    if b is not None:
        shear = np.zeros((3, 3))
        shear[0, 2] = shear[2, 0] = 0.5 * b[0]
        shear[1, 2] = shear[2, 1] = 0.5 * b[1]
        strains = strains + shear[None, :, :]
    return float(np.dot(mesh.element_volumes, qi_bilinear(strains, strains, material)))


def max_load_over_kernel(u, load, kernel_class, mesh):
    """Maximum of L(R u) over the kernel set, with the attaining rotation.

    For the circle of rotations about e3 the map is a cos(theta) + b sin(theta)
    + c with the stated coefficients; the maximum c + sqrt(a^2 + b^2) is taken
    at theta = atan2(b, a), with theta = 0 at the a = b = 0 kink.
    """
    u_nodal = u.u if isinstance(u, DisplacementField) else np.asarray(u, dtype=float)
    ell = load_vector(load, mesh)
    if kernel_class is None or kernel_class == KernelClass.IDENTITY_ONLY:
        return float((ell * u_nodal).sum()), Rotation.identity()
    a = float(ell[:, 0] @ u_nodal[:, 0] + ell[:, 1] @ u_nodal[:, 1])
    b = float(ell[:, 1] @ u_nodal[:, 0] - ell[:, 0] @ u_nodal[:, 1])
    c = float(ell[:, 2] @ u_nodal[:, 2])
    amp = np.hypot(a, b)
    theta = float(np.arctan2(b, a)) if amp > 0.0 else 0.0
    return c + amp, Rotation.about_e3(theta)


def optimal_shear_b(u_field, material, mesh, div_tol=1e-8):
    """Minimizer of b -> integral Q^I(E(u) + shear(b)): a 2x2 SPD solve."""
    if float(np.abs(u_field.divergence).max()) > div_tol:
        raise SolveFailure("optimal shear requires a divergence-free field")
    mean_strain = np.einsum("e,ek->k", mesh.element_volumes, sym_to_mandel(u_field.strains))
    sys_mat = _shear_block(material, mesh)
    rhs = -SHEAR_MANDEL.T @ (material.incompressible_tensor @ mean_strain)
    if np.linalg.cond(sys_mat) > 1e12:
        raise SolveFailure("degenerate shear system")
    return np.linalg.solve(sys_mat, rhs)


def tilde_lift(u_field, b, mesh):
    """Lifted field u + x3 (b1 e1 + b2 e2); trace-free addition, equal on the plane."""
    u = u_field.u.copy()
    u[:, 0] += mesh.nodes[:, 2] * b[0]
    u[:, 1] += mesh.nodes[:, 2] * b[1]
    return DisplacementField.from_nodal(mesh, u)


def eval_limit(u_field, problem, b=None):
    """Value of the requested limit functional at a given displacement.

    Feasibility (trace-free strain, obstacle) is the caller's business. For
    the shear-reduced variant the inner minimum over b is solved in closed
    form unless b is supplied.
    """
    p = problem
    if p.variant == Variant.EI:
        ell = load_vector(p.load, p.mesh)
        return strain_energy_quadratic(u_field, p.material, p.mesh) - float((ell * u_field.u).sum())
    maxload, _ = max_load_over_kernel(u_field, p.load, p.kernel_class, p.mesh)
    if p.variant == Variant.GI:
        return strain_energy_quadratic(u_field, p.material, p.mesh) - maxload
    if b is None:
        b = optimal_shear_b(u_field, p.material, p.mesh, div_tol=np.inf)
    return strain_energy_quadratic(u_field, p.material, p.mesh, b=b) - maxload


def _limit_load_parts(ell):
    """Columns (l0, lc, ls) of the flattened load vector l0 + cos(theta) lc +
    sin(theta) ls of u -> L(R_theta u): per node, ell R_theta is
    (l1 c + l2 s, l2 c - l1 s, l3)."""
    parts = np.zeros((ell.shape[0], 3, 3))
    parts[:, 2, 0] = ell[:, 2]
    parts[:, 0, 1], parts[:, 1, 1] = ell[:, 0], ell[:, 1]
    parts[:, 0, 2], parts[:, 1, 2] = ell[:, 1], -ell[:, 0]
    return parts.reshape(-1, 3)


def _load_is_vertical(ell):
    """Whether the nodal load vectors `ell` (n, 3) have no horizontal part,
    to 1e-14 max(1, max|ell|): the load term is then invariant under the
    rotations about e3, so the limit QPs need no angle and the rotation about
    e3 is a flat motion of the nonlinear energy."""
    return float(np.abs(ell[:, :2]).max()) <= 1e-14 * max(1.0, float(np.abs(ell).max()))


def _arc_end(rows, tols, theta):
    """(distance, row) from `theta` to the first angle at which a row
    a + b cos + d sin falls below its -tol; (inf, None) when none ever does.
    A row that is at or below -tol and falling at `theta` ends the arc there,
    at distance 0, rather than at its next crossing a turn later."""
    a, b, d = rows.T
    rho = np.hypot(b, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = (-tols - a) / rho
    crosses = np.flatnonzero((rho > 0.0) & (kappa > -1.0))
    if not crosses.size:
        return np.inf, None
    # the row is below -tol on (phi + alpha, phi + 2 pi - alpha), falling on
    # the first half of that interval
    alpha = np.arccos(np.minimum(kappa[crosses], 1.0))
    t = np.mod(theta - np.arctan2(d[crosses], b[crosses]) - alpha, 2.0 * np.pi)
    dist = np.where(t < np.pi - alpha, 0.0, 2.0 * np.pi - t)
    k = int(np.argmin(dist))
    return float(dist[k]), int(crosses[k])


def _arc_minimum(q, lo, hi):
    """(value, theta) minimizing f(theta) = v^T q v, v = (1, cos theta, sin theta),
    over [lo, hi]. f = a0 + a1 cos + b1 sin + a2 cos 2theta + b2 sin 2theta, so
    with z = e^(i theta) the stationary points are the unit-modulus roots of
    the quartic z^2 f'; they and the two ends are the candidates."""
    a1, b1, a2, b2 = 2.0 * q[0, 1], 2.0 * q[0, 2], 0.5 * (q[1, 1] - q[2, 2]), q[1, 2]
    roots = np.roots([b2 + 1j * a2, 0.5 * (b1 + 1j * a1), 0.0, 0.5 * (b1 - 1j * a1),
                      b2 - 1j * a2])
    # a loose modulus test: a spurious candidate only costs one evaluation of f
    angles = np.mod(np.angle(roots[np.abs(np.abs(roots) - 1.0) <= 1e-6]), 2.0 * np.pi)
    cand = np.concatenate([[lo, hi], angles[(angles >= lo) & (angles <= hi)]])
    v = np.stack([np.ones_like(cand), np.cos(cand), np.sin(cand)])
    vals = np.einsum("ik,ij,jk->k", v, q, v)
    k = int(np.argmin(vals))
    return float(vals[k]), float(cand[k])


def _angle_path(h, g_parts, b_mat, bound_idx, factors):
    """Exact minimum over theta in [0, 2 pi) of the QPs with load term
    g(theta) = g_parts (1, cos theta, sin theta), the constraints of
    `active_set_qp` and b_eq = 0.

    The circle is walked in arcs on each of which one working set W stays
    optimal. An arc starts with one warm `active_set_qp` call at its first
    angle; W's factorization then solves the three columns of g_parts at once,
    so the minimizer X (1, c, s), the free bounds and the bound multipliers are
    affine in (cos theta, sin theta) along the arc. The arc ends where a free
    bound falls below -1e-14 (the ratio test's tolerance) or a multiplier below
    -QP_MULTIPLIER_TOL; the next arc starts there, warm from W with that bound
    added or that multiplier's bound dropped. Each arc's objective is a
    degree-2 trigonometric polynomial minimized in closed form
    (`_arc_minimum`). Raises SolveFailure when 4 (#bounds + 1) arcs do not
    close the circle. Returns (value, theta, x, QP iterations).
    """
    zeros = np.zeros(b_mat.shape[0])
    tau = 2.0 * np.pi
    max_arcs = 4 * (len(bound_idx) + 1)
    theta, warm, iters, best = 0.0, None, 0, None
    for _ in range(max_arcs):
        g = g_parts @ np.array([1.0, np.cos(theta), np.sin(theta)])
        _, info = active_set_qp(h, g, b_mat, zeros, bound_idx, warm_working=warm,
                                factors=factors)
        iters += info["iterations"]
        working = info["working_set"]
        z = factors["null_space"].z
        y, nu = _working_set_solve(factors, working, -(z.T @ g_parts),
                                   np.zeros((len(working), 3)))
        x = z @ y
        free = bound_idx[~np.isin(bound_idx, working)]
        dist, row = _arc_end(np.vstack([x[free], -nu]), np.concatenate(
            [np.full(free.size, 1e-14), np.full(len(working), QP_MULTIPLIER_TOL)]), theta)
        end = min(theta + dist, tau)
        gx = g_parts.T @ x
        val, at = _arc_minimum(0.5 * (x.T @ h @ x) + 0.5 * (gx + gx.T), theta, end)
        if best is None or val < best[0]:
            best = (val, at, x)
        if end >= tau:
            val, at, x = best
            return val, at % tau, x @ np.array([1.0, np.cos(at), np.sin(at)]), iters
        warm = list(working)
        if row < free.size:
            warm.append(free[row])
        else:
            warm.pop(row - free.size)
        theta = end
    raise SolveFailure(f"angle path did not close after {max_arcs} arcs")


def _limit_setup(mesh, material, with_shear):
    """(H, `active_set_qp`'s factors) of the limit QPs, cached on the mesh
    under the material's constants and the family, plain (E^I, G^I) or with
    G~'s two shear columns, whose frame is the div frame padded (the shear
    coordinates are free) and whose H borders the plain family's."""
    def build():
        frame = _div_null_space(mesh)
        if not with_shear:
            return assemble_strain_hessian(mesh, material), {"null_space": frame}
        return (assemble_strain_hessian(mesh, material, with_shear=True,
                                        plain=_limit_setup(mesh, material, False)[0]),
                {"null_space": frame.padded(2)})
    return mesh.cached(("limit_setup", material.c1, material.c2, material.c3, with_shear),
                       build)


def minimize_limit(problem):
    """Global minimum of the selected limit functional.

    Swapping the kernel maximum with the outer minimum decomposes the problem
    into convex QPs indexed by the rotation angle theta. For G^I and G~^I with
    a theta-dependent load the minimum over theta is exact (`_angle_path`):
    one QP per arc of the circle on which a working set stays optimal, each
    arc minimized in closed form. E^I, the identity kernel and loads with no
    horizontal part take a single QP at theta = 0. The div rows, H, the
    null-space frame, Z^T H Z and the working-set factors live on the mesh
    (`_limit_setup`), so every limit solve on one mesh and material reuses
    them, whatever its load and variant. Unbounded directions are impossible
    for admissible loads; an unsatisfiable QP raises SolveFailure.
    """
    p = problem
    n3 = 3 * p.mesh.num_nodes
    with_shear = p.variant == Variant.GTILDE
    b_mat = _div_rows(p.mesh)
    h, factors = _limit_setup(p.mesh, p.material, with_shear)
    if with_shear:
        b_mat = np.hstack([b_mat, np.zeros((b_mat.shape[0], 2))])
    bound_idx = obstacle_bound_dofs(p.obstacle)

    ell = load_vector(p.load, p.mesh)
    g_parts = np.zeros((h.shape[0], 3))
    g_parts[:n3] = -_limit_load_parts(ell)
    if (p.variant == Variant.EI
            or p.kernel_class in (None, KernelClass.IDENTITY_ONLY)
            or _load_is_vertical(ell)):
        best_theta = 0.0
        g = g_parts[:, 0] + g_parts[:, 1]   # the load at theta = 0
        best_x, info = active_set_qp(h, g, b_mat, np.zeros(b_mat.shape[0]), bound_idx,
                                     factors=factors)
        best_val, total_iters = 0.5 * best_x @ h @ best_x + g @ best_x, info["iterations"]
    else:
        best_val, best_theta, best_x, total_iters = _angle_path(h, g_parts, b_mat,
                                                                bound_idx, factors)

    u = best_x[:n3].reshape(-1, 3)
    b_star = best_x[n3:] if with_shear else None
    u_field = DisplacementField.from_nodal(p.mesh, u)
    objective = eval_limit(u_field, p, b=b_star)
    div_res = float(np.abs(b_mat[:, :n3] @ best_x[:n3]).max())
    active = p.obstacle.node_indices[u[p.obstacle.node_indices, 2] <= 1e-10]
    return SolveResult(
        field=u_field,
        objective=float(objective),
        residuals={"div": div_res,
                   "bound_min": float(u[p.obstacle.node_indices, 2].min()),
                   "value_consistency": abs(objective - best_val)},
        active_nodes=active,
        iterations=total_iters,
        termination="optimal",
        theta_star=best_theta,
    )


# ---------------------------------------------------------------------------
# nonlinear problem

class _NonlinearAssembler:
    """Energy, Lagrangian gradient and Newton steps for G_h at one h.

    Every element quantity is a function of the element gradients D @ (y - x)
    and is pulled back to nodal y through D^T; the Newton blocks are built per
    element from the element gradient maps D_e and scattered into one KKT
    workspace that every step of the assembler reuses, and that keeps the
    last step's LU factors for a chord step.
    """

    def __init__(self, problem):
        self.p = problem
        self.mesh = problem.mesh
        self.mat = problem.material
        self.x_flat = self.mesh.nodes.ravel()
        self.ell_flat = load_vector(problem.load, self.mesh).ravel()
        self.vols = self.mesh.element_volumes
        self.d = self.mesh.gradient_operator
        self.dt = self.d.T
        self.q = _div_range_basis(self.mesh)
        # under a vertical load the rotation about e3 is flat at every iterate
        self.load_vertical = _load_is_vertical(self.ell_flat.reshape(-1, 3))
        self.grad_maps, self.dofs = element_gradient_maps(self.mesh)
        # every Newton step's KKT matrix, at most 3N + m + 3 square, is
        # assembled and factored here; the last entry is the dump slot of the
        # Hessian entries of fixed dofs
        n_max = self.x_flat.size + self.q.shape[1] + 3
        self.workspace = np.empty(n_max * n_max + 1)
        # the LU factors of the last factored step, held in the workspace
        self.lu = None
        self._jac_indptr = np.arange(0, 12 * self.mesh.num_elements + 1, 12, dtype=np.int32)

    def deviation(self, y_flat):
        """Per-element F - I, |F|^2 - 3 and det F - 1."""
        d_el = (self.d @ (y_flat - self.x_flat)).reshape(-1, 3, 3)
        return d_el, g_from_deviation(d_el), det_minus_one_from_deviation(d_el)

    def project(self, r):
        """Pi r = Q Q^T V r, the L2(P0) projection onto range(B)."""
        return self.q @ (self.q.T @ (self.vols * r))

    def _load(self, y_flat):
        return float(self.ell_flat @ (y_flat - self.x_flat)) / self.p.h

    def energy_parts(self, y_flat):
        """Rescaled energy with the pressure-compensated density
        (`material.compensated_density`): wherever Pi(det - 1) = 0 it equals
        h^-2 sum vol W - L(y - x) / h, as the constants lie in range(B).
        Returns (value, r), r = det F - 1."""
        _, g, r = self.deviation(y_flat)
        elastic = float(self.vols @ compensated_density(g, r, self.mat)) / self.p.h**2
        return elastic - self._load(y_flat), r

    def stress(self, d_el, g, nu):
        """Per-element Piola stress 2 W'(g) F / h^2 + nu cof F of
        h^-2 W + nu (det - 1)."""
        f_el = d_el + np.eye(3)
        return ((2.0 * yeoh_slope(g, self.mat) / self.p.h**2)[:, None, None] * f_el
                + nu[:, None, None] * cofactor(f_el))

    def lagrangian_gradient(self, d_el, g, nu):
        """Nodal gradient of h^-2 sum vol W + sum nu vol (det - 1) - L(y - x) / h:
        D^T of the volume-weighted Piola stress."""
        return (self.dt @ (self.vols[:, None, None] * self.stress(d_el, g, nu)).ravel()
                - self.ell_flat / self.p.h)

    def element_hessians(self, d_el, g, nu):
        """Per-element 12x12 blocks D_e^T h9_e D_e of h^2 times the Hessian of
        h^-2 W + nu vol (det - 1) with respect to nodal y, h9_e the 9x9
        Hessian in F and D_e the element's gradient map."""
        m = d_el.shape[0]
        vec_f = (d_el + np.eye(3)).reshape(m, 9)
        hw = (2.0 * yeoh_slope(g, self.mat)[:, None, None] * np.eye(9)
              + 4.0 * yeoh_curvature(g, self.mat)[:, None, None]
              * vec_f[:, :, None] * vec_f[:, None, :])
        hdet = (vec_f @ _DET_HESS.T).reshape(m, 9, 9)
        h9 = self.vols[:, None, None] * hw + (self.p.h**2 * nu * self.vols)[:, None, None] * hdet
        return self.grad_maps.transpose(0, 2, 1) @ (h9 @ self.grad_maps)

    def element_jacobians(self, d_el):
        """Per-element rows vol_e vec(cof F_e)^T D_e of the Jacobian of vol (det - 1)."""
        cof = cofactor(d_el + np.eye(3)).reshape(-1, 1, 9)
        return ((self.vols[:, None, None] * cof) @ self.grad_maps)[:, 0]

    def _kkt_index(self, free, n):
        """(flat, rows) for the free dofs `free` and an n x n KKT matrix: the
        flat workspace index, in column order, of every entry of the element
        Hessians, the dump slot where either dof is fixed, and each element
        dof's row among the free dofs, free.size where it is fixed. It
        depends on the mesh only through its dofs and the workspace size, one
        per mesh, so it is cached read-only on the mesh under (n, free): every
        step on one active set shares it, over the h of a sweep and the tries
        of a continuation too."""
        def build():
            row = np.full(self.x_flat.size, free.size, dtype=np.int32)
            row[free] = np.arange(free.size)
            rows = row[self.dofs]
            fixed = rows == free.size
            flat = rows[:, :, None] + n * rows[:, None, :].astype(np.int64)
            flat[fixed[:, :, None] | fixed[:, None, :]] = self.workspace.size - 1
            return flat.ravel(), rows.ravel()
        return self.mesh.cached(("kkt_index", n, free.tobytes()), build)

    def kkt_matrix(self, y, d_el, g, nu, free):
        """The bordered KKT matrix of `newton_step` at the iterate y, assembled
        in the workspace and returned as its column-ordered view, which
        LAPACK factors in place: the element Hessians are scattered into the
        h^2 H_ff block, the element Jacobian rows give Q^T J_f, and the flat
        motions N the border. It overwrites the factors kept in the
        workspace, so it drops `lu`."""
        self.lu = None
        nf, m = free.size, self.q.shape[1]
        rotation = self.load_vertical or not self.stress(d_el, g, nu).any()
        border = np.zeros((y.size, 3 if rotation else 2))
        border[0::3, 0] = border[1::3, 1] = 1.0
        if rotation:
            border[0::3, 2], border[1::3, 2] = -y[1::3], y[0::3]
        n = nf + m + border.shape[1]
        flat, rows = self._kkt_index(free, n)
        kkt = self.workspace[:n * n].reshape((n, n), order="F")
        kkt.fill(0.0)
        np.add.at(self.workspace, flat, self.element_hessians(d_el, g, nu).ravel())
        jac_t = scipy.sparse.csc_array(
            (self.element_jacobians(d_el).ravel(), rows, self._jac_indptr),
            shape=(nf + 1, d_el.shape[0])) @ self.q
        kkt[:nf, nf:nf + m] = jac_t[:nf]
        kkt[nf:nf + m, :nf] = jac_t[:nf].T
        kkt[:nf, nf + m:] = border[free]
        kkt[nf + m:, :nf] = kkt[:nf, nf + m:].T
        return kkt

    def newton_step(self, y, d_el, g, nu, free, r1, c, chord=False):
        """Newton step (dy on the free dofs, dmu) at the iterate y of the KKT
        system of Q^T V (det - 1) = 0, r1 and c its residuals: one LU
        factorization of [[h^2 H_ff, (Q^T J_f)^T, N], [Q^T J_f, 0, 0],
        [N^T, 0, 0]], bordered by the flat motions N on the free dofs, kept
        as `lu`, and the border's multipliers dropped. A `chord` step
        (Kelley, Iterative Methods for Linear and Nonlinear Equations, SIAM
        1995, sec. 5.4) solves with `lu`, the factors of an earlier step on
        the same free dofs, and assembles and factors nothing; the caller
        decides that they are close enough. N holds the horizontal
        translations and the rotation about e3 at y, (-y2, y1, 0) per node,
        where that rotation is flat: under a vertical load, and at a
        stress-free iterate under any load (H (e3 ^ y) = e3 ^ the load-free
        gradient, which the start of a sweep, the identity with the identity
        pressure, makes exactly 0). Elsewhere, under a horizontal load, it is
        a genuine mode. The stationarity rows carry h^2, which keeps the two
        blocks of one scale at small h. The matrix is assembled from per-element blocks in the
        assembler's workspace (`kkt_matrix`) and factored there, so no step
        allocates it, and `lu` lives there until the next assembly. Returns
        None where the bordered matrix is singular: an exactly zero pivot
        (lu_factor's LinAlgWarning) or a non-finite step."""
        if not chord:
            kkt = self.kkt_matrix(y, d_el, g, nu, free)
            with warnings.catch_warnings():
                warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
                try:
                    self.lu = scipy.linalg.lu_factor(kkt, overwrite_a=True, check_finite=False)
                except scipy.linalg.LinAlgWarning:
                    return None
        nf, m = free.size, c.size
        rhs = np.zeros(self.lu[0].shape[0])
        rhs[:nf], rhs[nf:nf + m] = -self.p.h**2 * r1, -c
        step = scipy.linalg.lu_solve(self.lu, rhs, overwrite_b=True, check_finite=False)
        if not np.isfinite(step).all():
            return None
        return step[:nf], step[nf:nf + m]


def _identity_pressure(problem):
    """The multipliers' seed: the exact pressure at the identity, -dW/d(det),
    in every element (a constant, so in range(Pi))."""
    return np.full(problem.mesh.num_elements, -problem.material.pressure)


def _newton_polish(asm, y, lam):
    """Newton steps on the KKT system of Pi(det - 1) = 0 on the active set
    of the iterate `y`, with multipliers seeded by `lam` in material units
    (h^2 times the multipliers nu of the h-scaled Lagrangian; the package
    always seeds `_identity_pressure`). Neither `y` nor `lam` is modified.

    The constraint is c(y) = Q^T V (det - 1), whose rows Q^T J have full rank
    where the per-element rows J do not, and the multipliers nu = Q mu stay in
    range(Pi). What is left singular is known in closed form: the flat
    motions, the horizontal translations and, under a vertical load or at a
    stress-free iterate, the rotation about e3. Each step
    (`_NonlinearAssembler.newton_step`) factors the KKT matrix bordered by
    them by LU: the step is orthogonal to the flat motions, as the
    minimum-norm step is where they span the null space, and takes no
    residual noise along them (Benzi, Golub & Liesen, Acta Numerica 14, 2005,
    on bordered saddle-point systems). The iteration on one active set has
    converged when two consecutive iterates have max|r1| <= 1e-11
    max(1, h^-2), r1 the stationarity residual on the free dofs, and
    max|c| <= 1e-11: the step between them starts that close to the
    solution, so it ends at roundoff. That confirming step is a chord step:
    it reuses the LU factors of the round's previous step, whose Jacobian
    differs from the current one by the size of that step, so from an error
    of 1e-11 it still ends near 1e-16. A round whose first iterate meets the
    tolerance has no factors yet and factors; factors never cross a round
    (an active set) or an assembler (an h). A confirming step that misses
    the tolerance is followed by a freshly factored one.

    Returns (y, outcome, steps, max|Pi(det - 1)| at the last iterate), y the
    finished iterate or None; outcome "ok", or "no-convergence" (20 Newton
    steps on one active set), "active-set-cycling" (NEWTON_ROUNDS active-set
    updates ran out) or "singular-kkt" (the bordered matrix is singular, as
    when no bound is active and the vertical translation is flat too); steps
    counts the KKT solves of all rounds. An "ok" iterate is 0 on the active
    bounds, which its steps never move, and at least -1e-12 on the others.
    """
    p = asm.p
    bound_dofs = obstacle_bound_dofs(p.obstacle)
    active = np.zeros(y.size, dtype=bool)
    active[bound_dofs[y[bound_dofs] <= 1e-8]] = True
    h2 = p.h**2
    nu = lam / h2
    q = asm.q
    steps, proj_res = 0, np.inf
    for _ in range(NEWTON_ROUNDS):
        yk = y.copy()
        yk[active] = 0.0
        free = np.flatnonzero(~active)
        small = factored = False
        for _ in range(20):
            d_el, g, r = asm.deviation(yk)
            grad_l = asm.lagrangian_gradient(d_el, g, nu)
            r1 = grad_l[free]
            c = q.T @ (asm.vols * r)
            proj_res = float(np.abs(q @ c).max())
            was_small, small = small, (np.abs(c).max() <= 1e-11 and np.abs(r1).max(
                initial=0.0) <= 1e-11 * max(1.0, 1.0 / h2))
            if was_small and small:
                break
            # the confirming step from an iterate that meets the tolerance is
            # a chord step on this round's last factors, if it has any
            step = asm.newton_step(yk, d_el, g, nu, free, r1, c, chord=small and factored)
            if step is None:
                return None, "singular-kkt", steps, proj_res
            steps += 1
            yk[free] += step[0]
            nu += q @ step[1] / h2
            factored = True
        else:
            return None, "no-convergence", steps, proj_res
        # bound feasibility and multiplier signs on the active set
        mu = grad_l[active]
        inact = bound_dofs[~active[bound_dofs]]
        if mu.size and mu.min() < -1e-8:
            active[np.flatnonzero(active)[int(np.argmin(mu))]] = False
            y = yk
            continue
        if inact.size and yk[inact].min() < -1e-12:
            active[inact[yk[inact] < -1e-12]] = True
            y = yk
            continue
        return yk, "ok", steps, proj_res
    return None, "active-set-cycling", steps, proj_res


def rescale_deformation(nodes, y, h, h_new):
    """The deformation y at h rescaled to h_new, x + (h_new / h)(y - x): the
    same displacement per unit h. It gives the sweep's warm start from the
    last minimizer and the starts of the h-continuation."""
    return nodes + (h_new / h) * (y - nodes)


def _continued_finish(asm, y0, name):
    """The Newton finish at the target h of `asm` from the start `y0`, named
    `name`, continued in h where that direct try fails. h is then halved,
    each try from y0 rescaled to it, until one finish is ok; from there each
    try starts at the last ok iterate rescaled to min(h, h_k + step), the
    step starting at that h_k, doubled after an ok try and halved after a
    failed one. It gives up before an h or a step below MIN_H_STEP. Every try
    is seeded with `_identity_pressure` and logs one INFO line. Returns the
    last try's (y, outcome, steps, max|Pi(det - 1)|), y None unless the
    target was reached, and the trace: [] for a direct finish, else one
    {"h", "outcome", "steps"} entry per try."""
    p, x = asm.p, asm.x_flat
    trace = []

    def finish(h_k, y_start):
        where = f"continuation to h={p.h:g}" if trace else "direct"
        p_k = p if h_k == p.h else dataclasses.replace(p, h=h_k, warm_start=None)
        out = _newton_polish(asm if p_k is p else _NonlinearAssembler(p_k), y_start,
                             _identity_pressure(p_k))
        trace.append({"h": h_k, "outcome": out[1], "steps": out[2]})
        logger.info("newton polish at h=%g, start %s, %s, %d steps, |Pi(det - 1)| %.1e: %s",
                    h_k, name, where, out[2], out[3], out[1])
        return out

    h_k, out = p.h, finish(p.h, y0)
    if out[0] is not None:
        return out, []
    while out[0] is None:
        h_k /= 2.0
        if h_k < MIN_H_STEP:
            return out, trace
        out = finish(h_k, rescale_deformation(x, y0, p.h, h_k))
    y_k, step = out[0], h_k
    while h_k < p.h:
        h_next = min(p.h, h_k + step)
        out = finish(h_next, rescale_deformation(x, y_k, h_k, h_next))
        if out[0] is None:
            step /= 2.0
            if step < MIN_H_STEP:
                break
        else:
            h_k, y_k, step = h_next, out[0], 2.0 * step
    return out, trace


def minimize_nonlinear(problem):
    """Minimize the rescaled incompressible energy along one solver path.

    The path starts from the warm start when one is given (in an h-sweep, the
    last minimizer rescaled to this h) and from the identity otherwise. Newton
    steps on the KKT system of Pi(det - 1) = 0 on the identified active set
    are first tried from the start itself, with the multiplier seed
    `_identity_pressure`: at small h the minimizer is a small perturbation of
    the start, and the finish converges from there (Birgin & Martinez, Optim.
    Methods Softw. 23, 2008: Newton on the KKT system wherever it converges).
    Only when that try fails does the same finish run as an adaptive
    h-continuation from the same start (`_continued_finish`). The termination
    names the path, "direct" or "continuation", and the start. A direct
    finish leaves an empty trace; otherwise the trace has one {"h",
    "outcome", "steps"} entry per try, the failed direct try first.
    `iterations` counts the Newton steps of all tries. The reported
    objective is the plain rescaled energy at the finished iterate; the
    residuals are the raw max|det - 1| ("det", flagged above 1e-6) and
    max|Pi(det - 1)| ("det_projected"). A continuation that does not reach
    the target raises SolveFailure naming h, the start, and the last try's
    outcome, its steps, its h and the |Pi(det - 1)| it reached.
    """
    p = problem
    # the linear-order load conditions at a load-scaled tolerance; the zero
    # load is degenerate but bounded
    f_res, t_mom = load_moments(p.load, p.mesh)
    scale = max(1.0, float(np.abs(t_mom).max()), float(np.abs(f_res).max()))
    failures = linear_order_violations(f_res, t_mom, 1e-9 * scale)
    if failures and not is_zero_load(p.load, p.mesh):
        raise SolveFailure("load admissibility violated: " + "; ".join(failures))
    asm = _NonlinearAssembler(p)
    if p.warm_start is None:
        name, y0 = "identity", p.mesh.nodes.ravel().copy()
    else:
        name, y0 = "warm", np.asarray(p.warm_start, dtype=float).ravel().copy()

    (y, outcome, steps, proj_res), trace = _continued_finish(asm, y0, name)
    if y is None:
        raise SolveFailure(f"newton finish at h={p.h:g} from start {name}: {outcome} after "
                           f"{steps} steps at h={trace[-1]['h']:.10g}, |Pi(det - 1)| "
                           f"{proj_res:.1e}")
    termination = f"{'continuation' if trace else 'direct'}({name})+newton"
    value, r = asm.energy_parts(y)
    det_res = float(np.abs(r).max())
    if det_res > 1e-6:
        termination += ",det-residual-flagged"

    y_nodal = y.reshape(-1, 3)
    field = DeformationField.from_nodal(p.mesh, y_nodal)
    active = p.obstacle.node_indices[y_nodal[p.obstacle.node_indices, 2] <= 1e-10]
    return SolveResult(
        field=field,
        objective=float(value),
        residuals={"det": det_res,
                   "det_projected": float(np.abs(asm.project(r)).max()),
                   "bound_min": float(y_nodal[p.obstacle.node_indices, 2].min())},
        active_nodes=active,
        iterations=sum(t["steps"] for t in trace) if trace else steps,
        termination=termination,
        trace=trace,
    )
