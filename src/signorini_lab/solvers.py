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
working set W is factored, once, and reused across iterations and arcs.
The nonlinear problems use an
augmented Lagrangian on the per-element determinant with kappa continuation
and projected L-BFGS-B inner solves, run once per h from the identity or from
a warm start (h-continuation along a sweep). The AL only globalizes: its inner
solves are inexact, resolved to the relative accuracy of the feasibility
target DET_TARGET, and one Newton solve of the KKT system on the identified
active set finishes the iterate. When that finish fails or is rejected, the
AL loop resumes from its iterate and multipliers with inner solves at the
configured gtol, so gtol is the accuracy of every iterate the finish did not
polish.

Both sides are built from the mesh's sparse P1 gradient operator D (nodal
displacements to element gradients): the strain Hessian and the Newton
Hessian are D^T blockdiag(9x9 element blocks) D, the div rows and constraint
Jacobian are blockdiag(element rows) D, and nodal gradients are D^T applied
to the volume-weighted Piola stress.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.optimize import Bounds, minimize

from .geometry import Mesh, ObstacleSet, gradient_form, gradient_rows
from .kinematics import DeformationField, DisplacementField
from .loads import (KernelClass, LoadSpec, Rotation, is_zero_load, linear_order_violations,
                    load_moments, load_vector)
from .material import (SHEAR_MANDEL, SHEAR_VEC, MaterialModel, cofactor, compensated_density,
                       det_minus_one_from_deviation, g_from_deviation, qi_bilinear,
                       qi_gradient_hessian, sym_to_mandel, yeoh_curvature, yeoh_density,
                       yeoh_slope)

logger = logging.getLogger(__name__)


class SolveFailure(Exception):
    """Solver could not produce a usable minimizer."""


class Variant(enum.Enum):
    EI = "EI"
    GI = "GI"
    GTILDE = "GTildeI"


# Most negative bound multiplier an optimal active-set working set may carry.
QP_MULTIPLIER_TOL = 1e-9

# max|det F - 1| at which the augmented-Lagrangian loop may stop.
DET_TARGET = 1e-6

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
    kappa0: float = None          # defaults to 100 c1
    kappa_factor: float = 10.0
    kappa_stages: int = 3
    maxiter: int = 5000
    gtol: float = 1e-8
    warm_start: np.ndarray = None

    def __post_init__(self):
        if not (0.0 < self.h < 1.0):
            raise ValueError("h must be in (0, 1)")
        if self.obstacle.num_nodes == 0:
            raise ValueError("obstacle set must be nonempty")
        if self.kappa0 is None:
            self.kappa0 = 100.0 * self.material.c1


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
    rotation: Rotation = None
    polish: str = None   # Newton polish outcome: "ok" or why it was not used


# ---------------------------------------------------------------------------
# assembly

def _shear_block(material, mesh):
    """Hessian of b -> integral Q^I(shear(b)): volume times H9's shear block."""
    h9 = qi_gradient_hessian(material)
    return float(mesh.element_volumes.sum()) * h9[np.ix_(SHEAR_VEC, SHEAR_VEC)]


def assemble_strain_hessian(mesh, material, with_shear=False):
    """Dense Hessian of u -> 2 * integral Q^I(E(u)); optionally with shear columns.

    It is D^T blockdiag(vol_e H9) D, with D the mesh's gradient operator and
    H9 = `material.qi_gradient_hessian`. The shear columns are
    D^T (vol (x) H9[:, shear]) for the shear-lift gradients e_a (x) e3.
    """
    h9 = qi_gradient_hessian(material)
    vols = mesh.element_volumes
    h = gradient_form(mesh, vols[:, None, None] * h9)
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
    range_basis: np.ndarray  # (n, rank)
    r11: np.ndarray          # (rank, rank) upper triangular
    rows: np.ndarray         # (rank,) independent rows of A_eq

    def particular(self, b_eq):
        """Minimum-norm x with A_eq[rows] x = b_eq[rows]; exactly 0 for b_eq = 0."""
        b_eq = np.asarray(b_eq, dtype=float)
        if not b_eq[self.rows].any():
            return np.zeros(self.z.shape[0])
        c = scipy.linalg.solve_triangular(self.r11, b_eq[self.rows], trans="T")
        return self.range_basis @ c

    def padded(self, extra):
        """Frame of [A_eq, 0] with `extra` zero columns appended."""
        n, k = self.z.shape
        z = np.zeros((n + extra, k + extra))
        z[:n, :k] = self.z
        z[n:, k:] = np.eye(extra)
        q1 = np.vstack([self.range_basis, np.zeros((extra, self.range_basis.shape[1]))])
        return _NullSpaceFrame(z, q1, self.r11, self.rows)


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


def _div_null_space(mesh, b_div):
    """Frame of the mesh's divergence rows `b_div`, computed once per mesh."""
    key = ("div_null_space",)
    if key not in mesh._cache:
        mesh._cache[key] = _null_space_frame(b_div, 3 * mesh.num_nodes)
    return mesh._cache[key]


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


def minimize_limit(problem, shared=None):
    """Global minimum of the selected limit functional.

    Swapping the kernel maximum with the outer minimum decomposes the problem
    into convex QPs indexed by the rotation angle theta. For G^I and G~^I with
    a theta-dependent load the minimum over theta is exact (`_angle_path`):
    one QP per arc of the circle on which a working set stays optimal, each
    arc minimized in closed form. E^I, the identity kernel and loads with no
    horizontal part take a single QP at theta = 0. `shared`, a dict that a
    caller passes to several calls on one mesh and material, carries H, the
    div rows, the null-space frame, Z^T H Z and the working-set factors from
    one call to the next (E^I and G^I have the same H); a dict filled for
    another mesh or material raises ValueError. Unbounded directions are
    impossible for admissible loads; an unsatisfiable QP raises SolveFailure.
    """
    p = problem
    n3 = 3 * p.mesh.num_nodes
    with_shear = p.variant == Variant.GTILDE
    if shared is None:
        shared = {}
    mesh, material = shared.setdefault("owner", (p.mesh, p.material))
    if mesh is not p.mesh or material is not p.material:
        raise ValueError("shared limit set-up belongs to another mesh or material")
    if "div" not in shared:
        shared["div"] = assemble_div_matrix(p.mesh)
    b_mat = shared["div"]
    family = "shear" if with_shear else "plain"
    if family not in shared:
        # H and B are fixed here: one factorization per working set, and the
        # div null space is the mesh's (the shear coordinates are free)
        frame = _div_null_space(p.mesh, b_mat)
        shared[family] = (assemble_strain_hessian(p.mesh, p.material, with_shear=with_shear),
                          {"null_space": frame.padded(2) if with_shear else frame})
    h, factors = shared[family]
    if with_shear:
        b_mat = np.hstack([b_mat, np.zeros((b_mat.shape[0], 2))])
    bound_idx = obstacle_bound_dofs(p.obstacle)

    ell = load_vector(p.load, p.mesh)
    g_parts = np.zeros((h.shape[0], 3))
    g_parts[:n3] = -_limit_load_parts(ell)
    theta_independent = float(np.abs(ell[:, :2]).max()) <= 1e-14 * max(
        1.0, float(np.abs(ell).max()))
    if (p.variant == Variant.EI
            or p.kernel_class in (None, KernelClass.IDENTITY_ONLY)
            or theta_independent):
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
    maxload, rot = max_load_over_kernel(u_field, p.load, p.kernel_class, p.mesh)
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
        rotation=rot,
    )


# ---------------------------------------------------------------------------
# nonlinear problem

class _NonlinearAssembler:
    """Energy, augmented-Lagrangian value/gradient and Newton blocks for G_h.

    Every element quantity is a function of the element gradients D @ (y - x)
    and is pulled back to nodal y through D^T.
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

    def deviation(self, y_flat):
        """Per-element F - I, |F|^2 - 3 and det F - 1."""
        d_el = (self.d @ (y_flat - self.x_flat)).reshape(-1, 3, 3)
        return d_el, g_from_deviation(d_el), det_minus_one_from_deviation(d_el)

    def _load(self, y_flat):
        return float(self.ell_flat @ (y_flat - self.x_flat)) / self.p.h

    def energy_parts(self, y_flat):
        """Rescaled energy with the pressure-compensated density
        (`material.compensated_density`), exactly the incompressible energy on
        the constraint set det = 1. Returns (value, r), r = det F - 1."""
        _, g, r = self.deviation(y_flat)
        elastic = float(self.vols @ compensated_density(g, r, self.mat)) / self.p.h**2
        return elastic - self._load(y_flat), r

    def objective(self, y_flat):
        value, r = self.energy_parts(y_flat)
        return value, float(np.abs(r).max())

    def lagrangian_gradient(self, d_el, g, nu):
        """Nodal gradient of h^-2 sum vol W + sum nu vol (det - 1) - L(y - x) / h:
        D^T of the volume-weighted Piola stress 2 W'(g) F / h^2 + nu cof F."""
        f_el = d_el + np.eye(3)
        p_el = ((2.0 * yeoh_slope(g, self.mat) / self.p.h**2)[:, None, None] * f_el
                + nu[:, None, None] * cofactor(f_el))
        return self.dt @ (self.vols[:, None, None] * p_el).ravel() - self.ell_flat / self.p.h

    def al_value_grad(self, y_flat, lam, kappa):
        """Augmented Lagrangian with the penalty inside the h^-2 scaling, the
        penalized incompressible density being W + lam r + (kappa/2) r^2."""
        h2 = self.p.h**2
        d_el, g, r = self.deviation(y_flat)
        density = yeoh_density(g, self.mat) + lam * r + 0.5 * kappa * r**2
        value = float(self.vols @ density) / h2 - self._load(y_flat)
        return value, self.lagrangian_gradient(d_el, g, (lam + kappa * r) / h2)

    def constraint_jacobian(self, d_el):
        """J[e, dof] = vol_e d(det F_e - 1)/dy = blockdiag(vol_e vec(cof F_e)^T) D."""
        cof = cofactor(d_el + np.eye(3))
        return gradient_rows(self.mesh, self.vols[:, None] * cof.reshape(-1, 9))

    def lagrangian_hessian(self, d_el, g, nu):
        """Dense Hessian of h^-2 W + nu vol (det - 1) with respect to nodal y:
        D^T blockdiag(h9_e) D with the 9x9 Hessians h9_e in F."""
        m = d_el.shape[0]
        vec_f = (d_el + np.eye(3)).reshape(m, 9)
        hw = (2.0 * yeoh_slope(g, self.mat)[:, None, None] * np.eye(9)
              + 4.0 * yeoh_curvature(g, self.mat)[:, None, None]
              * vec_f[:, :, None] * vec_f[:, None, :])
        hdet = (vec_f @ _DET_HESS.T).reshape(m, 9, 9)
        h9 = (self.vols / self.p.h**2)[:, None, None] * hw + (nu * self.vols)[:, None, None] * hdet
        return gradient_form(self.mesh, h9)


def _al_solve(asm, y0, problem, lam=None, trace=(), tail=False):
    """Augmented-Lagrangian loop around projected L-BFGS-B inner solves.

    The multipliers start at the identity pressure unless `lam` is given;
    with `lam` and the `trace` of an earlier loop the loop resumes it, its
    stages numbered and its kappa chosen as if it had not stopped. Either way
    it runs until kappa_stages stages have run in all and max|det - 1| <=
    DET_TARGET, or for at most kappa_stages + 12 stages. The L-BFGS-B
    projected-gradient tolerance is the configured gtol times
    max(1, c1/h^2) for the `tail` that runs after a failed Newton finish,
    whose iterate is returned unpolished; ahead of the finish, gtol is
    raised to DET_TARGET, so stationarity is resolved to the relative
    accuracy of the feasibility target the loop stops on. Returns (y, lam,
    det_res, trace, iterations), the trace including the earlier stages and
    the iterations only this call's.
    """
    p = problem
    n3 = y0.size
    lower = np.full(n3, -np.inf)
    lower[obstacle_bound_dofs(p.obstacle)] = 0.0
    bounds = Bounds(lower, np.full(n3, np.inf))
    if lam is None:
        # seed the multipliers with the exact pressure at the identity, -dW/d(det)
        lam = np.full(p.mesh.num_elements, -p.material.pressure)
    y = y0.copy()
    kappas = [p.kappa0 * p.kappa_factor**k for k in range(p.kappa_stages)]
    trace = list(trace)
    total_iter = 0
    det_res = np.inf
    pgtol = (p.gtol if tail else max(p.gtol, DET_TARGET)) * max(1.0, p.material.c1 / p.h**2)
    first = len(trace)
    for stage in range(first, first + p.kappa_stages + 12):
        kappa = kappas[min(stage, len(kappas) - 1)]
        res = minimize(lambda yy: asm.al_value_grad(yy, lam, kappa), y, jac=True,
                       method="L-BFGS-B", bounds=bounds,
                       options={"maxiter": p.maxiter, "ftol": 1e-16,
                                "gtol": pgtol, "maxcor": 30})
        y = res.x
        total_iter += res.nit
        value, r = asm.energy_parts(y)
        det_res = float(np.abs(r).max())
        lam = lam + kappa * r
        trace.append({"stage": stage, "kappa": kappa, "objective": value,
                      "det_residual": det_res, "inner_iterations": res.nit,
                      "inner_gtol": pgtol, "tail": tail})
        if stage >= p.kappa_stages - 1 and det_res <= DET_TARGET:
            break
    return y, lam, det_res, trace, total_iter


def _newton_polish(asm, y, lam, problem, max_rounds=3):
    """Solve the exact KKT system on the active set found by the AL phase.

    The Newton iteration on one active set has converged when max|r1| and
    max|r2| are at most 1e-11 max(1, h^-2), r1 the stationarity residual on
    the free dofs and r2 = vol (det - 1), and the determinant has either
    reached roundoff (max|det - 1| <= 1e-15) or r2 stopped falling (above
    half its value one step earlier): the h^-2 scale alone would accept a
    determinant residual that one more step removes.

    Returns ((y, nu), "ok") on success, else (None, reason) with reason
    "no-convergence" (20 Newton steps on one active set) or
    "active-set-cycling" (`max_rounds` active-set updates ran out).
    """
    p = problem
    bound_dofs = obstacle_bound_dofs(p.obstacle)
    active = np.zeros(y.size, dtype=bool)
    active[bound_dofs[y[bound_dofs] <= 1e-8]] = True
    h2 = p.h**2
    nu = lam / h2   # AL multipliers live in material units
    for _ in range(max_rounds):
        yk = y.copy()
        yk[active] = 0.0
        free = np.flatnonzero(~active)
        converged = False
        r2_prev = np.inf
        for _ in range(20):
            d_el, g, r = asm.deviation(yk)
            grad_l = asm.lagrangian_gradient(d_el, g, nu)
            r1 = grad_l[free]
            r2 = asm.vols * r
            r2_norm = np.abs(r2).max()
            res_norm = max(np.abs(r1).max() if r1.size else 0.0, r2_norm)
            if (res_norm <= 1e-11 * max(1.0, 1.0 / h2)
                    and (np.abs(r).max() <= 1e-15 or r2_norm > 0.5 * r2_prev)):
                converged = True
                break
            r2_prev = r2_norm
            hess = asm.lagrangian_hessian(d_el, g, nu)
            jac = asm.constraint_jacobian(d_el)
            nf, m = free.size, r2.size
            kkt = np.zeros((nf + m, nf + m))
            # the stationarity rows carry h^2: unscaled, the h^-2 Hessian
            # pushes the constraint directions under lstsq's cutoff at small h
            kkt[:nf, :nf] = h2 * hess[np.ix_(free, free)]
            kkt[:nf, nf:] = jac[:, free].T
            kkt[nf:, :nf] = jac[:, free]
            step, *_ = np.linalg.lstsq(kkt, -np.concatenate([h2 * r1, r2]), rcond=None)
            yk[free] += step[:nf]
            nu += step[nf:] / h2
        if not converged:
            return None, "no-convergence"
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
        return (yk, nu), "ok"
    return None, "active-set-cycling"


def minimize_nonlinear(problem):
    """Minimize the rescaled incompressible energy along one solver path.

    One augmented-Lagrangian solve starts from the warm start when one is
    given (in an h-sweep, the previous minimizer rescaled to this h) and from
    the identity otherwise. Its inner solves are inexact, resolved only to
    the accuracy of the feasibility target, and a Newton solve of the KKT
    system on the identified active set then finishes its result. When the
    finish fails or is rejected, the same AL loop resumes from its iterate and
    multipliers at the configured gtol, so an unpolished result is resolved
    to gtol; the result keeps the finish's reason. The reported objective is
    the plain rescaled energy at the returned iterate, with the determinant
    residual reported alongside. A failed AL solve raises SolveFailure naming
    the start.
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

    def al_solve(y_start, **resume):
        try:
            return _al_solve(asm, y_start, p, **resume)
        except Exception as exc:
            raise SolveFailure(f"augmented Lagrangian from start {name} failed: {exc}") from exc

    y, lam, det_res, trace, iters = al_solve(y0)
    termination = f"augmented-lagrangian({name})"
    polished, polish = _newton_polish(asm, y, lam, p)
    if polished is not None:
        y_pol, _ = polished
        _, det_pol = asm.objective(y_pol)
        if det_pol > det_res + 1e-12:
            polish = "rejected-det"
        elif y_pol[obstacle_bound_dofs(p.obstacle)].min() < -1e-12:
            polish = "rejected-bound"
        else:
            y, det_res = y_pol, det_pol
            termination += "+newton"
    logger.info("newton polish at h=%g, start %s: %s", p.h, name, polish)
    tail = polish != "ok"
    if tail:
        y, _, det_res, trace, tail_iters = al_solve(y, lam=lam, trace=trace, tail=True)
        iters += tail_iters
    logger.info("augmented Lagrangian at h=%g, start %s: %d L-BFGS-B iterations over %d "
                "stages, tail %s", p.h, name, iters, len(trace), "run" if tail else "not run")
    value, _ = asm.objective(y)

    if det_res > 1e-6:
        termination += ",det-residual-flagged"

    y_nodal = y.reshape(-1, 3)
    field = DeformationField.from_nodal(p.mesh, y_nodal)
    active = p.obstacle.node_indices[y_nodal[p.obstacle.node_indices, 2] <= 1e-10]
    return SolveResult(
        field=field,
        objective=float(value),
        residuals={"det": float(det_res),
                   "bound_min": float(y_nodal[p.obstacle.node_indices, 2].min())},
        active_nodes=active,
        iterations=iters,
        termination=termination,
        trace=trace,
        polish=polish,
    )

