"""Recovery sequences: extension, mollification, volume-preserving flow, Bogovskii.

A limit displacement is extended past the body by grid reflections (tangential
components flipped, normal kept, which preserves the distributional divergence
away from a one-cell blend layer), mollified with a polynomial bump, and
transported by the Lagrangian flow of the mollified field for time h. The flow
map is volume preserving, so the deformations R z(h, x) + beta e3 satisfy the
incompressibility constraint up to integration error, and the vertical lift
beta keeps the obstacle condition, with the constant computed from recorded
norm bounds.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import _freeze, build_box_mesh, gradient_form, h1_norm
from .kinematics import DeformationField, DisplacementField
from .loads import Rotation, load_vector
from .material import compensated_density, det_minus_one_from_deviation, g_from_deviation
from .solvers import (
    SolveFailure,
    active_set_qp,
    assemble_div_matrix,
    max_load_over_kernel,
    optimal_shear_b,
    strain_energy_quadratic,
    tilde_lift,
)

logger = logging.getLogger(__name__)


class FlowDomainError(Exception):
    """A trajectory left the neighborhood where the field is defined, so the
    guaranteed existence time of the flow was exceeded."""


class UnderResolvedError(Exception):
    """The mollification radius does not fit the mesh: too small for the
    sampling grid, too large for the reflected layer, or large enough that the
    quadrature ball of a flowed point meets the blend layer, where the
    extension is not divergence free, while the flow's determinants fail."""


# Polynomial bump rho(r) = C (1 - r^2)^3 on r <= 1; unit mass in 3-D.
RHO_NORM = 315.0 / (64.0 * np.pi)
# K = 4 pi int_0^1 |rho'(r)| r^2 dr, closed form for this bump.
MOLLIFIER_K = 315.0 / 64.0

# Kuhn element of a cell (index into geometry.KUHN_PERMS) from the comparisons
# 4 (g0 >= g1) + 2 (g0 >= g2) + (g1 >= g2) of the parity-adjusted coordinates:
# the chain walks the axes by decreasing g, lower axis first on ties, as a
# stable argsort of -g does. Codes 2 and 5 are cyclic, so no real g reaches them.
_KUHN_LUT = np.array([5, 3, -1, 2, 4, -1, 1, 0])
# Location roundoff stays below _ROUNDOFF cell widths.
_ROUNDOFF = 1e-12


def _axis_rotation(axis, angle):
    """Rotation by `angle` about `axis` (Rodrigues' formula)."""
    k = np.cross(np.eye(3), np.asarray(axis, dtype=float) / np.linalg.norm(axis))
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


# The rotation of the ball quadrature grid. An axis-aligned grid puts
# (node, offset) pairs of a box mesh exactly on cell faces and Kuhn planes, and
# a rational axis leaves the grid points on it fixed; about this axis of
# irrational direction ratios every pair of cube 2, 3 and 4 and of the
# (2, 3, 2) / (1, 0.6, 1.4) box, at nq 6, 8 and 10 and eps from 0.1 down to
# 0.00237, stays at least 7e-7 cell widths off every face and plane.
_QUAD_ROTATION = _axis_rotation((1.0, np.sqrt(2.0), np.sqrt(3.0)), 0.9)

# Largest RK4 step count the step doubling of integrate_flow reaches.
FLOW_MAX_STEPS = 1024

# Points per location call while a FlowAnchor is built; arrays of this many
# points stay small enough for the allocator to reuse them.
_ANCHOR_CHUNK = 4096

# Largest per-element divergence of a recovery input and of a Bogovskii
# correction's residual.
DIV_TOL = 1e-9


def _chain_gap(g):
    """Distance in cell widths from parity-adjusted coordinates g to the
    nearest face of their cell, min(g) or 1 - max(g), or plane g_i = g_j of
    the three comparisons, |g_i - g_j| / sqrt 2."""
    g0, g1, g2 = g[:, 0], g[:, 1], g[:, 2]
    cell = np.minimum(np.minimum(np.minimum(g0, g1), g2),
                      1.0 - np.maximum(np.maximum(g0, g1), g2))
    plane = np.minimum(np.minimum(np.abs(g0 - g1), np.abs(g0 - g2)), np.abs(g1 - g2))
    return np.minimum(cell, plane / np.sqrt(2.0))


def rho_bump(r):
    r = np.asarray(r, dtype=float)
    return np.where(r < 1.0, RHO_NORM * (1.0 - np.minimum(r, 1.0) ** 2) ** 3, 0.0)


class ReflectedExtension:
    """Conforming P1 extension of a nodal field by one reflected layer per face.

    Mirror images flip the tangential components and keep the normal one, so
    the normal flux is continuous and the extension is divergence free except
    on the single layer of elements that touch the interface (the blend layer).
    """

    def __init__(self, mesh, u):
        if mesh.box_origin is None:
            raise SolveFailure("field extension requires a box mesh")
        self.base = mesh
        self.origin = mesh.box_origin
        self.lengths = mesh.box_lengths
        self.div = np.asarray(mesh.box_divisions, dtype=int)
        self.spacing = self.lengths / self.div
        ext_div = 3 * self.div
        self.ext_origin = self.origin - self.lengths
        self.parity = (mesh.box_parity + self.div) % 2  # align cell parity with the base
        self.mesh = build_box_mesh(ext_div, lengths=3 * self.lengths,
                                   origin=self.ext_origin, parity_offset=self.parity)
        self.ext_div = ext_div

        u = np.asarray(u, dtype=float)
        grid_idx = np.rint((self.mesh.nodes - self.origin) / self.spacing).astype(int)
        folded = grid_idx.copy()
        flips = np.zeros_like(grid_idx)
        for ax in range(3):
            n = self.div[ax]
            low = folded[:, ax] < 0
            folded[low, ax] = -folded[low, ax]
            flips[low, ax] = 1
            high = folded[:, ax] > n
            folded[high, ax] = 2 * n - folded[high, ax]
            flips[high, ax] = 1
        base_ids = ((folded[:, 0] * (self.div[1] + 1) + folded[:, 1])
                    * (self.div[2] + 1) + folded[:, 2])
        signs = np.empty_like(self.mesh.nodes)
        total = flips.sum(axis=1)
        for j in range(3):
            signs[:, j] = np.where((total - flips[:, j]) % 2 == 1, -1.0, 1.0)
        self.values = signs * u[base_ids]
        self.gradients = self.mesh.element_gradients(self.values)
        # the P1 field on element e is the affine map x -> G_e x + c_e
        first = self.mesh.tets[:, 0]
        self.offsets = self.values[first] - np.einsum(
            "eij,ej->ei", self.gradients, self.mesh.nodes[first])

        self.sup_bound = float(np.linalg.norm(self.values, axis=1).max())
        self.lip_bound = float(np.sqrt((self.gradients ** 2).sum(axis=(1, 2))).max())
        self.box_lo = self.ext_origin.copy()
        self.box_hi = self.ext_origin + 3 * self.lengths

    def _cell_frame(self, points):
        """The points as a float array, their cells and the parity-adjusted
        coordinates g in those cells.

        Within a cell of parity flags sigma the Kuhn chains run in the
        coordinates g = f (sigma = 0) or g = 1 - f (sigma = 1) of the
        fractional position f, exactly as for the unreflected subdivision.
        """
        p = np.asarray(points, dtype=float)
        rel = (p - self.ext_origin) / self.spacing
        if not np.all((rel >= -1e-9) & (rel <= 3 * self.div + 1e-9)):
            raise FlowDomainError(
                "point outside the extension neighborhood (flow existence time exceeded)")
        cell = np.clip(np.floor(rel).astype(int), 0, self.ext_div - 1)
        frac = rel - cell
        g = np.where(((cell + self.parity) & 1).astype(bool), 1.0 - frac, frac)
        return p, cell, g

    def _frame_elements(self, cell, g):
        """Element ids of points with cells `cell` and parity-adjusted
        coordinates g (`_cell_frame`): the order of g fixes the element."""
        code = (4 * (g[:, 0] >= g[:, 1]) + 2 * (g[:, 0] >= g[:, 2])
                + (g[:, 1] >= g[:, 2]))
        ny, nz = self.ext_div[1], self.ext_div[2]
        lin = (cell[:, 0] * ny + cell[:, 1]) * nz + cell[:, 2]
        return lin * 6 + _KUHN_LUT[code]

    def locate(self, points):
        """Element ids of the points, with the points as a float array."""
        p, cell, g = self._cell_frame(points)
        return self._frame_elements(cell, g), p

    def blend_distance(self, points):
        """Distance from points of the base box to the blend layer, the shell
        of elements just outside the box, whose inner boundary is the box's."""
        p = np.asarray(points, dtype=float)
        return np.minimum(p - self.origin, self.origin + self.lengths - p).min(axis=1)

    def eval_values(self, points):
        elem, p = self.locate(points)
        return np.einsum("pij,pj->pi", self.gradients[elem], p) + self.offsets[elem]

    def eval_gradients(self, points):
        return self.gradients[self.locate(points)[0]]


@dataclass
class SmoothField:
    """Mollified (or synthetic) velocity field with recorded norm bounds.

    sup_norm and grad_norm are rigorous upper bounds for the field and its
    gradient; holder_seminorm bounds its gamma-Hoelder seminorm, for the gamma
    of `mollify`. anchor_fn, when set, builds the FlowAnchor that
    integrate_flow evaluates through.
    """

    eval_fn: callable
    grad_fn: callable
    sup_norm: float
    grad_norm: float
    holder_seminorm: float
    eps: float
    box_lo: np.ndarray
    box_hi: np.ndarray
    anchor_fn: callable = None

    @property
    def holder_norm(self):
        return self.sup_norm + self.holder_seminorm

    def __call__(self, points):
        return self.eval_fn(_query(points))

    def gradient(self, points):
        return self.grad_fn(_query(points))

    def anchor(self, x, reach):
        """FlowAnchor of the field at base points x for displacements up to
        reach, or None for a field that has none (closed-form fields)."""
        return None if self.anchor_fn is None else self.anchor_fn(x, reach)

    def check_inside(self, points):
        """Raise FlowDomainError unless every point lies in the box where the
        field is defined (to 1e-12), non-finite points included. A flow
        through an anchor whose base points all lie its reach inside the box
        (`FlowAnchor.keeps_inside`) skips this check at its RK stages: the
        anchor's reach check implies it."""
        p = np.atleast_2d(points)
        if not np.all((p >= self.box_lo - 1e-12) & (p <= self.box_hi + 1e-12)):
            raise FlowDomainError(
                "trajectory left the validated neighborhood; existence time exceeded")


class AnchoredPoints(NamedTuple):
    """Positions of the rows start, start + 1, ... of a FlowAnchor's base
    points: a query that the eval_fn and grad_fn of the anchored field take.
    `FlowAnchor.at` builds it once the positions pass the reach check, so
    evaluating it checks nothing again."""

    anchor: FlowAnchor
    pos: np.ndarray
    start: int = 0

    def tail(self, k):
        """The query of the rows from the k-th on, with no second reach check."""
        return AnchoredPoints(self.anchor, self.pos[k:], self.start + k)


def _query(points):
    if isinstance(points, AnchoredPoints):
        return points
    return np.atleast_2d(np.asarray(points, dtype=float))


class FlowAnchor:
    """The mollified field of `ext` near base points x, for displacements up
    to a reach.

    Every pair (p, q), the point x_p - o_q, is located once. Within the reach
    of x_p its Kuhn element can change only where it crosses a face of its
    cell or a plane g_i = g_j of its chain. A pair whose cell faces and
    planes are all farther than the reach keeps its element e, so its share
    w_q (G_e (y - o_q) + c_e) of the quadrature sum is affine in the position
    y. The anchored pairs of a point fold per element into a weight sum W_pe
    and a first moment S_pe = sum w_q o_q, and those into one map per point,
    A_p y + b_p with A_p = sum W_pe G_e and b_p = sum (W_pe c_e - G_e S_pe).
    Only the remaining (live) pairs are located again at each evaluation, as
    the all-pairs sum locates them, so values and gradients differ from that
    sum only by the order of summation. The rotated rule of `mollify` keeps
    the pairs of box-mesh nodes and centroids off every face and plane, so a
    flow of small reach has no live pair.

    `at` checks the reach once per query: a position farther than the reach
    from its base point raises FlowDomainError. `values` and `gradients`
    take checked queries only. When the anchor has no live pair, `gradients`
    returns a view of the per-point maps; grad, shift, x, live_p and live_q
    are read-only.
    """

    def __init__(self, ext, offsets, weights, x, reach):
        self.ext, self.offsets, self.weights = ext, offsets, weights
        self.x = np.array(x, dtype=float)
        # roundoff can carry an RK stage a few ulps past t sup|v|
        self.reach = float(reach) * (1.0 + 1e-9)
        nq, npts = offsets.shape[0], self.x.shape[0]
        n_elem = ext.mesh.num_elements
        # the reach in cell widths of the finest axis, plus location roundoff
        far = self.reach / float(ext.spacing.min()) + _ROUNDOFF
        keys, qs, live = [], [], []
        # a few offsets per location call, so no temporary grows much past
        # _ANCHOR_CHUNK points
        per_call = max(1, _ANCHOR_CHUNK // npts)
        for q0 in range(0, nq, per_call):
            q1 = min(q0 + per_call, nq)
            pair = np.arange(q0 * npts, q1 * npts)       # pair q npts + p
            _, cell, g = ext._cell_frame(
                (self.x[None, :, :] - offsets[q0:q1, None, :]).reshape(-1, 3))
            anchored = _chain_gap(g) > far
            elem = ext._frame_elements(cell, g)[anchored]
            keys.append((pair[anchored] % npts) * n_elem + elem)
            qs.append(pair[anchored] // npts)
            live.append(pair[~anchored])
        # per (point, element): the weight sum and the first moment of its pairs
        keys, inv = np.unique(np.concatenate(keys), return_inverse=True)
        q = np.concatenate(qs)
        sums = _group_sums(inv, np.vstack([weights, weights * offsets.T])[:, q], keys.size)
        mass, moment = sums[:, :1], sums[:, 1:]
        point, elem = np.divmod(keys, n_elem)
        grads = ext.gradients[elem]
        shift = mass * ext.offsets[elem] - np.einsum("kij,kj->ki", grads, moment)
        self.grad = _group_sums(point, (mass * grads.reshape(-1, 9)).T, npts).reshape(-1, 3, 3)
        self.shift = _group_sums(point, shift.T, npts)
        live = np.concatenate(live)
        order = np.argsort(live % npts, kind="stable")
        self.live_p, self.live_q = live[order] % npts, live[order] // npts   # sorted by point
        # `gradients` hands out views of grad
        _freeze((self.x, self.grad, self.shift, self.live_p, self.live_q))

    def keeps_inside(self, lo, hi):
        """Whether every position within the reach of a base point lies in
        the box [lo, hi]."""
        return bool(np.all((self.x - self.reach >= lo) & (self.x + self.reach <= hi)))

    def at(self, pos):
        """The query for positions pos of the base rows 0, 1, ..., whose
        displacements must be within the reach."""
        pos = np.asarray(pos, dtype=float)
        d = pos - self.x[:pos.shape[0]]
        if not np.einsum("pi,pi->p", d, d).max(initial=0.0) <= self.reach**2:
            raise FlowDomainError(f"displacement beyond the anchor's reach {self.reach:.3e}")
        return AnchoredPoints(self, pos)

    def values(self, pos, start=0):
        rows = slice(start, start + pos.shape[0])
        out = np.einsum("pij,pj->pi", self.grad[rows], pos) + self.shift[rows]
        self._add_live(out, pos, start, self.ext.eval_values)
        return out

    def gradients(self, pos, start=0):
        out = self.grad[start:start + pos.shape[0]]
        if self.live_p.size:
            out = out.copy()
        self._add_live(out, pos, start, self.ext.eval_gradients)
        return out

    def _add_live(self, out, pos, start, evaluate):
        """Add to out the weighted values of `evaluate` at the live pairs of
        the rows of pos."""
        if not self.live_p.size:
            return
        live = slice(*np.searchsorted(self.live_p, (start, start + pos.shape[0])))
        p, q = self.live_p[live], self.live_q[live]
        if p.size:
            vals = evaluate(pos[p - start] - self.offsets[q])
            np.add.at(out, p - start,
                      self.weights[q].reshape((-1,) + (1,) * (vals.ndim - 1)) * vals)


def _group_sums(index, cols, n):
    """The sums over equal index of each row of cols, as the n rows of the result."""
    return np.stack([np.bincount(index, col, n) for col in cols], axis=1)


def _ball_quadrature(eps, nq):
    """Offsets and weights of the mollifier's rule on the ball of radius eps:
    the centers of an nq^3 grid of cells over [-eps, eps]^3 that lie inside
    the ball, weighted by rho_eps times the cell volume and scaled to unit
    mass, then turned by _QUAD_ROTATION. The grid's o -> -o symmetry and its
    isotropic second moment c I survive the rotation, and the weights depend
    only on |o|."""
    centers = (np.arange(nq) + 0.5) / nq * 2.0 * eps - eps
    gx, gy, gz = np.meshgrid(centers, centers, centers, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    r = np.linalg.norm(pts, axis=1) / eps
    keep = r < 1.0
    pts = pts[keep] @ _QUAD_ROTATION.T
    w = rho_bump(r[keep]) / eps**3 * (2.0 * eps / nq) ** 3
    w /= w.sum()   # exact unit mass for the discrete operator
    return pts, w


def _holder_seminorm_bound(lip, sup, gamma, diam):
    if sup == 0.0 or lip == 0.0:
        return 0.0
    return float(min(lip**gamma * (2.0 * sup) ** (1.0 - gamma),
                     lip * diam ** (1.0 - gamma)))


def mollify(ext, eps, gamma=0.25, nq=8):
    """Discrete mollification of `ext`, the reflected extension of a displacement.

    The convolution v = u * rho_eps and its gradient are evaluated by one
    fixed nonnegative quadrature rule on the ball (`_ball_quadrature`,
    exactly unit mass), so v is piecewise linear, bounded by the nodal bound
    of u, and its divergence is a convex combination of per-element
    divergences: exactly as divergence free as the input wherever the
    quadrature ball avoids the blend layer. The rule is symmetric under
    o -> -o, so it reproduces affine fields, and its second moment is
    isotropic. It is rotated off the grid axes, so no (node or centroid,
    offset) pair of a box mesh lies on a cell face or a Kuhn plane.

    A point list is evaluated by locating every (point, quadrature offset)
    pair. The field's `anchor` builds a FlowAnchor at fixed base points,
    which folds the pairs that cannot change element within the reach into
    per-point affine maps and locates only the rest again; `integrate_flow`
    evaluates through it.
    """
    if nq < 4:
        raise UnderResolvedError("eps is below two sampling-grid spacings (nq < 4)")
    if eps <= 0.0 or eps >= 0.9 * float(ext.lengths.min()):
        raise UnderResolvedError("mollification radius must sit inside the reflected layer")
    offsets, weights = _ball_quadrature(eps, nq)

    def _shifted(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        big = (pts[None, :, :] - offsets[:, None, :]).reshape(-1, 3)
        return pts.shape[0], big

    def eval_fn(points):
        if isinstance(points, AnchoredPoints):
            return points.anchor.values(points.pos, points.start)
        npts, big = _shifted(points)
        vals = ext.eval_values(big).reshape(offsets.shape[0], npts, 3)
        return np.einsum("q,qpi->pi", weights, vals)

    def grad_fn(points):
        if isinstance(points, AnchoredPoints):
            return points.anchor.gradients(points.pos, points.start)
        npts, big = _shifted(points)
        grads = ext.eval_gradients(big).reshape(offsets.shape[0], npts, 3, 3)
        return np.einsum("q,qpij->pij", weights, grads)

    diam = float(np.linalg.norm(ext.box_hi - ext.box_lo))
    semi = _holder_seminorm_bound(ext.lip_bound, ext.sup_bound, gamma, diam)
    return SmoothField(
        eval_fn=eval_fn, grad_fn=grad_fn,
        anchor_fn=lambda x, reach: FlowAnchor(ext, offsets, weights, x, reach),
        sup_norm=ext.sup_bound, grad_norm=ext.lip_bound,
        holder_seminorm=semi, eps=eps,
        box_lo=ext.box_lo + eps, box_hi=ext.box_hi - eps,
    )


@dataclass
class FlowResult:
    z_nodes: np.ndarray          # (N, 3) flowed nodal positions
    delta_nodes: np.ndarray      # (N, 3) z - x at nodes
    element_defgrad: np.ndarray  # (M, 3, 3) variational gradient at centroids
    element_det: np.ndarray      # (M,)
    steps: int
    ledger: list
    richardson: dict

    @property
    def max_det_residual(self):
        return float(np.abs(self.element_det - 1.0).max())


def _rk4_flow(v, x, n_nodes, t_final, steps, anchor):
    """RK4 states (delta, y) after each step for the stacked nodes and centroids
    x; the variational deviation y lives on the centroids x[n_nodes:].

    Each stage calls v once on all rows and v.gradient once on the centroids.
    With an anchor of v at x (None for a field without one), both evaluate
    one query of the anchor, so a stage checks the reach once. The box check
    of v runs at every stage unless the anchor keeps every base point its
    reach inside the box, where the reach check implies it; the final
    positions are always checked."""
    dt = t_final / steps
    delta = np.zeros_like(x)
    y_c = np.zeros((x.shape[0] - n_nodes, 3, 3))
    eye = np.eye(3)
    check_box = anchor is None or not anchor.keeps_inside(v.box_lo, v.box_hi)

    def rhs(d, yc):
        pos = x + d
        if check_box:
            v.check_inside(pos)
        if anchor is None:
            vals, grads = v(pos), v.gradient(pos[n_nodes:])
        else:
            query = anchor.at(pos)
            vals, grads = v(query), v.gradient(query.tail(n_nodes))
        return vals, grads @ (eye + yc)

    states = []
    for _ in range(steps):
        k1 = rhs(delta, y_c)
        k2 = rhs(delta + 0.5 * dt * k1[0], y_c + 0.5 * dt * k1[1])
        k3 = rhs(delta + 0.5 * dt * k2[0], y_c + 0.5 * dt * k2[1])
        k4 = rhs(delta + dt * k3[0], y_c + dt * k3[1])
        delta = delta + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        y_c = y_c + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        states.append((delta[:n_nodes], y_c))
    v.check_inside(x + delta)
    return states


def integrate_flow(v, t_final, mesh, steps=32, ledger_samples=8):
    """RK4 transport of mesh nodes and element centroids by a velocity field.

    The variational equation for the spatial gradient is integrated alongside
    at element centroids; the deviation form keeps det grad z - 1 accurate at
    roundoff level. Step count doubles until the determinant drift passes
    1e-8 or the count reaches FLOW_MAX_STEPS; a drift that is not finite
    raises SolveFailure at once, naming the step count. The Richardson check
    compares the delivered run with the run at half its steps, reused from
    the doubling when it made one, so it bounds the error of the coarser run
    and is conservative for the delivered one. The ledger stores the sampled
    verification of the four flow bounds against the recorded norms.

    Every RK stage moves a point by dt times convex combinations of field
    values, so no further than the reach t_final sup|v|. The field is
    anchored once at the nodes and centroids for that reach (`v.anchor`), and
    every run, the Richardson one included, evaluates through the anchor, as
    does the nodes' initial velocity that the ledger's flux bound uses. An RK
    stage then checks the reach once, and the field's box only where the
    reach does not imply it (`_rk4_flow`).
    """
    x_nodes = mesh.nodes
    x = np.concatenate([x_nodes, mesh.nodes[mesh.tets].mean(axis=1)])
    n = x_nodes.shape[0]
    anchor = v.anchor(x, t_final * v.sup_norm)
    v0_nodes = v(x_nodes if anchor is None else anchor.at(x_nodes))

    steps = max(4, int(steps))
    prev_res = coarse = None
    while True:
        states = _rk4_flow(v, x, n, t_final, steps, anchor)
        det_res = np.abs(det_minus_one_from_deviation(states[-1][1])).max()
        if not np.isfinite(det_res):
            raise SolveFailure(f"flow determinant drift is not finite after {steps} RK4 steps")
        if det_res <= 1e-8 or steps >= FLOW_MAX_STEPS:
            break
        if prev_res is not None and det_res > 0.5 * prev_res:
            # the drift does not shrink with the step: it is not integration
            # error (the field is not divergence free along the trajectories)
            logger.info("determinant drift %.2e insensitive to refinement", det_res)
            break
        prev_res, coarse = det_res, states
        steps *= 2

    if coarse is None:
        coarse = _rk4_flow(v, x, n, t_final, steps // 2, anchor)
    (dn_c, yc_c), (dn_f, yc_f) = coarse[-1], states[-1]
    rich = {
        "steps": (steps // 2, steps),
        "delta_diff": float(np.abs(dn_f - dn_c).max()),
        "det_diff": float(np.abs(det_minus_one_from_deviation(yc_f)
                                 - det_minus_one_from_deviation(yc_c)).max()),
    }

    ledger = []
    sample_every = max(1, steps // max(1, ledger_samples))
    guard = 1.0 + 1e-10
    for k in range(sample_every - 1, steps, sample_every):
        dn, yc = states[k]
        t = t_final * (k + 1) / steps
        disp = float(np.linalg.norm(dn, axis=1).max())
        grow = np.exp(t * v.grad_norm)
        flux2_lhs = float(np.linalg.norm(dn / t - v0_nodes, axis=1).max()) if t > 0 else 0.0
        gradz = float(np.sqrt(((np.eye(3) + yc) ** 2).sum(axis=(1, 2))).max())
        devz = float(np.sqrt((yc**2).sum(axis=(1, 2))).max())
        entry = {
            "t": t,
            "nuova1": (disp, t * v.sup_norm * grow),
            "flux2": (flux2_lhs, v.sup_norm * (grow - 1.0)),
            "nuova2": (gradz, 3.0 * grow),
            "flux3": (devz, 3.0 * (grow - 1.0)),
            "det_residual": float(np.abs(det_minus_one_from_deviation(yc)).max()),
        }
        entry["all_hold"] = all(lhs <= rhs * guard + 1e-13
                                for lhs, rhs in (entry["nuova1"], entry["flux2"],
                                                 entry["nuova2"], entry["flux3"]))
        ledger.append(entry)

    dn, yc = states[-1]
    defgrad = np.eye(3) + yc
    det = 1.0 + det_minus_one_from_deviation(yc)
    return FlowResult(z_nodes=x_nodes + dn, delta_nodes=dn, element_defgrad=defgrad,
                      element_det=det, steps=steps,
                      ledger=ledger, richardson=rich)


# ---------------------------------------------------------------------------
# Bogovskii corrector

def bogovskii_correct(v_field, mesh):
    """Gradient-minimal w with per-element div w = -div v + mean(div v), w = 0 on the boundary.

    Returns (w, c_star) with c_star the realized ratio of the H1 norm of w to
    the L2 norm of the divergence defect. On meshes with fewer interior dofs
    than elements the constrained system is generically unsatisfiable and a
    SolveFailure advising refinement is raised, as it is when the corrected
    divergence misses its target by more than DIV_TOL.
    """
    div = v_field.divergence
    vols = mesh.element_volumes
    mean = float(vols @ div) / float(vols.sum())
    rhs = -div + mean

    interior = np.setdiff1d(np.arange(mesh.num_nodes), mesh.boundary_node_indices())
    free = (3 * interior[:, None] + np.arange(3)[None, :]).ravel()

    b_full = assemble_div_matrix(mesh)
    # vector Laplacian: integral of grad w : grad w' is D^T (vol (x) I_9) D
    k_full = gradient_form(mesh, vols[:, None, None] * np.eye(9))
    n3 = 3 * mesh.num_nodes

    rhs_norm = float(np.sqrt(vols @ rhs**2))
    w_flat = np.zeros(n3)
    if rhs_norm > 0.0 and free.size:
        try:
            x, _ = active_set_qp(k_full[np.ix_(free, free)], np.zeros(free.size),
                                 b_full[:, free], rhs, np.array([], dtype=int))
        except SolveFailure as exc:
            raise SolveFailure(
                "divergence correction infeasible on this mesh "
                f"({free.size} interior dofs vs {mesh.num_elements} elements); "
                "refine the mesh") from exc
        w_flat[free] = x
    elif rhs_norm > 0.0:
        raise SolveFailure("no interior dofs; refine the mesh")
    w = DisplacementField.from_nodal(mesh, w_flat.reshape(-1, 3))
    resid = float(np.abs(w.divergence - rhs).max())
    if resid > DIV_TOL:
        raise SolveFailure(
            f"divergence correction residual {resid:.3e} exceeds {DIV_TOL:.1e}; refine the mesh")
    c_star = h1_norm(mesh, w.u) / rhs_norm if rhs_norm > 0 else 0.0
    return w, float(c_star)


# ---------------------------------------------------------------------------
# recovery sequence

@dataclass
class RecoveryStep:
    h: float
    eps: float
    beta: float
    field: DeformationField        # P1 snapshot of the flowed map
    element_defgrad: np.ndarray    # R (I + Y) at centroids
    flow: FlowResult
    rotation: Rotation


def _raise_det_failure(ext, mesh, det_residual, eps, reach):
    """Name the determinant failure of a flow of reach `reach`: UnderResolvedError
    when some centroid's quadrature ball can meet the blend layer along its
    trajectory (radius eps + reach), SolveFailure otherwise."""
    message = f"recovery determinant residual {det_residual:.3e} exceeds 1e-6"
    depth = float(ext.blend_distance(mesh.nodes[mesh.tets].mean(axis=1)).min())
    if depth <= eps + reach:
        raise UnderResolvedError(
            f"{message}: eps = {eps:.4g} plus the flow reach {reach:.3g} exceeds the "
            f"distance {depth:.4g} from a centroid to the blend layer, so the quadrature "
            "ball meets the blend layer, where the extension is not divergence free "
            "(eps = h^(gamma/2) shrinks with smaller h or larger gamma)")
    raise SolveFailure(message)


def build_recovery_sequence(u_field, material, load, obstacle, mesh, h_list,
                            gamma=0.25, kernel_class=None, steps_per_h=32,
                            ledger_samples=8, nq=8):
    """Deformations y_h = R z_h(h, x) + beta_h e3 recovering a limit displacement.

    Per h the lifted field is mollified at radius h^(gamma/2), flowed for time
    h, rotated by the kernel rotation that maximizes the load, and lifted
    vertically by beta_h computed from the recorded norm bounds (the larger of
    the closed-form constant and the rigorous discrete bound). The input must
    be divergence free to DIV_TOL. Nodal admissibility on the obstacle and
    unit determinants are verified, and a violation is a hard failure: a
    determinant failure whose quadrature balls reach the blend layer raises
    UnderResolvedError naming eps, any other violation SolveFailure.
    """
    if float(np.abs(u_field.divergence).max()) > DIV_TOL:
        raise SolveFailure("recovery input must be divergence free")
    if obstacle.num_nodes and float(u_field.u[obstacle.node_indices, 2].min()) < -1e-12:
        raise SolveFailure("recovery input violates the obstacle condition")
    b_star = optimal_shear_b(u_field, material, mesh)
    lifted = tilde_lift(u_field, b_star, mesh)
    maxval, rot = max_load_over_kernel(lifted, load, kernel_class, mesh)
    rmat = rot.matrix
    ext = ReflectedExtension(mesh, lifted.u)    # only eps changes with h

    steps = []
    for h in h_list:
        eps = h ** (gamma / 2.0)
        fld = mollify(ext, eps, gamma=gamma, nq=nq)
        flow = integrate_flow(fld, h, mesh, steps=steps_per_h, ledger_samples=ledger_samples)
        norm = fld.holder_norm
        beta_closed_form = h * norm * (eps**gamma + np.expm1(MOLLIFIER_K * h / eps * norm))
        dev_bound = min(fld.grad_norm * eps, 2.0 * fld.sup_norm)
        beta_rig = h * (dev_bound + fld.sup_norm * np.expm1(h * fld.grad_norm))
        beta = max(beta_closed_form, beta_rig)
        y = flow.z_nodes @ rmat.T
        y[:, 2] += beta
        if obstacle.num_nodes:
            y3 = y[obstacle.node_indices, 2]
            if not float(y3.min()) >= -1e-12:
                node = obstacle.node_indices[int(np.argmin(y3))]
                raise SolveFailure(
                    f"recovery admissibility violated at node {node}: y3 = {y3.min():.3e}")
        defgrad = np.einsum("ij,ejk->eik", rmat, flow.element_defgrad)
        if not flow.max_det_residual <= 1e-6:
            _raise_det_failure(ext, mesh, flow.max_det_residual, eps, h * fld.sup_norm)
        steps.append(RecoveryStep(
            h=h, eps=eps, beta=float(beta),
            field=DeformationField.from_nodal(mesh, y),
            element_defgrad=defgrad, flow=flow, rotation=rot,
        ))
    return steps


def recovery_energy(step, material, load, mesh):
    """Strict rescaled energy of a recovery deformation.

    The stored energy is evaluated from the variational deviation Y (frame
    indifference removes the rotation), which stays accurate for h far below
    roundoff-visible scales; the load term uses the exact nodal snapshot.
    """
    h = step.h
    yc = step.flow.element_defgrad - np.eye(3)
    w = compensated_density(g_from_deviation(yc), det_minus_one_from_deviation(yc), material)
    elastic = float(mesh.element_volumes @ w) / h**2
    ell = load_vector(load, mesh)
    disp = step.field.y - mesh.nodes
    load_term = float((ell * disp).sum()) / h
    err_bar = material.pressure * step.flow.max_det_residual / h**2 * float(
        mesh.element_volumes.sum())
    return elastic - load_term, err_bar


def verify_upper_bound(u_field, steps, material, load, obstacle, mesh, kernel_class=None):
    """Gap report G_h(y_h) - G_tilde(u) for a recovery sequence.

    Returns G_tilde(u) ("g_tilde"), one row per h with its energy, gap,
    positive part, error bar, beta and determinant residual ("rows"),
    whether the positive parts are nonincreasing in the order of the steps
    ("positive_part_nonincreasing"), the final positive part
    ("final_gap_plus") and the scale 1 + |G_tilde(u)| ("scale"). It gives
    no verdict on the final size: callers compare "final_gap_plus" with a
    threshold of their own times "scale".
    """
    b_star = optimal_shear_b(u_field, material, mesh, div_tol=1e-6)
    maxload, _ = max_load_over_kernel(u_field, load, kernel_class, mesh)
    g_tilde = strain_energy_quadratic(u_field, material, mesh, b=b_star) - maxload
    rows = []
    for step in steps:
        value, err_bar = recovery_energy(step, material, load, mesh)
        gap = value - g_tilde
        rows.append({"h": step.h, "energy": value, "gap": gap,
                     "gap_plus": max(gap, 0.0), "error_bar": err_bar,
                     "beta": step.beta, "det_residual": step.flow.max_det_residual})
    plus = [r["gap_plus"] for r in rows]
    nonincreasing = all(plus[i] >= plus[i + 1] - 1e-12 for i in range(len(plus) - 1))
    return {
        "g_tilde": g_tilde,
        "rows": rows,
        "positive_part_nonincreasing": nonincreasing,
        "final_gap_plus": plus[-1] if plus else 0.0,
        "scale": 1.0 + abs(g_tilde),
    }
