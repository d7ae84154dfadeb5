"""Load functionals, admissibility conditions, the kernel set and the load center.

The load L(v) = int_Omega f . v + int_dOmega g . v dH2 is assembled exactly for
constant and affine descriptors through consistent P1 mass matrices, so every
evaluation on an affine field is exact. All rotation-dependent quantities
reduce to the 3x3 moment matrix T[i, j] = L(x_j e_i) and the resultant
F[i] = L(e_i), which makes sweeps over SO(3) cheap.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.spatial.transform import Rotation as _ScipyRotation

from .geometry import surface_mass_matrix, volume_mass_matrix

logger = logging.getLogger(__name__)


class LoadError(Exception):
    """Bad load descriptor or violated precondition."""


ADMISSIBILITY_TOL = 1e-9


@dataclass
class Rotation:
    """Proper rotation with matrix and axis-angle representations."""

    matrix: np.ndarray
    axis: np.ndarray
    angle: float
    degenerate: bool = False

    @classmethod
    def identity(cls):
        return cls(matrix=np.eye(3), axis=np.array([0.0, 0.0, 1.0]), angle=0.0)

    @classmethod
    def from_matrix(cls, mat, degenerate=False):
        mat = np.asarray(mat, dtype=float)
        rv = _ScipyRotation.from_matrix(mat).as_rotvec()
        angle = float(np.linalg.norm(rv))
        axis = rv / angle if angle > 0 else np.array([0.0, 0.0, 1.0])
        return cls(matrix=mat, axis=axis, angle=angle, degenerate=degenerate)

    @classmethod
    def from_axis_angle(cls, axis, angle):
        axis = np.asarray(axis, dtype=float)
        norm = np.linalg.norm(axis)
        if norm == 0:
            raise ValueError("rotation axis must be nonzero")
        axis = axis / norm
        mat = _ScipyRotation.from_rotvec(axis * angle).as_matrix()
        return cls(matrix=mat, axis=axis, angle=float(angle))

    @classmethod
    def about_e3(cls, angle):
        return cls.from_axis_angle(np.array([0.0, 0.0, 1.0]), angle)

    def validate(self, tol=1e-12):
        r = self.matrix
        if np.abs(r.T @ r - np.eye(3)).max() > tol or abs(np.linalg.det(r) - 1.0) > tol:
            raise LoadError("matrix is not a rotation")
        return True


class KernelClass(enum.Enum):
    IDENTITY_ONLY = "IdentityOnly"
    ROTATIONS_ABOUT_E3 = "RotationsAboutE3"


@dataclass(frozen=True)
class FieldDescriptor:
    """Closed-form or tabulated force field: constant, affine A x + b, or nodal."""

    kind: str
    value: np.ndarray
    matrix: np.ndarray = None

    def nodal_values(self, mesh):
        if self.kind == "constant":
            return np.tile(np.asarray(self.value, dtype=float), (mesh.num_nodes, 1))
        if self.kind == "affine":
            return mesh.nodes @ np.asarray(self.matrix, dtype=float).T + np.asarray(self.value, dtype=float)
        if self.kind == "nodal":
            vals = np.asarray(self.value, dtype=float)
            if vals.shape != (mesh.num_nodes, 3):
                raise LoadError("tabulated load does not match the mesh")
            return vals
        raise LoadError(f"unknown descriptor kind {self.kind!r}")


def constant_field(vec):
    return FieldDescriptor(kind="constant", value=np.asarray(vec, dtype=float))


def affine_field(matrix, offset):
    return FieldDescriptor(kind="affine", value=np.asarray(offset, dtype=float),
                           matrix=np.asarray(matrix, dtype=float))


def nodal_field(values):
    return FieldDescriptor(kind="nodal", value=np.asarray(values, dtype=float))


@dataclass
class LoadSpec:
    """Volume force f plus surface forces g per boundary region."""

    f: FieldDescriptor = None
    g: tuple = ()      # ((region, FieldDescriptor), ...)


def _array_key(a):
    return None if a is None else (np.shape(a), np.asarray(a, dtype=float).tobytes())


def _descriptor_key(desc):
    return desc.kind, _array_key(desc.value), _array_key(desc.matrix)


def _load_key(load):
    """Hashable content of a load: equal loads share cache entries, and an
    edited load never meets the entry of its old content."""
    f_key = None if load.f is None else _descriptor_key(load.f)
    g_key = tuple((region if isinstance(region, str) else _array_key(region),
                   _descriptor_key(desc)) for region, desc in load.g)
    return f_key, g_key


def _mesh_cached(mesh, name, load, compute):
    """compute(load, mesh), cached on the mesh so the entry dies with it."""
    key = (name, _load_key(load))
    if key not in mesh._cache:
        mesh._cache[key] = compute(load, mesh)
    return mesh._cache[key]


def load_vector(load, mesh):
    """Nodal vector ell with ell . v = L(v) for every nodal field v.

    Exact for constant and affine descriptors; tabulated descriptors are
    treated as the P1 fields they are (consistent mass quadrature).
    """
    return _mesh_cached(mesh, "ell", load, _assemble_load_vector)


def _assemble_load_vector(load, mesh):
    ell = np.zeros((mesh.num_nodes, 3))
    if load.f is not None:
        ell += volume_mass_matrix(mesh) @ load.f.nodal_values(mesh)
    for region, desc in load.g:
        ell += surface_mass_matrix(mesh, region) @ desc.nodal_values(mesh)
    return ell


def eval_load(load, v, mesh):
    """L(v) for a nodal field v; linear in v."""
    v = np.asarray(v, dtype=float)
    if v.shape != (mesh.num_nodes, 3):
        raise LoadError("field does not match the mesh")
    return float((load_vector(load, mesh) * v).sum())


def eval_load_affine(load, a, b, mesh):
    """L(A x + b), exact because P1 reproduces affine fields."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return eval_load(load, mesh.nodes @ a.T + b, mesh)


def load_moments(load, mesh):
    """Resultant F[i] = L(e_i) and moment matrix T[i, j] = L(x_j e_i)."""
    return _mesh_cached(mesh, "moments", load, _assemble_moments)


def _assemble_moments(load, mesh):
    ell = load_vector(load, mesh)
    return ell.sum(axis=0), ell.T @ mesh.nodes


def resultant_and_torque(load, mesh, pivot=(0.0, 0.0, 0.0)):
    """Force resultant and torque T with T . a = L(a ^ (x - pivot))."""
    f_res, t_mom = load_moments(load, mesh)
    pivot = np.asarray(pivot, dtype=float)
    torque0 = np.array([
        -t_mom[1, 2] + t_mom[2, 1],
        t_mom[0, 2] - t_mom[2, 0],
        -t_mom[0, 1] + t_mom[1, 0],
    ])
    return f_res.copy(), torque0 - np.cross(pivot, f_res)


def _phi_batch(rmats, f_res, t_mom, hull):
    """Phi(R) = L((R - I)x) - L(e3) min_E (R x)_3 for a batch of matrices."""
    rmats = np.asarray(rmats, dtype=float)
    lin = ((rmats - np.eye(3)) * t_mom).sum(axis=(-2, -1))
    heights = rmats[..., 2, 0, None] * hull[:, 0] + rmats[..., 2, 1, None] * hull[:, 1]
    return lin - f_res[2] * heights.min(axis=-1)


def _shear_batch(rmats, t_mom):
    """L((R x - x)_alpha e_alpha) for a batch of matrices."""
    rmats = np.asarray(rmats, dtype=float)
    d = rmats - np.eye(3)
    return (d[..., :2, :] * t_mom[:2, :]).sum(axis=(-2, -1))


def phi(load, obstacle, rotation, mesh):
    """Load-obstacle compatibility function Phi(R, E, L)."""
    if obstacle.num_nodes == 0:
        raise LoadError("empty obstacle set")
    f_res, t_mom = load_moments(load, mesh)
    mat = rotation.matrix if isinstance(rotation, Rotation) else np.asarray(rotation, dtype=float)
    return float(_phi_batch(mat[None], f_res, t_mom, obstacle.hull_vertices_2d)[0])


def shear_functional(load, rotation, mesh):
    """Horizontal shear functional L((R x - x)_alpha e_alpha)."""
    _, t_mom = load_moments(load, mesh)
    mat = rotation.matrix if isinstance(rotation, Rotation) else np.asarray(rotation, dtype=float)
    return float(_shear_batch(mat[None], t_mom)[0])


@dataclass
class AdmissibilityReport:
    L_e1: float
    L_e2: float
    L_e3: float
    torque_about_e3: float
    planar_compression: float
    worst_phi: float
    worst_phi_rotation: Rotation
    worst_shear: float
    worst_shear_rotation: Rotation
    kernel_class: KernelClass = None
    load_center: np.ndarray = None
    load_center_residual: float = None
    load_center_interior: bool = None
    axis_identity_residual: float = 0.0     # max |L((a^x)_alpha e_alpha)| over axes
    axis_compression_worst: float = 0.0     # max L((a^(a^x))_alpha e_alpha) over axes
    l0_unbounded: bool = False
    conditions_basic_ok: bool = False
    shear_ok: bool = False
    global_phi_ok: bool = False
    seed: int = 0
    budget: int = 0
    tol: float = ADMISSIBILITY_TOL
    violations: tuple = ()

    @property
    def admissible(self):
        return self.conditions_basic_ok and self.shear_ok and self.global_phi_ok

    @property
    def basic_admissible(self):
        """Linear-order gate: conditions (1)-(3), the axis identities and shear."""
        return self.conditions_basic_ok and self.shear_ok


def _sample_rotations(rng, count):
    """Uniform rotations from unit quaternions; stream order keeps prefixes nested."""
    q = rng.standard_normal((count, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    m = np.empty((count, 3, 3))
    m[:, 0, 0] = 1 - 2 * (y * y + z * z)
    m[:, 0, 1] = 2 * (x * y - z * w)
    m[:, 0, 2] = 2 * (x * z + y * w)
    m[:, 1, 0] = 2 * (x * y + z * w)
    m[:, 1, 1] = 1 - 2 * (x * x + z * z)
    m[:, 1, 2] = 2 * (y * z - x * w)
    m[:, 2, 0] = 2 * (x * z - y * w)
    m[:, 2, 1] = 2 * (y * z + x * w)
    m[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def _structured_rotations():
    """Fixed coarse net over SO(3): axis grid times angle grid, identity included."""
    axes = []
    for ax in np.eye(3):
        axes.append(ax)
    for s1 in (-1.0, 1.0):
        axes.append(np.array([s1, 1.0, 0.0]) / np.sqrt(2))
        axes.append(np.array([s1, 0.0, 1.0]) / np.sqrt(2))
        axes.append(np.array([0.0, s1, 1.0]) / np.sqrt(2))
        axes.append(np.array([s1, 1.0, 1.0]) / np.sqrt(3))
    angles = np.array([np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3, 5 * np.pi / 6, np.pi])
    mats = [np.eye(3)]
    for ax in axes:
        for ang in angles:
            mats.append(_ScipyRotation.from_rotvec(ax * ang).as_matrix())
    return np.array(mats)


def _ascend(objective, start_mats, maxiter=300):
    best_val, best_vec = -np.inf, np.zeros(3)
    for mat in start_mats:
        x0 = _ScipyRotation.from_matrix(mat).as_rotvec()
        res = minimize(lambda w: -objective(_ScipyRotation.from_rotvec(w).as_matrix()),
                       x0, method="Nelder-Mead",
                       options={"maxiter": maxiter, "xatol": 1e-12, "fatol": 1e-14})
        if -res.fun > best_val:
            best_val, best_vec = -res.fun, res.x
    return best_val, _ScipyRotation.from_rotvec(best_vec).as_matrix()


def verify_global_admissibility(load, obstacle, mesh, budget=2000, seed=0,
                                tol=ADMISSIBILITY_TOL):
    """Check every load condition and maximize Phi and the shear over SO(3).

    The SO(3) maximization uses a fixed structured net, `budget` quasi-uniform
    random samples from the given seed, and Nelder-Mead ascent from the ten
    best samples. Violations are reported in the result, never raised.
    """
    if budget < 1000:
        raise ValueError("budget must be at least 1000")
    if obstacle.num_nodes == 0:
        raise LoadError("empty obstacle set")
    f_res, t_mom = load_moments(load, mesh)
    hull = obstacle.hull_vertices_2d

    torque_e3 = -t_mom[0, 1] + t_mom[1, 0]
    planar_comp = -(t_mom[0, 0] + t_mom[1, 1])

    # axis identities implied by the shear condition, checked on an axis grid
    rng_axes = np.concatenate([np.eye(3), np.random.default_rng(11).standard_normal((8, 3))])
    rng_axes /= np.linalg.norm(rng_axes, axis=1, keepdims=True)
    eq_worst, comp_worst = 0.0, -np.inf
    for a in rng_axes:
        eq = (a[1] * t_mom[0, 2] - a[2] * t_mom[0, 1]
              + a[2] * t_mom[1, 0] - a[0] * t_mom[1, 2])
        comp = sum(a[al] * (a @ t_mom[al]) - t_mom[al, al] for al in (0, 1))
        eq_worst = max(eq_worst, abs(eq))
        comp_worst = max(comp_worst, comp)

    mats = np.concatenate([_structured_rotations(),
                           _sample_rotations(np.random.default_rng(seed), budget)])
    phis = _phi_batch(mats, f_res, t_mom, hull)
    shears = _shear_batch(mats, t_mom)

    top = np.argsort(phis)[-10:]
    phi_val, phi_mat = _ascend(lambda m: _phi_batch(m[None], f_res, t_mom, hull)[0], mats[top])
    worst_phi = max(float(phis.max()), phi_val, 0.0)  # Phi(I) = 0 keeps the floor
    worst_phi_mat = phi_mat if phi_val >= phis.max() else mats[int(np.argmax(phis))]

    top_s = np.argsort(shears)[-10:]
    shear_val, shear_mat = _ascend(lambda m: _shear_batch(m[None], t_mom)[0], mats[top_s])
    worst_shear = max(float(shears.max()), shear_val, 0.0)
    worst_shear_mat = shear_mat if shear_val >= shears.max() else mats[int(np.argmax(shears))]

    violations = []
    if abs(f_res[0]) > tol:
        violations.append(f"L(e1) = {f_res[0]:.3e} != 0")
    if abs(f_res[1]) > tol:
        violations.append(f"L(e2) = {f_res[1]:.3e} != 0")
    if f_res[2] > tol:
        violations.append(f"L(e3) = {f_res[2]:.3e} > 0")
    if abs(torque_e3) > tol:
        violations.append(f"L(e3 ^ x) = {torque_e3:.3e} != 0")
    if planar_comp > tol:
        violations.append(f"L(e3 ^ (e3 ^ x)) = {planar_comp:.3e} > 0")
    if eq_worst > tol:
        violations.append(f"axis identity L((a^x)_a e_a) residual {eq_worst:.3e}")
    if comp_worst > tol:
        violations.append(f"axis compression L((a^(a^x))_a e_a) = {comp_worst:.3e} > 0")
    conditions_basic_ok = not violations
    if worst_shear > tol:
        violations.append(f"shear condition violated: worst {worst_shear:.3e}")
    if worst_phi > tol:
        violations.append(f"global Phi condition violated: worst {worst_phi:.3e}")

    # (L0) and (L1) are checked as two routes to the same supremum: with
    # F1 = F2 = 0 the worst translation c is c3 = -min_E (R x)_3, which turns
    # the (L0) supremum into the Phi supremum; otherwise (L0) is unbounded.
    l0_unbounded = abs(f_res[0]) > tol or abs(f_res[1]) > tol

    kernel = None
    if f_res[2] < -tol:
        kernel = classify_kernel(load, obstacle, mesh, tol=tol)

    center = residual = interior = None
    if abs(f_res[2]) > 1e-12 * max(1.0, float(np.abs(f_res).sum())):
        center, residual, interior = _load_center(f_res, t_mom, hull)

    report = AdmissibilityReport(
        L_e1=float(f_res[0]), L_e2=float(f_res[1]), L_e3=float(f_res[2]),
        torque_about_e3=float(torque_e3), planar_compression=float(planar_comp),
        worst_phi=float(worst_phi), worst_phi_rotation=Rotation.from_matrix(worst_phi_mat),
        worst_shear=float(worst_shear), worst_shear_rotation=Rotation.from_matrix(worst_shear_mat),
        kernel_class=kernel,
        load_center=center, load_center_residual=residual, load_center_interior=interior,
        axis_identity_residual=float(eq_worst), axis_compression_worst=float(comp_worst),
        l0_unbounded=bool(l0_unbounded),
        conditions_basic_ok=bool(conditions_basic_ok),
        shear_ok=bool(worst_shear <= tol),
        global_phi_ok=bool(worst_phi <= tol),
        seed=seed, budget=budget, tol=tol, violations=tuple(violations),
    )
    return report


def classify_kernel(load, obstacle, mesh, tol=ADMISSIBILITY_TOL, grid=4096):
    """Dichotomy of the kernel set: identity only, or all rotations fixing e3.

    Decided by a theta grid of rotations about e3 (Phi vanishes identically on
    the grid iff the kernel is the full circle); the closed form
    L(x1 e1 + x2 e2) = 0 is evaluated as a cross-check and any disagreement is
    logged rather than reconciled.
    """
    f_res, t_mom = load_moments(load, mesh)
    if f_res[2] >= -tol:
        raise LoadError("kernel classification requires L(e3) < 0")
    theta = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    p = t_mom[0, 0] + t_mom[1, 1]
    q = -t_mom[0, 1] + t_mom[1, 0]
    phi_grid = (np.cos(theta) - 1.0) * p + np.sin(theta) * q
    grid_says_circle = bool(np.abs(phi_grid).max() <= tol)
    closed_says_circle = bool(abs(p) <= tol)
    if grid_says_circle != closed_says_circle:
        logger.warning("kernel grid test and closed form disagree: grid=%s closed=%s",
                       grid_says_circle, closed_says_circle)
    return KernelClass.ROTATIONS_ABOUT_E3 if grid_says_circle else KernelClass.IDENTITY_ONLY


def _load_center(f_res, t_mom, hull):
    torque0 = np.array([
        -t_mom[1, 2] + t_mom[2, 1],
        t_mom[0, 2] - t_mom[2, 0],
        -t_mom[0, 1] + t_mom[1, 0],
    ])
    p = -torque0[1] / f_res[2]
    q = torque0[0] / f_res[2]
    center = np.array([p, q, 0.0])
    residual = float(np.linalg.norm(torque0 - np.cross(center, f_res)))
    from .geometry import point_in_hull_2d

    interior = point_in_hull_2d(center[:2], hull, strict_margin=1e-12)
    return center, residual, interior


def find_load_center(load, obstacle, mesh):
    """Pivot x_L with vanishing torque, x_{L,3} = 0; raises when F3 = 0."""
    f_res, t_mom = load_moments(load, mesh)
    if abs(f_res[2]) <= 1e-12 * max(1.0, float(np.abs(t_mom).max())):
        raise LoadError("load center undetermined")
    center, residual, interior = _load_center(f_res, t_mom, obstacle.hull_vertices_2d)
    return center, residual, interior


def read_load_file(path):
    """Parse load directives: `f constant cx cy cz`, `f affine <9> <3>`,
    `g region=<name> constant cx cy cz`; one directive per line, # comments."""
    f_desc = None
    g_descs = []
    with open(path) as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    for ln in lines:
        if not ln:
            continue
        f_desc, g_descs = _parse_load_directive(ln.split(), f_desc, g_descs)
    return LoadSpec(f=f_desc, g=tuple(g_descs))


def _parse_load_directive(tokens, f_desc, g_descs):
    if tokens[0] == "f":
        if tokens[1] == "constant":
            f_desc = constant_field([float(v) for v in tokens[2:5]])
        elif tokens[1] == "affine":
            vals = [float(v) for v in tokens[2:14]]
            f_desc = affine_field(np.array(vals[:9]).reshape(3, 3), vals[9:12])
        else:
            raise LoadError(f"unknown volume descriptor {tokens[1]!r}")
    elif tokens[0] == "g":
        if not tokens[1].startswith("region="):
            raise LoadError("surface descriptor needs region=<name>")
        region = tokens[1].split("=", 1)[1]
        if tokens[2] != "constant":
            raise LoadError(f"unknown surface descriptor {tokens[2]!r}")
        g_descs.append((region, constant_field([float(v) for v in tokens[3:6]])))
    else:
        raise LoadError(f"unknown load directive {tokens[0]!r}")
    return f_desc, g_descs
