"""Load functionals, admissibility conditions, the kernel set and the load center.

The load L(v) = int_Omega f . v + int_dOmega g . v dH2 is assembled exactly for
constant and affine descriptors through consistent P1 mass matrices, so every
evaluation on an affine field is exact. All rotation-dependent quantities
reduce to the 3x3 moment matrix T[i, j] = L(x_j e_i) and the resultant
F[i] = L(e_i), so the suprema over SO(3) reduce to 4x4 eigenvalue problems.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.optimize import minimize
from scipy.spatial.transform import Rotation as _ScipyRotation

from .geometry import point_in_hull_2d, surface_mass_matrix, volume_mass_matrix


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
    def about_e3(cls, angle):
        c, s = np.cos(angle), np.sin(angle)
        mat = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return cls(matrix=mat, axis=np.array([0.0, 0.0, 1.0]), angle=float(angle))


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
    g_key = tuple((region, _descriptor_key(desc)) for region, desc in load.g)
    return f_key, g_key


def load_vector(load, mesh):
    """Nodal vector ell with ell . v = L(v) for every nodal field v, cached
    on the mesh under the load's content (read-only).

    Exact for constant and affine descriptors; tabulated descriptors are
    treated as the P1 fields they are (consistent mass quadrature).
    """
    return mesh.cached(("ell", _load_key(load)), lambda: _assemble_load_vector(load, mesh))


def is_zero_load(load, mesh):
    """Whether the load vector vanishes: a degenerate but bounded load."""
    return float(np.abs(load_vector(load, mesh)).max()) <= 1e-14


def _assemble_load_vector(load, mesh):
    ell = np.zeros((mesh.num_nodes, 3))
    if load.f is not None:
        ell += volume_mass_matrix(mesh) @ load.f.nodal_values(mesh)
    for region, desc in load.g:
        ell += surface_mass_matrix(mesh, region) @ desc.nodal_values(mesh)
    return ell


def load_moments(load, mesh):
    """Resultant F[i] = L(e_i) and moment matrix T[i, j] = L(x_j e_i),
    cached on the mesh like `load_vector`."""
    return mesh.cached(("moments", _load_key(load)), lambda: _assemble_moments(load, mesh))


def _assemble_moments(load, mesh):
    ell = load_vector(load, mesh)
    return ell.sum(axis=0), ell.T @ mesh.nodes


def _torque(t_mom):
    """Torque about the origin from the moment matrix: T0 . a = L(a ^ x)."""
    return np.array([
        -t_mom[1, 2] + t_mom[2, 1],
        t_mom[0, 2] - t_mom[2, 0],
        -t_mom[0, 1] + t_mom[1, 0],
    ])


def _planar_compression(t_mom):
    """L(e3 ^ (e3 ^ x)) = -L(x1 e1 + x2 e2)."""
    return -(t_mom[0, 0] + t_mom[1, 1])


def linear_order_violations(f_res, t_mom, tol):
    """Messages of the violated linear-order conditions L(e1) = L(e2) = 0,
    L(e3) <= 0, L(e3 ^ x) = 0, L(e3 ^ (e3 ^ x)) <= 0, from F and T up to tol."""
    torque_e3 = _torque(t_mom)[2]
    planar_comp = _planar_compression(t_mom)
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
    return violations


def _phi_batch(rmats, f_res, t_mom, hull):
    """Phi(R) = L((R - I)x) - L(e3) min_E (R x)_3 for a batch of matrices."""
    rmats = np.asarray(rmats, dtype=float)
    lin = ((rmats - np.eye(3)) * t_mom).sum(axis=(-2, -1))
    heights = rmats[..., 2, 0, None] * hull[:, 0] + rmats[..., 2, 1, None] * hull[:, 1]
    return lin - f_res[2] * heights.min(axis=-1)


def phi(load, obstacle, rotation, mesh):
    """Load-obstacle compatibility function Phi(R, E, L)."""
    if obstacle.num_nodes == 0:
        raise LoadError("empty obstacle set")
    f_res, t_mom = load_moments(load, mesh)
    mat = rotation.matrix if isinstance(rotation, Rotation) else np.asarray(rotation, dtype=float)
    return float(_phi_batch(mat[None], f_res, t_mom, obstacle.hull_vertices_2d)[0])


@dataclass
class AdmissibilityReport:
    L_e1: float
    L_e2: float
    L_e3: float
    torque_about_e3: float
    planar_compression: float
    worst_phi: float                        # certified upper bound of sup Phi over SO(3)
    worst_phi_rotation: Rotation            # attains worst_phi_lower
    worst_shear: float                      # exact supremum of the shear functional
    worst_shear_rotation: Rotation
    worst_phi_lower: float = 0.0            # Phi at worst_phi_rotation, a lower bound
    kernel_class: KernelClass = None
    load_center: np.ndarray = None
    load_center_residual: float = None
    load_center_interior: bool = None
    axis_identity_residual: float = 0.0     # max |L((a^x)_alpha e_alpha)| over unit axes
    axis_compression_worst: float = 0.0     # max L((a^(a^x))_alpha e_alpha) over unit axes
    l0_unbounded: bool = False
    conditions_basic_ok: bool = False
    shear_ok: bool = False
    global_phi_ok: bool = False
    seed: int = 0                           # recorded; the suprema do not sample
    tol: float = field(default=ADMISSIBILITY_TOL, init=False)
    violations: tuple = ()

    @property
    def basic_admissible(self):
        """Linear-order gate: conditions (1)-(3), the axis identities and shear."""
        return self.conditions_basic_ok and self.shear_ok


def _davenport(b):
    """Davenport's 4x4 matrix K(B): q^T K(B) q = <R(q), B> for unit quaternions q.

    So the supremum of <R, B> over SO(3) is the top eigenvalue of K(B), attained
    at its eigenvector (Davenport, NASA TN D-4696, 1968; Horn, JOSA A 4, 1987).
    Works on (3, 3) and (..., 3, 3) inputs.
    """
    b = np.asarray(b, dtype=float)
    tr = b[..., 0, 0] + b[..., 1, 1] + b[..., 2, 2]
    k = np.empty(b.shape[:-2] + (4, 4))
    k[..., 0, 0] = tr
    z = np.stack([b[..., 2, 1] - b[..., 1, 2], b[..., 0, 2] - b[..., 2, 0],
                  b[..., 1, 0] - b[..., 0, 1]], axis=-1)
    k[..., 0, 1:] = z
    k[..., 1:, 0] = z
    k[..., 1:, 1:] = b + np.swapaxes(b, -1, -2) - tr[..., None, None] * np.eye(3)
    return k


def _quaternion_rotation(q):
    """Rotation matrix of the unit quaternion q = (w, x, y, z)."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def _eigh(k):
    # scipy's LAPACK, which the limit QPs load anyway: numpy's own would add
    # its code pages to the process (about 0.5 MB of peak RSS)
    return scipy.linalg.eigh(k, check_finite=False)


_IDENTITY_QUATERNION = np.array([1.0, 0.0, 0.0, 0.0])
_BRACKET_TOL = 1e-13    # relative width at which the Phi bracket counts as closed


def _phi_bracket(f_res, t_mom, hull, pivot):
    """Certified bracket lower <= sup_SO(3) Phi <= upper, and q with Phi(R(q)) = lower.

    With C_v = e3 (x) (x_v, 0), Phi(R) = <R, T - F3 C_v> - tr T at the vertex v
    of lowest (R x_v)_3. For F3 >= 0 that vertex maximizes the bracket, so
    sup Phi = max_v lambda_max(K(T - F3 C_v)) - tr T exactly. For F3 < 0 it
    minimizes it, and every point c of the hull gives the upper bound
    g(c) = lambda_max(K(T - F3 C_c)) - tr T, convex in c; the vertex weights
    lambda with c = sum lambda_v x_v make it the simplex problem of
    min lambda_max(sum lambda_v K_v). The lower bound is Phi at the top
    eigenvector. At `pivot`, the load center of a load that passes the
    linear-order conditions, T - F3 C_c is symmetric with e3 as an
    eigenvector. Barring a tie between the identity and a horizontal
    half-turn, the top eigenvectors are then rotations that keep the hull at
    height 0 (half-turns about horizontal axes, rotations about e3), where
    Phi equals g: the bracket closes, also for a multiple top eigenvalue such
    as the `tilted` fixture's. Only when a gap is left does SLSQP minimize g
    over the simplex, and one Nelder-Mead run then ascends Phi.
    """
    f3 = float(f_res[2])
    trace = float(np.trace(t_mom))
    pivots = np.zeros((hull.shape[0], 3, 3))
    pivots[:, 2, :2] = hull
    k_v = _davenport(t_mom - f3 * pivots)

    def phi_at(q):
        return float(_phi_batch(_quaternion_rotation(q)[None], f_res, t_mom, hull)[0])

    def bracket_of(k):
        w, v = _eigh(k)
        return float(w[-1]) - trace, phi_at(v[:, -1]), v[:, -1]

    if f3 >= 0.0:
        return max(map(bracket_of, k_v), key=lambda bracket: bracket[0])

    def closed(upper, lower):
        return upper - lower <= _BRACKET_TOL * (1.0 + float(np.abs(k_v).max()))

    if pivot is None:
        pivot = hull.mean(axis=0)
    upper, lower, q = bracket_of(_davenport(t_mom - f3 * np.outer([0, 0, 1], [*pivot, 0])))
    if closed(upper, lower):
        return upper, lower, q

    def dual(lam):
        w, v = _eigh(np.tensordot(lam, k_v, axes=1))
        top = v[:, -1]
        return w[-1], np.einsum("i,vij,j->v", top, k_v, top)

    base = np.full(hull.shape[0], 1.0 / hull.shape[0])
    res = minimize(dual, base, jac=True, method="SLSQP",
                   bounds=[(0.0, 1.0)] * len(base),
                   constraints={"type": "eq", "fun": lambda lam: lam.sum() - 1.0,
                                "jac": lambda lam: np.ones_like(lam)},
                   options={"ftol": 1e-15, "maxiter": 200})
    lam = np.clip(res.x, 0.0, None)
    up2, low2, q2 = bracket_of(np.tensordot(lam / lam.sum(), k_v, axes=1))
    upper = min(upper, up2)
    if low2 > lower:
        lower, q = low2, q2
    if closed(upper, lower):
        return upper, lower, q
    res = minimize(lambda x: -phi_at(x), q, method="Nelder-Mead",
                   options={"maxfev": 2000, "xatol": 1e-12, "fatol": 1e-15})
    if -res.fun > lower:
        lower, q = float(-res.fun), res.x / np.linalg.norm(res.x)
    return upper, lower, q


def verify_global_admissibility(load, obstacle, mesh, budget=2000, seed=0):
    """Check every load condition and bound Phi and the shear over SO(3).

    The suprema come from Davenport's quaternion matrix: the shear supremum
    and, for L(e3) >= 0, the Phi supremum are top eigenvalues; for L(e3) < 0
    Phi is bracketed (see `_phi_bracket`) and `global_phi_ok` is decided on
    the upper bound, so it never passes a load that fails. `budget` and `seed`
    are accepted for existing callers, and `seed` is recorded in the report;
    they do not change the result. Every condition is decided at
    ADMISSIBILITY_TOL. Violations are reported, never raised.
    """
    if budget < 1000:
        raise ValueError("budget must be at least 1000")
    if obstacle.num_nodes == 0:
        raise LoadError("empty obstacle set")
    tol = ADMISSIBILITY_TOL
    f_res, t_mom = load_moments(load, mesh)
    hull = obstacle.hull_vertices_2d
    torque_e3 = _torque(t_mom)[2]
    planar_comp = _planar_compression(t_mom)

    # axis identities implied by the shear condition, maximized over unit axes
    # a: L((a^x)_alpha e_alpha) = a . w, and the compression is a^T A a minus
    # the planar trace, with A the horizontal rows of T over a zero row
    eq_worst = float(np.linalg.norm([-t_mom[1, 2], t_mom[0, 2], torque_e3]))
    shear_t = t_mom.copy()      # P T with P = diag(1, 1, 0)
    shear_t[2] = 0.0
    comp_worst = float(scipy.linalg.eigvalsh(shear_t + shear_t.T)[-1] / 2
                       + planar_comp)

    center = residual = interior = None
    if abs(f_res[2]) > 1e-12 * max(1.0, float(np.abs(f_res).sum())):
        center, residual, interior = _load_center(f_res, t_mom, hull)

    # Phi(I) = 0, so both suprema are at least 0 and the identity attains it
    phi_upper, phi_lower, phi_q = _phi_bracket(
        f_res, t_mom, hull, center[:2] if interior else None)
    if phi_lower <= 0.0:
        phi_lower, phi_q = 0.0, _IDENTITY_QUATERNION
    phi_upper = max(phi_upper, 0.0)
    w, v = _eigh(_davenport(shear_t))
    worst_shear = float(w[-1]) - (shear_t[0, 0] + shear_t[1, 1])
    shear_q = v[:, -1] if worst_shear > 0.0 else _IDENTITY_QUATERNION
    worst_shear = max(worst_shear, 0.0)

    violations = linear_order_violations(f_res, t_mom, tol)
    if eq_worst > tol:
        violations.append(f"axis identity L((a^x)_a e_a) residual {eq_worst:.3e}")
    if comp_worst > tol:
        violations.append(f"axis compression L((a^(a^x))_a e_a) = {comp_worst:.3e} > 0")
    conditions_basic_ok = not violations
    if worst_shear > tol:
        violations.append(f"shear condition violated: worst {worst_shear:.3e}")
    if phi_upper > tol:
        violations.append(f"global Phi condition violated: worst {phi_upper:.3e}")

    # (L0) and (L1) are checked as two routes to the same supremum: with
    # F1 = F2 = 0 the worst translation c is c3 = -min_E (R x)_3, which turns
    # the (L0) supremum into the Phi supremum; otherwise (L0) is unbounded.
    l0_unbounded = abs(f_res[0]) > tol or abs(f_res[1]) > tol

    kernel = None
    if f_res[2] < -tol:
        kernel = classify_kernel(load, obstacle, mesh)

    return AdmissibilityReport(
        L_e1=float(f_res[0]), L_e2=float(f_res[1]), L_e3=float(f_res[2]),
        torque_about_e3=float(torque_e3), planar_compression=float(planar_comp),
        worst_phi=float(phi_upper),
        worst_phi_rotation=Rotation.from_matrix(_quaternion_rotation(phi_q)),
        worst_shear=worst_shear,
        worst_shear_rotation=Rotation.from_matrix(_quaternion_rotation(shear_q)),
        worst_phi_lower=float(phi_lower),
        kernel_class=kernel,
        load_center=center, load_center_residual=residual, load_center_interior=interior,
        axis_identity_residual=eq_worst, axis_compression_worst=comp_worst,
        l0_unbounded=bool(l0_unbounded),
        conditions_basic_ok=bool(conditions_basic_ok),
        shear_ok=bool(worst_shear <= tol),
        global_phi_ok=bool(phi_upper <= tol),
        seed=seed, violations=tuple(violations),
    )


def classify_kernel(load, obstacle, mesh):
    """Dichotomy of the kernel set: identity only, or all rotations fixing e3.

    About e3, Phi(R_theta) = (cos theta - 1) p + sin theta q with p = L(x1 e1 +
    x2 e2) and q = L(e3 ^ x), whose largest modulus over theta is
    |p| + hypot(p, q). The kernel is the full circle iff that vanishes (to
    ADMISSIBILITY_TOL).
    """
    f_res, t_mom = load_moments(load, mesh)
    if f_res[2] >= -ADMISSIBILITY_TOL:
        raise LoadError("kernel classification requires L(e3) < 0")
    p = t_mom[0, 0] + t_mom[1, 1]
    q = _torque(t_mom)[2]
    if abs(p) + np.hypot(p, q) <= ADMISSIBILITY_TOL:
        return KernelClass.ROTATIONS_ABOUT_E3
    return KernelClass.IDENTITY_ONLY


def _load_center(f_res, t_mom, hull):
    torque0 = _torque(t_mom)
    p = -torque0[1] / f_res[2]
    q = torque0[0] / f_res[2]
    center = np.array([p, q, 0.0])
    residual = float(np.linalg.norm(torque0 - np.cross(center, f_res)))
    interior = point_in_hull_2d(center[:2], hull)
    return center, residual, interior
