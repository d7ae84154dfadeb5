"""Deformation and displacement fields, optimal rotations and rescaling formulas."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import integrate_volume
from .loads import Rotation


@dataclass
class DeformationField:
    """Nodal deformation y with its per-element P1 gradients."""

    y: np.ndarray            # (N, 3)
    gradients: np.ndarray    # (M, 3, 3)

    @classmethod
    def from_nodal(cls, mesh, y):
        y = np.asarray(y, dtype=float)
        return cls(y=y, gradients=mesh.element_gradients(y))


@dataclass
class DisplacementField:
    """Nodal displacement u with per-element gradients, strains and divergence."""

    u: np.ndarray            # (N, 3)
    gradients: np.ndarray    # (M, 3, 3)

    @classmethod
    def from_nodal(cls, mesh, u):
        u = np.asarray(u, dtype=float)
        return cls(u=u, gradients=mesh.element_gradients(u))

    @property
    def strains(self):
        return 0.5 * (self.gradients + np.transpose(self.gradients, (0, 2, 1)))

    @property
    def divergence(self):
        return np.trace(self.gradients, axis1=1, axis2=2)


def optimal_rotation(y_field, mesh):
    """Rotation closest to the deformation gradient in the mean-square sense.

    Computes A = int grad y dx and returns the polar factor with determinant
    sign correction, the maximizer of tr(R^T A) over SO(3). When the two
    smallest singular values of A vanish (below 1e-9 of the largest) the
    minimizer is not unique; one is returned with the degenerate flag set.
    """
    a = np.einsum("e,eij->ij", mesh.element_volumes, y_field.gradients)
    u, s, vt = np.linalg.svd(a)
    d = np.sign(np.linalg.det(u @ vt))
    r = u @ np.diag([1.0, 1.0, d]) @ vt
    scale = max(s[0], 1e-300)
    degenerate = bool(s[1] <= 1e-9 * scale)
    return Rotation.from_matrix(r, degenerate=degenerate)


def translations(y_field, rotation, obstacle, mesh):
    """Translation vector of the rescaling: horizontal means plus the contact lift.

    c_alpha is the mean of (y - R x)_alpha over the body for alpha = 1, 2 and
    c_3 = -min over the obstacle hull of (R x)_3.
    """
    if obstacle.num_nodes == 0:
        raise ValueError("empty obstacle set")
    r = rotation.matrix
    diff = y_field.y - mesh.nodes @ r.T
    c = np.zeros(3)
    vol = mesh.volume
    c[0] = integrate_volume(mesh, diff[:, 0]) / vol
    c[1] = integrate_volume(mesh, diff[:, 1]) / vol
    hull = obstacle.hull_vertices_2d
    heights = r[2, 0] * hull[:, 0] + r[2, 1] * hull[:, 1]
    c[2] = -float(heights.min())
    return c


def extract_displacement(y_field, rotation, c, h, mesh):
    """Rescaled displacement u = h^-1 R^T {(y - c - R x)_a e_a + (y_3 - x_3) e_3}."""
    if h <= 0:
        raise ValueError("h must be positive")
    r = rotation.matrix
    x = mesh.nodes
    v = np.empty_like(y_field.y)
    rigid = x @ r.T + np.asarray(c, dtype=float)
    v[:, 0] = y_field.y[:, 0] - rigid[:, 0]
    v[:, 1] = y_field.y[:, 1] - rigid[:, 1]
    v[:, 2] = y_field.y[:, 2] - x[:, 2]
    u = (v @ r) / h   # v @ r applies R^T to each row
    return DisplacementField.from_nodal(mesh, u)


def determinant_expansion_check(u_field, h):
    """Residual of det(I + h grad u) against its cubic expansion, per element.

    The expansion 1 + h div u - h^2/2 (tr((grad u)^2) - (tr grad u)^2)
    + h^3 det grad u is an algebraic identity, so the residual is roundoff.
    Returns the max absolute residual.
    """
    g = u_field.gradients
    lhs = np.linalg.det(np.eye(3) + h * g)
    tr = np.trace(g, axis1=1, axis2=2)
    tr_sq = np.trace(np.einsum("eij,ejk->eik", g, g), axis1=1, axis2=2)
    rhs = 1.0 + h * tr - 0.5 * h**2 * (tr_sq - tr**2) + h**3 * np.linalg.det(g)
    return float(np.abs(lhs - rhs).max())

