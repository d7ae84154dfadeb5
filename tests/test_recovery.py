import dataclasses
import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad
from scipy.linalg import expm

import signorini_lab as sl
from conftest import random_divergence_free, yeoh_energy
from signorini_lab import recovery
from signorini_lab.geometry import KUHN_PERMS
from signorini_lab.kinematics import DeformationField, DisplacementField
from signorini_lab.loads import load_vector
from signorini_lab.recovery import (
    MOLLIFIER_K,
    ReflectedExtension,
    _chain_gap,
    _holder_seminorm_bound,
    rho_bump,
)
from signorini_lab.solvers import _NonlinearAssembler


def synthetic_field(eval_fn, grad_fn, sup_norm, grad_norm, box_lo, box_hi, gamma=0.5):
    """SmoothField of a closed-form velocity field."""
    diam = float(np.linalg.norm(np.asarray(box_hi) - np.asarray(box_lo)))
    return recovery.SmoothField(
        eval_fn=lambda p: eval_fn(np.atleast_2d(p)), grad_fn=lambda p: grad_fn(np.atleast_2d(p)),
        sup_norm=float(sup_norm), grad_norm=float(grad_norm),
        holder_seminorm=_holder_seminorm_bound(grad_norm, sup_norm, gamma, diam),
        eps=0.0, box_lo=np.asarray(box_lo, dtype=float), box_hi=np.asarray(box_hi, dtype=float))


def test_mollifier_mass_and_kernel_constant():
    # unit mass of the bump, checked by radial quadrature
    mass, _ = quad(lambda r: 4 * np.pi * rho_bump(r) * r**2, 0.0, 1.0)
    assert abs(mass - 1.0) < 1e-10
    # K = 4 pi int |rho'| r^2 dr against the closed form 315/64
    kq, _ = quad(lambda r: 4 * np.pi * abs(-6 * recovery.RHO_NORM * r * (1 - r**2) ** 2) * r**2,
                 0.0, 1.0)
    assert abs(kq - MOLLIFIER_K) < 1e-8
    assert_allclose(MOLLIFIER_K, 315.0 / 64.0)


def test_reflected_extension_matches_inside(mesh2):
    rng = np.random.default_rng(0)
    u = rng.standard_normal((mesh2.num_nodes, 3))
    ext = ReflectedExtension(mesh2, u)
    # interior points reproduce the original P1 field
    pts = rng.uniform(0.05, 0.95, size=(50, 3))
    vals = ext.eval_values(pts)
    f = DisplacementField.from_nodal(mesh2, u)
    for p, v in zip(pts, vals):
        # locate by brute force in the base mesh
        for e, tet in enumerate(mesh2.tets):
            verts = mesh2.nodes[tet]
            mat = np.column_stack([verts[1] - verts[0], verts[2] - verts[0],
                                   verts[3] - verts[0]])
            lam = np.linalg.solve(mat, p - verts[0])
            if lam.min() >= -1e-12 and lam.sum() <= 1 + 1e-12:
                expected = (1 - lam.sum()) * u[tet[0]] + lam @ u[tet[1:]]
                assert_allclose(v, expected, atol=1e-12)
                break


def _containing_elements(mesh, point, tol=1e-12):
    """Brute force: every element of the mesh whose barycentric coordinates of
    the point are all >= -tol, with those coordinates."""
    verts = mesh.nodes[mesh.tets]
    mats = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0],
                     verts[:, 3] - verts[:, 0]], axis=2)
    lam = np.linalg.solve(mats, (point - verts[:, 0])[:, :, None])[:, :, 0]
    bary = np.column_stack([1.0 - lam.sum(axis=1), lam])
    hit = np.flatnonzero(bary.min(axis=1) >= -tol)
    return hit, bary[hit]


@pytest.mark.parametrize("divisions", [2, 3])
def test_reflected_extension_matches_brute_force_oracle(divisions, mesh2, mesh3):
    # values and gradients over the whole extended box, reflected layer
    # included, against a search over every element of the extended mesh;
    # grid-aligned points on faces, edges and nodes are the tie cases of the
    # location (odd divisions give the extension parity 1)
    mesh = {2: mesh2, 3: mesh3}[divisions]
    rng = np.random.default_rng(20 + divisions)
    ext = ReflectedExtension(mesh, rng.standard_normal((mesh.num_nodes, 3)))
    assert np.all(ext.parity == divisions % 2)
    spread = rng.uniform(ext.box_lo, ext.box_hi, size=(200, 3))
    aligned = []
    for k in (1, 2, 3):  # k grid coordinates: points on faces, edges and nodes
        free = rng.uniform(ext.box_lo, ext.box_hi, size=(40, 3))
        grid = ext.box_lo + rng.integers(0, 3 * ext.div + 1, size=(40, 3)) * ext.spacing
        on_grid = rng.permuted(np.tile([0, 1, 2], (40, 1)), axis=1) < k
        aligned.append(np.where(on_grid, grid, free))
    pts = np.concatenate([spread] + aligned)
    vals = ext.eval_values(pts)
    grads = ext.eval_gradients(pts)
    for p, val, grad in zip(pts, vals, grads):
        hit, bary = _containing_elements(ext.mesh, p)
        assert hit.size, p
        expected = bary[0] @ ext.values[ext.mesh.tets[hit[0]]]
        assert_allclose(val, expected, rtol=0, atol=1e-12)
        assert any(np.array_equal(grad, ext.gradients[e]) for e in hit), p


def test_reflected_extension_ties_follow_stable_argsort(mesh2):
    # on a Kuhn face (equal parity-adjusted coordinates) the located element
    # is the one a stable descending sort of those coordinates names
    ext = ReflectedExtension(mesh2, np.zeros((mesh2.num_nodes, 3)))
    levels = (0.0, 0.25, 0.5)
    fracs = np.array(list(itertools.product(levels, repeat=3)))
    for cell in ([0, 0, 0], [1, 2, 3], [5, 4, 1]):
        cell = np.array(cell)
        pts = ext.ext_origin + ext.spacing * (cell + fracs)   # exact in binary
        elem, _ = ext.locate(pts)
        flags = (cell + ext.parity) % 2
        g = np.where(flags == 1, 1.0 - fracs, fracs)
        order = np.argsort(-g, axis=1, kind="stable")
        perm = [KUHN_PERMS.index(tuple(o)) for o in order]
        lin = (cell[0] * ext.ext_div[1] + cell[1]) * ext.ext_div[2] + cell[2]
        assert_array_equal(elem, lin * 6 + np.array(perm))


def test_non_finite_points_raise(mesh2):
    # a NaN position is outside every domain: the flow and the location stop
    # with a FlowDomainError instead of returning NaN positions
    nan_field = synthetic_field(lambda p: np.full(p.shape, np.nan),
                                lambda p: np.zeros((p.shape[0], 3, 3)),
                                sup_norm=1.0, grad_norm=0.0,
                                box_lo=[-10, -10, -10], box_hi=[10, 10, 10])
    with pytest.raises(recovery.FlowDomainError):
        recovery.integrate_flow(nan_field, 0.1, mesh2, steps=4)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(recovery.FlowDomainError):
            nan_field.check_inside([[0.5, bad, 0.5]])
    ext = ReflectedExtension(mesh2, np.zeros((mesh2.num_nodes, 3)))
    with pytest.raises(recovery.FlowDomainError):
        ext.eval_values([[0.5, 0.5, 0.5], [np.nan, 0.5, 0.5]])


def test_reflected_extension_divergence_free_outside_blend(mesh2):
    rng = np.random.default_rng(1)
    u = random_divergence_free(mesh2, rng)
    ext = ReflectedExtension(mesh2, u.u)
    # the blend layer: elements whose nodes are mirrored across different faces
    grid = np.rint((ext.mesh.nodes - ext.origin) / ext.spacing)
    flips = (grid < 0) | (grid > ext.div)
    pure = np.all(flips[ext.mesh.tets] == flips[ext.mesh.tets][:, :1, :], axis=(1, 2))
    assert np.abs(np.trace(ext.gradients[pure], axis1=1, axis2=2)).max() < 1e-10
    assert pure.sum() > 0


def test_reflected_extension_norm_bounds(mesh2):
    rng = np.random.default_rng(2)
    u = rng.standard_normal((mesh2.num_nodes, 3))
    ext = ReflectedExtension(mesh2, u)
    pts = rng.uniform(-0.9, 1.9, size=(200, 3))
    vals = np.linalg.norm(ext.eval_values(pts), axis=1)
    assert vals.max() <= ext.sup_bound + 1e-12
    grads = ext.eval_gradients(pts)
    assert np.sqrt((grads**2).sum(axis=(1, 2))).max() <= ext.lip_bound + 1e-12


def test_mollify_constant_field(mesh2):
    u = DisplacementField.from_nodal(
        mesh2, np.tile([0.3, -0.2, 0.5], (mesh2.num_nodes, 1)))
    fld = recovery.mollify(ReflectedExtension(mesh2, u.u), eps=0.1, gamma=0.5)
    pts = np.array([[0.5, 0.5, 0.5], [0.3, 0.4, 0.6], [0.2, 0.8, 0.35]])
    assert np.abs(fld(pts) - [0.3, -0.2, 0.5]).max() < 1e-12
    assert np.abs(fld.gradient(pts)).max() < 1e-12


def test_mollify_affine_divfree_on_shrunk_domain(mesh2):
    # affine divergence-free field reproduced wherever the ball stays inside
    a = np.array([[0.2, 0.1, 0.0], [0.0, -0.5, 0.3], [0.4, 0.0, 0.3]])
    assert abs(np.trace(a)) < 1e-15
    u = DisplacementField.from_nodal(mesh2, mesh2.nodes @ a.T)
    eps = 0.12
    fld = recovery.mollify(ReflectedExtension(mesh2, u.u), eps=eps, gamma=0.5)
    rng = np.random.default_rng(3)
    pts = rng.uniform(eps + 0.01, 1 - eps - 0.01, size=(40, 3))
    assert np.abs(fld(pts) - pts @ a.T).max() < 1e-12
    assert np.abs(fld.gradient(pts) - a).max() < 1e-12
    assert np.abs(np.trace(fld.grad_fn(pts), axis1=1, axis2=2)).max() < 1e-12


def test_mollify_divergence_invariant(mesh2):
    rng = np.random.default_rng(4)
    u = random_divergence_free(mesh2, rng)
    ext = ReflectedExtension(mesh2, u.u)
    fld = recovery.mollify(ext, eps=0.08, gamma=0.25)
    # divergence free at the element centroids whose quadrature ball avoids
    # the blend layer
    cents = mesh2.nodes[mesh2.tets].mean(axis=1)
    safe = cents[ext.blend_distance(cents) > fld.eps * 1.0001]
    assert safe.shape[0] > 0
    assert np.abs(np.trace(fld.grad_fn(safe), axis1=1, axis2=2)).max() < 1e-10
    # the sup estimate |v - u| <= eps^gamma |u|_gamma at the element centroids
    dev = np.linalg.norm(fld(cents) - ext.eval_values(cents), axis=1).max()
    assert dev <= fld.eps**0.25 * fld.holder_norm * (1.0 + 1e-10) + 1e-14


def test_mollify_deviation_and_gradient_ledger(mesh2):
    rng = np.random.default_rng(5)
    u = random_divergence_free(mesh2, rng, scale=0.3)
    ext = ReflectedExtension(mesh2, u.u)
    fld = recovery.mollify(ext, eps=0.06, gamma=0.25)
    cents = mesh2.nodes[mesh2.tets].mean(axis=1)
    dev = np.linalg.norm(fld(cents) - ext.eval_values(cents), axis=1).max()
    assert dev <= min(ext.lip_bound * fld.eps, 2.0 * ext.sup_bound) + 1e-12
    assert dev <= fld.eps**0.25 * fld.holder_norm + 1e-12
    # the gradient ledger: the K/eps bound of the continuous convolution, and
    # the measured cap, the largest element gradient, which bounds the
    # mollified gradient (a convex combination of element gradients)
    graduj_bound = MOLLIFIER_K / fld.eps * ext.sup_bound
    assert np.isfinite(graduj_bound) and graduj_bound > 0.0
    grads = np.sqrt((fld.gradient(cents) ** 2).sum(axis=(1, 2)))
    assert grads.max() <= ext.lip_bound * (1.0 + 1e-12)


def test_mollify_under_resolution_guard(mesh2):
    u = DisplacementField.from_nodal(mesh2, np.zeros((mesh2.num_nodes, 3)))
    with pytest.raises(recovery.UnderResolvedError):
        recovery.mollify(ReflectedExtension(mesh2, u.u), eps=0.05, nq=3)
    with pytest.raises(recovery.UnderResolvedError):
        recovery.mollify(ReflectedExtension(mesh2, u.u), eps=2.0)


def test_flow_constant_field(mesh2):
    c = np.array([0.1, 0.05, 0.2])
    v = synthetic_field(lambda p: np.tile(c, (p.shape[0], 1)),
                        lambda p: np.zeros((p.shape[0], 3, 3)),
                        sup_norm=float(np.linalg.norm(c)), grad_norm=0.0,
                        box_lo=[-10, -10, -10], box_hi=[10, 10, 10])
    res = recovery.integrate_flow(v, 0.5, mesh2, steps=8)
    assert np.abs(res.z_nodes - (mesh2.nodes + 0.5 * c)).max() < 1e-14
    assert np.abs(res.element_defgrad - np.eye(3)).max() < 1e-14
    assert res.max_det_residual < 1e-14
    # bounds are tight at t |v| for the exact flow, and all hold
    assert all(e["all_hold"] for e in res.ledger)
    final = res.ledger[-1]
    assert_allclose(final["nuova1"][0], 0.5 * np.linalg.norm(c), rtol=1e-12)
    assert_allclose(final["nuova1"][1], 0.5 * np.linalg.norm(c), rtol=1e-12)


def test_flow_rigid_rotation_field(mesh2):
    # v(x) = omega ^ (x - x0): the flow is the rotation about x0, det = 1
    omega = np.array([0.0, 0.0, 1.0])
    x0 = np.array([0.5, 0.5, 0.0])
    wmat = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    v = synthetic_field(lambda p: np.cross(omega, p - x0),
                        lambda p: np.tile(wmat, (p.shape[0], 1, 1)),
                        sup_norm=2.0, grad_norm=float(np.sqrt(2.0)),
                        box_lo=[-10, -10, -10], box_hi=[10, 10, 10])
    t = 0.3
    res = recovery.integrate_flow(v, t, mesh2, steps=32)
    rot = expm(t * wmat)
    expected = x0 + (mesh2.nodes - x0) @ rot.T
    assert np.abs(res.z_nodes - expected).max() < 1e-9
    assert res.max_det_residual < 1e-9
    assert all(e["all_hold"] for e in res.ledger)


def test_flow_escape_raises(mesh2):
    c = np.array([1.0, 0.0, 0.0])
    v = synthetic_field(lambda p: np.tile(c, (p.shape[0], 1)),
                        lambda p: np.zeros((p.shape[0], 3, 3)),
                        sup_norm=1.0, grad_norm=0.0,
                        box_lo=[-0.5, -0.5, -0.5], box_hi=[1.5, 1.5, 1.5])
    with pytest.raises(recovery.FlowDomainError):
        recovery.integrate_flow(v, 5.0, mesh2, steps=8)


def test_flow_ledger_mollified_fields(mesh2, mesh3):
    # ten mollified divergence-free fields; every sampled bound instance holds
    # and the determinants stay within 1e-6 (acceptance criterion territory)
    rng = np.random.default_rng(6)
    cases = [(mesh2, 0.05, 0.04), (mesh2, 0.08, 0.06), (mesh3, 0.06, 0.05)]
    count = 0
    while count < 10:
        mesh, eps, t = cases[count % len(cases)]
        u = random_divergence_free(mesh, rng, scale=0.2)
        fld = recovery.mollify(ReflectedExtension(mesh, u.u), eps=eps, gamma=0.25, nq=6)
        res = recovery.integrate_flow(fld, t, mesh, steps=8, ledger_samples=4)
        assert res.max_det_residual <= 1e-6
        for entry in res.ledger:
            for key in ("nuova1", "flux2", "nuova2", "flux3"):
                lhs, rhs = entry[key]
                assert lhs <= rhs * (1 + 1e-10) + 1e-13, (key, lhs, rhs)
        count += 1


def test_flow_det_drift_refines_steps(mesh2):
    # a stiff-ish field forces the step doubling to reach the 1e-8 drift target
    a = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 2.0], [2.0, 0.0, 0.0]])
    v = synthetic_field(lambda p: p @ a.T, lambda p: np.tile(a, (p.shape[0], 1, 1)),
                        sup_norm=6.0, grad_norm=float(np.linalg.norm(a)),
                        box_lo=[-50, -50, -50], box_hi=[50, 50, 50])
    res = recovery.integrate_flow(v, 0.4, mesh2, steps=4)
    assert res.max_det_residual <= 1e-8
    oracle = expm(0.4 * a)
    assert np.abs(res.element_defgrad - oracle).max() < 1e-7


def test_flow_richardson_reuses_the_doubling_run(mesh2):
    # the stiff field of the test above doubles 4 -> 8 -> 16 steps; the
    # Richardson check compares 8 with 16 steps and runs nothing extra
    a = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 2.0], [2.0, 0.0, 0.0]])
    stages = []

    def grad(p):
        stages.append(p.shape[0])
        return np.tile(a, (p.shape[0], 1, 1))

    v = synthetic_field(lambda p: p @ a.T, grad, sup_norm=6.0,
                        grad_norm=float(np.linalg.norm(a)),
                        box_lo=[-50, -50, -50], box_hi=[50, 50, 50])
    res = recovery.integrate_flow(v, 0.4, mesh2, steps=4)
    assert res.steps == 16
    assert len(stages) == 4 * (4 + 8 + 16)
    assert res.richardson["steps"] == (8, 16)
    true_err = np.abs(res.z_nodes - mesh2.nodes @ expm(0.4 * a).T).max()
    assert res.richardson["delta_diff"] >= true_err > 0.0
    # no doubling: one extra run at half the steps
    stages.clear()
    res = recovery.integrate_flow(v, 1e-3, mesh2, steps=16)
    assert res.steps == 16
    assert len(stages) == 4 * (16 + 8)
    assert res.richardson["steps"] == (8, 16)


@pytest.mark.parametrize("lengths", [(1.0, 1.0, 1.0), (1.0, 0.6, 1.4)])
def test_face_distance_is_a_lower_bound(lengths):
    # the gap of `_chain_gap`, the rule the flow anchor keeps pairs by: a
    # point moved by less than its smallest gap in cell widths of the finest
    # axis stays in its element, in the base box and in the reflected layer,
    # also on an anisotropic grid
    mesh = sl.build_box_mesh((2, 3, 2), lengths=lengths)
    ext = ReflectedExtension(mesh, np.zeros((mesh.num_nodes, 3)))

    def face_distance(points):
        return _chain_gap(ext._cell_frame(points)[2]) * float(ext.spacing.min())

    rng = np.random.default_rng(31)
    pts = rng.uniform(ext.box_lo + 0.05, ext.box_hi - 0.05, size=(400, 3))
    dist = face_distance(pts)
    assert dist.min() >= 0.0 and dist.max() > 0.0
    elem, _ = ext.locate(pts)
    for _ in range(20):
        step = rng.standard_normal(pts.shape)
        step *= (0.999 * dist / np.linalg.norm(step, axis=1))[:, None]
        assert_array_equal(ext.locate(pts + step)[0], elem)
    # grid-aligned points lie on faces: the ties of the location get 0
    nodes = ext.mesh.nodes[rng.integers(0, ext.mesh.num_nodes, 50)]
    assert np.all(face_distance(nodes) == 0.0)


def _anchor_setup(mesh, reach, seed, nq=8):
    """A mollified random P1 field and its anchor at the nodes, the centroids
    and random points of the mesh."""
    rng = np.random.default_rng(seed)
    ext = ReflectedExtension(mesh, rng.standard_normal((mesh.num_nodes, 3)))
    fld = recovery.mollify(ext, eps=0.1, gamma=0.5, nq=nq)
    x = np.concatenate([mesh.nodes, mesh.nodes[mesh.tets].mean(axis=1),
                        rng.uniform(0.0, 1.0, size=(40, 3)) * mesh.box_lengths])
    return fld, x, fld.anchor(x, reach), rng


@pytest.mark.parametrize("divisions, lengths, nq", [((2, 2, 2), (1.0, 1.0, 1.0), 8),
                                                    ((2, 3, 2), (1.0, 0.6, 1.4), 10)])
def test_anchored_field_matches_all_pairs(divisions, lengths, nq):
    # values and gradients through the anchor against the sum over every
    # (point, offset) pair, at the base points and displaced by up to the
    # reach, where a pair folded into the affine map would pick the wrong
    # element if it could cross a face; also on an anisotropic grid. The
    # reach is 2% of the finest cell width
    mesh = sl.build_box_mesh(divisions, lengths=lengths)
    reach = 0.02 * float((mesh.box_lengths / mesh.box_divisions).min())
    fld, x, anchor, rng = _anchor_setup(mesh, reach, 41, nq)
    live = anchor.live_p.size / (x.shape[0] * anchor.offsets.shape[0])
    assert 0.0 < live < 0.5
    n = mesh.num_nodes
    direction = rng.standard_normal(x.shape)
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    for scale in (np.zeros(x.shape[0]), rng.uniform(0.0, reach, x.shape[0]),
                  np.full(x.shape[0], reach)):
        pos = x + scale[:, None] * direction
        vals, grads = fld(pos), fld.gradient(pos)
        assert np.abs(fld(anchor.at(pos)) - vals).max() <= 1e-14 * np.abs(vals).max()
        assert np.abs(fld.gradient(anchor.at(pos)) - grads).max() <= 1e-14 * np.abs(grads).max()
        tail = fld.gradient(anchor.at(pos[n:], n))
        assert np.abs(tail - grads[n:]).max() <= 1e-14 * np.abs(grads).max()


def test_rotated_rule_keeps_every_pair_off_faces(monkeypatch, mesh2, obstacle2, yeoh,
                                                 gravity, limit_gravity):
    # the rotated ball rule keeps the moments that mollify relies on, puts
    # no (node or centroid, offset) pair of a box mesh on a cell face or a
    # Kuhn plane, and leaves the anchors of the criterion-12 input without a
    # live pair at any of its four h
    frames = []
    for divisions, lengths in [((2, 2, 2), (1.0, 1.0, 1.0)), ((3, 3, 3), (1.0, 1.0, 1.0)),
                               ((4, 4, 4), (1.0, 1.0, 1.0)), ((2, 3, 2), (1.0, 0.6, 1.4))]:
        mesh = sl.build_box_mesh(divisions, lengths=lengths)
        frames.append((ReflectedExtension(mesh, np.zeros((mesh.num_nodes, 3))),
                       np.concatenate([mesh.nodes, mesh.nodes[mesh.tets].mean(axis=1)])))
    h_list = (1e-4, 1e-5, 1e-6, 1e-7)
    for nq in (6, 8, 10):
        for eps in [h ** 0.375 for h in h_list] + [0.1]:
            offsets, weights = recovery._ball_quadrature(eps, nq)
            assert np.all(weights > 0.0) and np.linalg.norm(offsets, axis=1).max() < eps
            assert abs(weights.sum() - 1.0) <= 1e-15
            # the grid's point reflection o -> -o reverses the kept points
            assert_allclose(offsets[::-1], -offsets, rtol=0, atol=1e-15 * eps)
            assert_allclose(weights[::-1], weights, rtol=0, atol=1e-14 * weights.max())
            second = np.einsum("q,qi,qj->ij", weights, offsets, offsets)
            assert_allclose(second, np.trace(second) / 3.0 * np.eye(3), rtol=0,
                            atol=1e-14 * np.trace(second))
            for ext, x in frames:
                g = ext._cell_frame((x[None, :, :] - offsets[:, None, :]).reshape(-1, 3))[2]
                assert _chain_gap(g).min() >= 1e-8, (ext.div, nq, eps)

    anchors = []

    class Recorded(recovery.FlowAnchor):
        def __init__(self, *args):
            super().__init__(*args)
            anchors.append(self)

    monkeypatch.setattr(recovery, "FlowAnchor", Recorded)
    res, kernel = limit_gravity
    recovery.build_recovery_sequence(res.field, yeoh, gravity, obstacle2, mesh2, h_list,
                                     gamma=0.75, kernel_class=kernel, steps_per_h=4,
                                     ledger_samples=2)
    assert len(anchors) == len(h_list)
    assert all(anchor.live_p.size == 0 for anchor in anchors)


def test_recovery_flow_locates_no_point_once_anchored(monkeypatch, mesh2, obstacle2, yeoh,
                                                      gravity, limit_gravity):
    # on the criterion-12 field every pair of the anchor keeps its element,
    # so no RK stage of the flow locates a point. Element
    # codes are counted where `locate` and the anchor's build both take them
    res, kernel = limit_gravity
    calls, in_flow = {"flow": 0, "other": 0}, []
    frame_elements, rk4_flow = ReflectedExtension._frame_elements, recovery._rk4_flow

    def counted(self, cell, g):
        calls["flow" if in_flow else "other"] += 1
        return frame_elements(self, cell, g)

    def flow(*args):
        in_flow.append(True)
        try:
            return rk4_flow(*args)
        finally:
            in_flow.pop()

    monkeypatch.setattr(ReflectedExtension, "_frame_elements", counted)
    monkeypatch.setattr(recovery, "_rk4_flow", flow)
    recovery.build_recovery_sequence(res.field, yeoh, gravity, obstacle2, mesh2, (1e-4, 1e-7),
                                     gamma=0.75, kernel_class=kernel, steps_per_h=4,
                                     ledger_samples=2)
    assert calls["flow"] == 0 and calls["other"] > 0


def test_anchor_rejects_a_displacement_beyond_its_reach(mesh2):
    reach = 0.01
    fld, x, anchor, _ = _anchor_setup(mesh2, reach, 42)
    pos = x.copy()
    pos[7, 1] += 1.01 * reach
    for evaluate in (fld, fld.gradient):
        with pytest.raises(recovery.FlowDomainError, match="reach"):
            evaluate(anchor.at(pos))
    pos[7, 1] = np.nan
    with pytest.raises(recovery.FlowDomainError, match="reach"):
        fld(anchor.at(pos))


def test_anchored_flow_matches_the_all_pairs_flow(mesh2):
    # integrate_flow anchors a mollified field once per call and reuses the
    # anchor for the step doubling and the Richardson run; the all-pairs
    # evaluation of the same field gives the same flow up to summation order
    rng = np.random.default_rng(43)
    u = random_divergence_free(mesh2, rng, scale=0.2)
    fld = recovery.mollify(ReflectedExtension(mesh2, u.u), eps=0.08, gamma=0.25, nq=6)
    built = []
    anchor_fn = fld.anchor_fn
    fld.anchor_fn = lambda x, reach: built.append(reach) or anchor_fn(x, reach)
    res = recovery.integrate_flow(fld, 0.05, mesh2, steps=8, ledger_samples=4)
    plain = recovery.integrate_flow(dataclasses.replace(fld, anchor_fn=None), 0.05, mesh2,
                                    steps=8, ledger_samples=4)
    assert built == [0.05 * fld.sup_norm]
    assert res.steps == plain.steps and res.richardson["steps"] == plain.richardson["steps"]
    scale = np.abs(plain.delta_nodes).max()
    assert np.abs(res.z_nodes - plain.z_nodes).max() <= 1e-14 * scale
    assert_allclose(res.element_defgrad, plain.element_defgrad, rtol=0, atol=1e-14)
    assert [e["all_hold"] for e in res.ledger] == [e["all_hold"] for e in plain.ledger]


# ---------------------------------------------------------------------------
# Bogovskii corrector

def test_bogovskii_zero_rhs(mesh3):
    # already divergence free up to solver roundoff: the correction is zero
    rng = np.random.default_rng(7)
    u = random_divergence_free(mesh3, rng)
    w, c_star = sl.bogovskii_correct(u, mesh3)
    assert np.abs(w.u).max() < 1e-8
    assert np.isfinite(c_star) and c_star >= 0.0


def test_bogovskii_linear_field(mesh3):
    # v = x1 e1 has constant divergence equal to its mean, so w = 0
    v = DisplacementField.from_nodal(
        mesh3, np.outer(mesh3.nodes[:, 0], [1.0, 0.0, 0.0]))
    w, c_star = sl.bogovskii_correct(v, mesh3)
    assert np.abs(w.u).max() < 1e-10
    div = DisplacementField.from_nodal(mesh3, v.u + w.u).divergence
    assert np.abs(div - 1.0).max() < 1e-10


def test_bogovskii_random_zero_boundary_fields(mesh3):
    # the feasible range of the discrete operator: fields vanishing on the
    # boundary (the mean of their divergence is automatically zero)
    rng = np.random.default_rng(8)
    interior = np.setdiff1d(np.arange(mesh3.num_nodes), mesh3.boundary_node_indices())
    bnodes = mesh3.boundary_node_indices()
    for trial in range(10):
        vals = np.zeros((mesh3.num_nodes, 3))
        vals[interior] = 0.5 * rng.standard_normal((interior.size, 3))
        v = DisplacementField.from_nodal(mesh3, vals)
        w, c_star = sl.bogovskii_correct(v, mesh3)
        assert np.abs(w.u[bnodes]).max() == 0.0
        vols = mesh3.element_volumes
        mean = float(vols @ v.divergence) / mesh3.volume
        div = DisplacementField.from_nodal(mesh3, v.u + w.u).divergence
        assert np.abs(div - mean).max() < 1e-9, f"trial {trial}"
        assert c_star > 0.0


def test_bogovskii_infeasible_advises_refinement(mesh2):
    # generic nonzero-boundary field on the coarse mesh: too few interior dofs
    rng = np.random.default_rng(9)
    v = DisplacementField.from_nodal(mesh2, rng.standard_normal((mesh2.num_nodes, 3)))
    with pytest.raises(sl.SolveFailure, match="refine"):
        sl.bogovskii_correct(v, mesh2)


def test_make_divergence_free(mesh3):
    rng = np.random.default_rng(10)
    interior = np.setdiff1d(np.arange(mesh3.num_nodes), mesh3.boundary_node_indices())
    vals = np.zeros((mesh3.num_nodes, 3))
    vals[interior] = rng.standard_normal((interior.size, 3))
    vals[:, 2] += 0.3 * mesh3.nodes[:, 2]  # add divergence with nonzero mean
    v = DisplacementField.from_nodal(mesh3, vals)
    # the repair v - (mean div v) x3 e3 + w with w the zero-boundary corrector
    w, _ = sl.bogovskii_correct(v, mesh3)
    mean = float(mesh3.element_volumes @ v.divergence) / mesh3.volume
    u = DisplacementField.from_nodal(
        mesh3, v.u - mean * np.outer(mesh3.nodes[:, 2], [0.0, 0.0, 1.0]) + w.u)
    assert np.abs(u.divergence).max() < 1e-9
    # values on the contact plane are untouched
    obs = sl.extract_obstacle(mesh3)
    assert_allclose(u.u[obs.node_indices], v.u[obs.node_indices], atol=1e-9)


# ---------------------------------------------------------------------------
# recovery sequences

def test_recovery_zero_field(mesh2, obstacle2, yeoh, gravity):
    kernel = sl.classify_kernel(gravity, obstacle2, mesh2)
    zero = DisplacementField.from_nodal(mesh2, np.zeros((mesh2.num_nodes, 3)))
    h_list = (1e-2, 1e-3)
    steps = recovery.build_recovery_sequence(zero, yeoh, gravity, obstacle2, mesh2,
                                             h_list, gamma=0.5, kernel_class=kernel)
    for step in steps:
        assert step.beta == 0.0  # zero norms give a zero lift
        assert np.abs(step.field.y - mesh2.nodes @ step.rotation.matrix.T).max() < 1e-12
    rep = recovery.verify_upper_bound(zero, steps, yeoh, gravity, obstacle2, mesh2,
                                      kernel_class=kernel)
    assert abs(rep["g_tilde"]) < 1e-14
    for row in rep["rows"]:
        assert abs(row["gap"]) <= 1e-6


@pytest.mark.parametrize("diag", [(1.1, 1.0, 1.0 / 1.1), (1.0, 1.0, 1.1)])
def test_recovery_energy_at_affine_map(mesh2, obstacle2, yeoh, gravity, diag):
    # y = F x with constant F: the recovery energy, the sweep's energy and
    # h^-2 vol (W(F) - p0 (det F - 1)) - L(y - x) / h agree, both on det F = 1
    # (F = diag(a, 1, 1/a)) and off it, where the pressure compensation counts
    h = 0.05
    f = np.diag(diag)
    y = mesh2.nodes @ f.T
    defgrad = np.tile(f, (mesh2.num_elements, 1, 1))
    flow = recovery.FlowResult(z_nodes=y, delta_nodes=y - mesh2.nodes,
                               element_defgrad=defgrad, element_det=np.linalg.det(defgrad),
                               steps=1, ledger=[], richardson={})
    step = recovery.RecoveryStep(h=h, eps=0.0, beta=0.0,
                                 field=DeformationField.from_nodal(mesh2, y),
                                 element_defgrad=defgrad, flow=flow,
                                 rotation=sl.Rotation.identity())
    value, _ = recovery.recovery_energy(step, yeoh, gravity, mesh2)
    problem = sl.NonlinearProblem(mesh=mesh2, material=yeoh, load=gravity,
                                  obstacle=obstacle2, h=h)
    sweep_value, _ = _NonlinearAssembler(problem).energy_parts(step.field.y.ravel())
    load_term = float((load_vector(gravity, mesh2) * (y - mesh2.nodes)).sum())
    density = yeoh_energy(f, yeoh) - yeoh.pressure * (np.prod(diag) - 1.0)
    closed = float(mesh2.element_volumes.sum()) * density / h**2 - load_term / h
    assert load_term != 0.0
    assert_allclose(value, sweep_value, rtol=1e-12)
    assert_allclose(value, closed, rtol=1e-12)


def test_recovery_builds_one_extension_per_sequence(monkeypatch, mesh2, obstacle2, yeoh,
                                                    gravity):
    # only eps changes with h, so the reflected extension is built once
    built = []

    class CountedExtension(ReflectedExtension):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(recovery, "ReflectedExtension", CountedExtension)
    zero = DisplacementField.from_nodal(mesh2, np.zeros((mesh2.num_nodes, 3)))
    steps = recovery.build_recovery_sequence(zero, yeoh, gravity, obstacle2, mesh2,
                                             (1e-2, 1e-3, 1e-4), gamma=0.5,
                                             kernel_class=sl.KernelClass.ROTATIONS_ABOUT_E3)
    assert len(steps) == 3 and len(built) == 1


def test_recovery_beta_vanishes_relative_to_h(mesh2, obstacle2, yeoh, gravity,
                                              limit_gravity):
    res, kernel = limit_gravity
    h_list = (1e-3, 1e-4, 1e-5, 1e-6)
    steps = recovery.build_recovery_sequence(res.field, yeoh, gravity, obstacle2,
                                             mesh2, h_list, gamma=0.75,
                                             kernel_class=kernel, steps_per_h=8,
                                             ledger_samples=2, nq=6)
    ratios = [st.beta / st.h for st in steps]
    assert all(b >= a for a, b in zip(ratios, ratios[1:])) is False  # decreasing
    for a, b in zip(ratios, ratios[1:]):
        assert b < a
    assert ratios[-1] < 0.05


def test_recovery_admissibility_and_determinants(mesh2, obstacle2, yeoh, gravity,
                                                 limit_gravity):
    res, kernel = limit_gravity
    steps = recovery.build_recovery_sequence(res.field, yeoh, gravity, obstacle2,
                                             mesh2, (1e-3, 1e-5), gamma=0.75,
                                             kernel_class=kernel, steps_per_h=8,
                                             ledger_samples=2, nq=6)
    for st in steps:
        y3 = st.field.y[obstacle2.node_indices, 2]
        assert y3.min() >= -1e-12
        assert st.flow.max_det_residual <= 1e-6
        assert all(e["all_hold"] for e in st.flow.ledger)


def test_recovery_affine_shear_after_lift(mesh2, obstacle2, yeoh, gravity):
    # u = x3 e1 is flattened by its own optimal lift: the flowed map reduces to
    # the closed-form rigid motion R x + beta e3
    kernel = sl.classify_kernel(gravity, obstacle2, mesh2)
    u = DisplacementField.from_nodal(
        mesh2, np.outer(mesh2.nodes[:, 2], [1.0, 0.0, 0.0]))
    steps = recovery.build_recovery_sequence(u, yeoh, gravity, obstacle2, mesh2,
                                             (1e-3,), gamma=0.5, kernel_class=kernel,
                                             steps_per_h=8, nq=6)
    st = steps[0]
    expected = mesh2.nodes @ st.rotation.matrix.T
    expected[:, 2] += st.beta
    assert np.abs(st.field.y - expected).max() < 1e-12


def test_recovery_names_a_ball_that_meets_the_blend_layer(tmp_path):
    # run_recovery 1 on the acceptance config: at h = 0.2, eps = h^(gamma/2)
    # = 0.82 and the determinants fail; the report names eps and the blend
    # layer instead of a bare residual
    from test_acceptance import ACCEPTANCE_CONFIG

    cfg = sl.parse_config(ACCEPTANCE_CONFIG.format(out=tmp_path.as_posix()) + "run_recovery 1\n")
    error = sl.run_experiment(cfg).recovery_report["error"]
    assert "determinant residual" in error and "eps = 0.8178" in error
    assert "blend layer" in error
    assert f"recovery: error: {error}" in (tmp_path / "report.txt").read_text()


def test_recovery_requires_divergence_free(mesh2, obstacle2, yeoh, gravity):
    bad = DisplacementField.from_nodal(
        mesh2, np.outer(mesh2.nodes[:, 0], [1.0, 0.0, 0.0]))
    with pytest.raises(sl.SolveFailure):
        recovery.build_recovery_sequence(bad, yeoh, gravity, obstacle2, mesh2,
                                         (1e-3,), kernel_class=None)


def test_upper_bound_gap_trend(mesh2, obstacle2, yeoh, gravity, limit_gravity):
    res, kernel = limit_gravity
    h_list = (1e-4, 1e-5, 1e-6, 1e-7)
    steps = recovery.build_recovery_sequence(res.field, yeoh, gravity, obstacle2,
                                             mesh2, h_list, gamma=0.75,
                                             kernel_class=kernel, steps_per_h=16,
                                             ledger_samples=4)
    rep = recovery.verify_upper_bound(res.field, steps, yeoh, gravity, obstacle2,
                                      mesh2, kernel_class=kernel)
    assert rep["positive_part_nonincreasing"]
    plus = [r["gap_plus"] for r in rep["rows"]]
    assert plus[0] > plus[-1]  # ratio largest/smallest above one
    assert rep["final_gap_plus"] <= 1e-2 * rep["scale"]
