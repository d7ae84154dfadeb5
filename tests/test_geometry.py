import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import signorini_lab as sl
from signorini_lab import solvers
from signorini_lab.geometry import (
    _grad_maps,
    boundary_region,
    convex_hull_2d,
    element_gradient_maps,
    l2_norm,
    point_in_hull_2d,
    surface_mass_matrix,
    volume_mass_matrix,
)
from signorini_lab.loads import load_vector


def signed_volume_oracle(nodes, tets):
    # independent determinant routine: V = det(edge matrix) / 6
    total = 0.0
    for tet in tets:
        p = nodes[tet]
        total += np.linalg.det(np.stack([p[1] - p[0], p[2] - p[0], p[3] - p[0]])) / 6.0
    return total


def test_unit_cube_n1_counts(mesh1):
    assert mesh1.num_nodes == 8
    assert mesh1.num_elements == 6
    assert_allclose(mesh1.volume, 1.0, rtol=1e-12)


def test_unit_cube_n2_counts_vs_oracle(mesh2):
    assert mesh2.num_elements == 6 * 2**3
    assert_allclose(signed_volume_oracle(mesh2.nodes, mesh2.tets), 1.0, rtol=1e-12)
    assert_allclose(mesh2.volume, 1.0, rtol=1e-12)


def test_rejects_zero_subdivision():
    with pytest.raises(ValueError):
        sl.build_box_mesh(0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_affine_field_gradient_exact(n):
    mesh = sl.build_box_mesh(n)
    rng = np.random.default_rng(n)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal(3)
    grads = mesh.element_gradients(mesh.nodes @ a.T + b)
    assert np.abs(grads - a).max() < 1e-12


def test_coordinate_gradient_is_identity(mesh2):
    for k in range(3):
        g = mesh2.element_gradients(mesh2.nodes[:, k])
        expected = np.zeros(3)
        expected[k] = 1.0
        assert np.abs(g - expected).max() < 1e-13


@pytest.mark.parametrize("n", [1, 2])
def test_gradient_operator_matches_element_maps(n):
    mesh = sl.build_box_mesh(n)
    d = mesh.gradient_operator
    m = mesh.num_elements
    assert d.shape == (9 * m, 3 * mesh.num_nodes)
    # the coordinate map has gradient I on every element
    ident = (d @ mesh.nodes.ravel()).reshape(m, 3, 3)
    assert np.abs(ident - np.eye(3)).max() < 1e-13
    # reference oracle: [e, i, j] = sum_a G_e[j, a] u[tets[e, a], i]
    rng = np.random.default_rng(n)
    for _ in range(3):
        u = rng.standard_normal((mesh.num_nodes, 3))
        want = np.einsum("eja,eai->eij", _grad_maps(mesh.nodes, mesh.tets)[1], u[mesh.tets])
        assert_allclose((d @ u.ravel()).reshape(m, 3, 3), want, rtol=0, atol=1e-13)
        assert_allclose(mesh.element_gradients(u), want, rtol=0, atol=1e-13)
        assert_allclose(mesh.element_gradients(u[:, 0]), want[:, 0, :], rtol=0, atol=1e-13)
    # the element blocks D_e, scattered to their dofs, are D's rows exactly
    maps, dofs = element_gradient_maps(mesh)
    dense = np.zeros((m, 9, 3 * mesh.num_nodes))
    dense[np.arange(m)[:, None, None], np.arange(9)[:, None], dofs[:, None, :]] = maps
    assert np.array_equal(dense.reshape(9 * m, -1), d.toarray())


def test_boundary_tiles_once(mesh2):
    # every boundary triangle appears exactly once and the surface closes up
    keys = {tuple(sorted(t)) for t in mesh2.boundary_tris}
    assert len(keys) == mesh2.boundary_tris.shape[0]
    assert np.abs(mesh2.boundary_area_vectors.sum(axis=0)).max() < 1e-13
    area = np.linalg.norm(mesh2.boundary_area_vectors, axis=1).sum()
    assert_allclose(area, 6.0, rtol=1e-12)


def box_mesh_loop_oracle(n, parity):
    """Tets and boundary triangles of the n^3 box, built cell by cell and
    face by face as `build_box_mesh` once did."""
    from signorini_lab.geometry import _TET_FACES, KUHN_PERMS

    def nid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    nodes = np.array([[i, j, k] for i in range(n + 1) for j in range(n + 1)
                      for k in range(n + 1)], dtype=float) / n
    tets = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                cell = np.array([i, j, k])
                flags = (cell + np.asarray(parity)) % 2
                start, dirs = cell + flags, 1 - 2 * flags
                for perm in KUHN_PERMS:
                    chain = [start.copy()]
                    for ax in perm:
                        nxt = chain[-1].copy()
                        nxt[ax] += dirs[ax]
                        chain.append(nxt)
                    tets.append([nid(*v) for v in chain])
    tets = np.array(tets)
    for tet in tets:
        p = nodes[tet]
        if np.linalg.det(p[1:] - p[0]) < 0:
            tet[[2, 3]] = tet[[3, 2]]
    faces = {}
    for tet in tets:
        for loc in _TET_FACES:
            tri = tuple(int(tet[i]) for i in loc)
            key = tuple(sorted(tri))
            faces[key] = None if key in faces else tri
    return tets, np.array([tri for tri in faces.values() if tri is not None])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_box_mesh_matches_loop_oracle(n):
    for parity in np.ndindex(2, 2, 2):
        mesh = sl.build_box_mesh((n, n, n), parity_offset=parity)
        tets, tris = box_mesh_loop_oracle(n, parity)
        assert np.array_equal(mesh.tets, tets), parity
        assert np.array_equal(mesh.boundary_tris, tris), parity


def test_obstacle_nodes_n2(mesh2, obstacle2):
    assert obstacle2.num_nodes == 9
    assert np.abs(mesh2.nodes[obstacle2.node_indices, 2]).max() <= 1e-12


def test_obstacle_hull_n1(mesh1):
    obs = sl.extract_obstacle(mesh1)
    got = {tuple(v) for v in obs.hull_vertices_2d}
    assert got == {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}


def test_translated_mesh_has_no_obstacle():
    mesh = sl.build_box_mesh((1, 1, 1), origin=(0.0, 0.0, 1.0))
    with pytest.raises(sl.ObstacleError):
        sl.extract_obstacle(mesh)


def test_hull_extreme_points(obstacle2):
    hull = obstacle2.hull_vertices_2d
    for k in range(hull.shape[0]):
        # extreme points never lie strictly inside their own hull
        assert not point_in_hull_2d(hull[k], hull)
    assert point_in_hull_2d((0.5, 0.5), hull)


def test_hull_drops_collinear_points():
    pts = [(0, 0), (1, 0), (2, 0), (2, 1), (0, 1), (1, 0.5)]
    hull = convex_hull_2d(pts)
    assert {tuple(v) for v in hull} == {(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)}


def test_integrate_volume_examples(mesh2):
    n = mesh2.num_nodes
    assert_allclose(sl.integrate_volume(mesh2, np.ones(n)), 1.0, rtol=1e-12)
    assert sl.integrate_volume(mesh2, np.zeros(n)) == 0.0
    # analytic integral of x3, cross-checked by a refined mesh
    val = sl.integrate_volume(mesh2, mesh2.nodes[:, 2])
    assert_allclose(val, 0.5, rtol=1e-12)
    fine = sl.build_box_mesh(5)
    assert_allclose(sl.integrate_volume(fine, fine.nodes[:, 2]), val, rtol=1e-12)


def test_integrate_volume_is_the_element_centroid_rule(mesh2):
    # per element, the volume times the mean of the nodal values
    vals = np.arange(mesh2.num_nodes, dtype=float) ** 2
    expected = float(mesh2.element_volumes @ vals[mesh2.tets].mean(axis=1))
    assert_allclose(sl.integrate_volume(mesh2, vals), expected, rtol=1e-15)


def test_integrate_volume_size_mismatch(mesh2):
    with pytest.raises(sl.MeshError):
        sl.integrate_volume(mesh2, np.ones(5))


def test_integrate_surface_examples(mesh2):
    # the surface integral of a P1 field f over a region is 1 . M_region f
    ones = np.ones(mesh2.num_nodes)

    def integral(f, region):
        return ones @ surface_mass_matrix(mesh2, region) @ f

    assert_allclose(integral(ones, "all"), 6.0, rtol=1e-12)
    assert_allclose(integral(mesh2.nodes[:, 2], "top"), 1.0, rtol=1e-12)
    assert_allclose(integral(mesh2.nodes[:, 0], "bottom"), 0.5, rtol=1e-12)


def test_integrate_surface_region_validation(mesh2):
    with pytest.raises(sl.MeshError, match="unknown boundary region 'left'"):
        surface_mass_matrix(mesh2, "left")


def test_boundary_regions_cover(mesh2):
    all_idx = boundary_region(mesh2, "all")
    named = np.concatenate([boundary_region(mesh2, nm)
                            for nm in ("bottom", "top", "xmin", "xmax", "ymin", "ymax")])
    assert sorted(named.tolist()) == sorted(all_idx.tolist())


def test_mass_matrix_quadratic_exactness(mesh2):
    # consistent P1 mass integrates products of P1 fields exactly
    mm = volume_mass_matrix(mesh2)
    x1 = mesh2.nodes[:, 0]
    assert_allclose(x1 @ mm @ x1, 1.0 / 3.0, rtol=1e-12)
    ms = surface_mass_matrix(mesh2, "bottom")
    assert_allclose(x1 @ ms @ x1, 1.0 / 3.0, rtol=1e-12)


def test_l2_norm_of_coordinate(mesh2):
    assert_allclose(l2_norm(mesh2, mesh2.nodes[:, 2]), np.sqrt(1.0 / 3.0), rtol=1e-12)


def test_mesh_file_roundtrip(tmp_path, mesh2):
    path = tmp_path / "cube.mesh"
    rows = [f"nodes {mesh2.num_nodes}", *(" ".join(f"{v:.17g}" for v in p) for p in mesh2.nodes),
            f"tets {mesh2.num_elements}", *(" ".join(map(str, t)) for t in mesh2.tets)]
    path.write_text("\n".join(rows) + "\n")
    back = sl.read_mesh_file(path)
    assert_allclose(back.nodes, mesh2.nodes)
    assert np.array_equal(back.tets, mesh2.tets)
    assert_allclose(back.volume, mesh2.volume, rtol=1e-12)


def test_mesh_file_with_comments(tmp_path):
    text = """# two tets
nodes 5
0 0 0
1 0 0
0 1 0
0 0 1
1 1 1
tets 2
0 1 2 3
1 2 3 4
"""
    path = tmp_path / "two.mesh"
    path.write_text(text)
    mesh = sl.read_mesh_file(path)
    assert mesh.num_elements == 2
    assert_allclose(mesh.volume, signed_volume_oracle(mesh.nodes, mesh.tets), rtol=1e-12)


@pytest.mark.parametrize("count, tet, message", [
    (2, "1 2 3 5", "outside 0..4"),      # node id past the node list
    (2, "1 2 3 -1", "outside 0..4"),
    (2, "1 2 3", "has 3 values, not 4"),
    (2, "1 2 3 4 0", "has 5 values, not 4"),
    (2, "1 2 3 x", "malformed tets block"),
    (3, "1 2 3 4", "that many rows"),    # the file ends inside the block
    (2, "0 1 2 2", "degenerate element"),
])
def test_malformed_mesh_file_raises_mesh_error(tmp_path, count, tet, message):
    path = tmp_path / "bad.mesh"
    path.write_text(f"nodes 5\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n1 1 1\ntets {count}\n0 1 2 3\n"
                    f"{tet}\n")
    with pytest.raises(sl.MeshError, match=message):
        sl.read_mesh_file(path)


def test_anisotropic_box():
    mesh = sl.build_box_mesh((2, 1, 3), lengths=(2.0, 1.0, 0.5))
    assert_allclose(mesh.volume, 1.0, rtol=1e-12)
    obs = sl.extract_obstacle(mesh)
    assert obs.num_nodes == 3 * 2  # bottom grid (2+1) x (1+1)


def test_mesh_fields_cannot_be_assigned(mesh1):
    with pytest.raises(dataclasses.FrozenInstanceError):
        mesh1.nodes = mesh1.nodes.copy()
    with pytest.raises(dataclasses.FrozenInstanceError):
        mesh1.box_parity = np.ones(3, dtype=int)


def test_mesh_equality_and_hash_are_by_identity(mesh1):
    # each mesh owns its cache, so a mesh equals only itself; comparing the
    # array fields raised, and so did hashing
    assert mesh1 == mesh1
    assert mesh1 != sl.build_box_mesh(1)
    assert {mesh1: 1}[mesh1] == 1


def test_mesh_and_cached_arrays_are_read_only(yeoh, gravity):
    # the mesh's arrays, D's included, and what its cache hands out (on a
    # mesh of its own: where a write got through, it would spoil a shared one)
    mesh = sl.build_box_mesh(2)
    d = mesh.gradient_operator
    arrays = {
        "nodes": mesh.nodes, "tets": mesh.tets, "boundary_tris": mesh.boundary_tris,
        "boundary_area_vectors": mesh.boundary_area_vectors,
        "element_volumes": mesh.element_volumes, "box_origin": mesh.box_origin,
        "D.data": d.data, "D.indices": d.indices, "D.indptr": d.indptr,
        "div rows": solvers._div_rows(mesh),
        "load vector": load_vector(gravity, mesh),
        "H": solvers._limit_setup(mesh, yeoh, False)[0],
        "null space": solvers._div_null_space(mesh).z,
    }
    for name, a in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0
        assert not a.flags.writeable, name


def test_mesh_cached_builds_each_key_once():
    mesh = sl.build_box_mesh(1)
    built = []

    def build(tag):
        def run():
            built.append(tag)
            return np.zeros(2), {"scratch": tag}
        return run

    first = mesh.cached(("probe", 1), build(1))
    assert mesh.cached(("probe", 1), build(2)) is first
    other = mesh.cached(("probe", 2), build(3))
    assert built == [1, 3]
    assert other is not first
    # ndarray elements of a tuple are frozen; other containers stay as they are
    assert not first[0].flags.writeable
    first[1]["scratch"] = 4
    assert mesh.cached(("probe", 1), build(5))[1] == {"scratch": 4}
    assert sl.build_box_mesh(1).cached(("probe", 1), build(6))[1] == {"scratch": 6}
