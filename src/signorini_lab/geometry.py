"""Tetrahedral box meshes, boundary extraction, the planar obstacle set and quadrature.

Built-in domains are axis-aligned boxes resting on the plane {x3 = 0}, split
into Kuhn tetrahedra (six per cube, all sharing the cell's main diagonal, so
subdivisions of neighbouring cells conform). Arbitrary meshes can be loaded
from the text format described in `read_mesh_file`.

A `Mesh` is an immutable value: its fields cannot be assigned and its arrays
are read-only. Whatever is computed once per mesh (element gradient maps,
mass matrices, load vectors, the div rows and frames and the limit set-up)
goes through `Mesh.cached`, which builds it once, marks its arrays read-only
and keeps it as long as the mesh, so no cached value can go stale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


class ObstacleError(Exception):
    """Raised when the planar contact set is empty or inconsistent."""


# Vertex chains of the Kuhn subdivision: walk from the cell origin to the
# opposite corner, one axis per step, one tetrahedron per permutation.
KUHN_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))

# Outward-oriented faces of a positively oriented tet (v0, v1, v2, v3).
_TET_FACES = ((0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3))

PLANE_TOL = 1e-12
# A point counts as inside a hull when each edge's cross product exceeds this.
HULL_MARGIN = 1e-12


def _freeze(value):
    """Mark read-only the ndarray `value`, or each ndarray element of the
    tuple (or NamedTuple) `value`; return it."""
    for a in value if isinstance(value, tuple) else (value,):
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return value


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable tetrahedral mesh with its P1 gradient operator.

    With G_e the 3x4 matrix whose product with the nodal values of a scalar
    field f on element e is the constant gradient of its P1 interpolant there,
    gradient_operator is the map for vector fields as one sparse (9M, 3N)
    matrix D: row 9e + 3i + j and column 3a + i hold G_e[j, a], so
    (D @ u.ravel()).reshape(M, 3, 3)[e, i, j] = d u_i / d x_j on element e.
    boundary_area_vectors hold outward-oriented triangle area vectors. The
    box fields describe a mesh of `build_box_mesh` and are None otherwise.

    No field can be assigned, and every array, D's included, is read-only.
    Quantities that live as long as the mesh sit in its cache, which only
    `cached` reads or writes. A mesh equals only itself and hashes by
    identity, as its cache is its own.
    """

    nodes: np.ndarray                 # (N, 3)
    tets: np.ndarray                  # (M, 4) int
    boundary_tris: np.ndarray         # (B, 3) int, outward oriented
    boundary_area_vectors: np.ndarray  # (B, 3)
    element_volumes: np.ndarray       # (M,)
    gradient_operator: scipy.sparse.csr_array  # (9M, 3N)
    analytic_volume: float | None = None
    box_origin: np.ndarray | None = None
    box_lengths: np.ndarray | None = None
    box_divisions: np.ndarray | None = None
    box_parity: np.ndarray | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def cached(self, key, build):
        """build(), called once per key and shared by every later call with
        that key for the life of the mesh. Its arrays, the value or the
        elements of a tuple value, are marked read-only; other containers in
        a tuple value are stored as they are."""
        if key not in self._cache:
            self._cache[key] = _freeze(build())
        return self._cache[key]

    @property
    def num_nodes(self):
        return self.nodes.shape[0]

    @property
    def num_elements(self):
        return self.tets.shape[0]

    @property
    def volume(self):
        return float(self.element_volumes.sum())

    def boundary_node_indices(self):
        return np.unique(self.boundary_tris)

    def element_gradients(self, u):
        """Per-element gradient of a nodal field.

        For scalar u (N,), returns (M, 3). For vector u (N, 3), returns
        (M, 3, 3) with entry [e, i, j] = d u_i / d x_j on element e.
        """
        u = np.asarray(u, dtype=float)
        if u.ndim == 1:
            return self.element_gradients(np.repeat(u[:, None], 3, axis=1))[:, 0, :]
        return (self.gradient_operator @ u.ravel()).reshape(-1, 3, 3)

    def validate(self):
        if np.any(self.element_volumes <= 0.0):
            raise MeshError("non-positive element volume")
        if self.analytic_volume is not None:
            rel = abs(self.volume - self.analytic_volume) / self.analytic_volume
            if rel > 1e-12:
                raise MeshError(f"volume defect {rel:.3e} exceeds 1.0e-12")
        # Boundary must close up: outward area vectors of a watertight surface sum to zero.
        closure = np.abs(self.boundary_area_vectors.sum(axis=0)).max()
        scale = np.linalg.norm(self.boundary_area_vectors, axis=1).sum()
        if closure > 1e-12 * max(scale, 1.0):
            raise MeshError(f"boundary does not close (residual {closure:.3e})")
        # P1 exactness: gradient of the coordinate field is the identity.
        ident = self.element_gradients(self.nodes)
        if np.abs(ident - np.eye(3)).max() > 1e-12 * max(1.0, np.abs(self.nodes).max()):
            raise MeshError("coordinate field gradient is not the identity")
        return True


@dataclass
class ObstacleSet:
    """Nodes of the mesh boundary lying on the plane {x3 = 0}.

    The continuum contact set is replaced by this nodal set: on a P1 mesh every
    node carries positive discrete capacity and nodal values stand in for
    precise representatives, so the quasi-everywhere constraint becomes a
    per-node inequality. hull_vertices_2d are the extreme points of the
    (x1, x2) projection, ordered counter-clockwise.
    """

    node_indices: np.ndarray      # (K,) int
    hull_vertices_2d: np.ndarray  # (H, 2)

    @property
    def num_nodes(self):
        return self.node_indices.shape[0]


def _grad_maps(nodes, tets):
    p = nodes[tets]                      # (M, 4, 3)
    d = p[:, 1:, :] - p[:, :1, :]        # (M, 3, 3) rows are edge vectors
    # d[m] has rows p1-p0, p2-p0, p3-p0; signed volume is det(rows)/6
    vols = np.linalg.det(d) / 6.0
    dinv = np.linalg.inv(d)              # grad(lambda_m) is column m-1 of D^-1
    g = np.empty((tets.shape[0], 3, 4))
    g[:, :, 1:] = dinv
    g[:, :, 0] = -g[:, :, 1:].sum(axis=2)
    return vols, g


def _gradient_operator(tets, grads, num_nodes):
    """Sparse (9M, 3N) map of flat nodal vectors to flat element gradients.

    Row 9e + 3i + j holds G_e[j, a] at column 3 tets[e, a] + i, a = 0..3.
    """
    m = tets.shape[0]
    shape = (m, 3, 3, 4)   # element e, component i, direction j, local node a
    data = np.broadcast_to(grads[:, None, :, :], shape).ravel()
    cols = np.broadcast_to(3 * tets[:, None, None, :] + np.arange(3)[:, None, None], shape)
    indptr = np.arange(0, data.size + 1, 4, dtype=np.int32)
    return scipy.sparse.csr_array((data, cols.ravel().astype(np.int32), indptr),
                                  shape=(9 * m, 3 * num_nodes))


def _boundary_faces(tets):
    """Faces met by exactly one tet, in the orientation and order of their first
    occurrence (element-major, `_TET_FACES` order within an element)."""
    faces = tets[:, _TET_FACES].reshape(-1, 3)
    keys = np.sort(faces, axis=1)
    n = int(tets.max(initial=0)) + 1
    codes = (keys[:, 0] * n + keys[:, 1]) * n + keys[:, 2]
    _, first, counts = np.unique(codes, return_index=True, return_counts=True)
    return faces[np.sort(first[counts == 1])]


def _finish_mesh(nodes, tets, analytic_volume=None, **box):
    """The validated mesh of the given nodes and tets, reoriented to positive
    volumes; `box` holds the box fields of a box mesh. The mesh owns copies
    of the inputs, all read-only."""
    tets = np.array(tets, dtype=int)
    nodes = np.array(nodes, dtype=float)
    # Fix orientation so every signed volume is positive.
    p = nodes[tets]
    det = np.linalg.det(p[:, 1:, :] - p[:, :1, :])
    if np.any(det == 0.0):
        raise MeshError("degenerate element")
    tets[det < 0] = tets[det < 0][:, [0, 1, 3, 2]]
    vols, grads = _grad_maps(nodes, tets)
    if np.any(vols <= 0):
        raise MeshError("degenerate element")
    btris = _boundary_faces(tets)
    pa, pb, pc = nodes[btris[:, 0]], nodes[btris[:, 1]], nodes[btris[:, 2]]
    areas = 0.5 * np.cross(pb - pa, pc - pa)
    d = _gradient_operator(tets, grads, nodes.shape[0])
    box = {name: np.array(v) for name, v in box.items()}
    _freeze((nodes, tets, btris, areas, vols, d.data, d.indices, d.indptr, *box.values()))
    mesh = Mesh(nodes=nodes, tets=tets, boundary_tris=btris, boundary_area_vectors=areas,
                element_volumes=vols, gradient_operator=d, analytic_volume=analytic_volume,
                **box)
    mesh.validate()
    return mesh


def build_box_mesh(divisions, lengths=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0),
                   parity_offset=(0, 0, 0)):
    """Axis-aligned box split into Kuhn tetrahedra, six per cell.

    The diagonal direction alternates with the cell parity per axis, which
    makes the triangulation invariant under reflection across every grid
    plane (the field extension machinery relies on this); neighbouring cells
    still conform because shared-face diagonals depend only on the tangential
    parities. parity_offset shifts the parity pattern, letting meshes of
    different extent align their cells.
    """
    nx, ny, nz = (int(v) for v in np.atleast_1d(divisions) * np.ones(3, dtype=int))
    if min(nx, ny, nz) < 1:
        raise ValueError("subdivision counts must be >= 1")
    lengths = np.asarray(lengths, dtype=float)
    origin = np.asarray(origin, dtype=float)
    parity = np.asarray(parity_offset, dtype=int) % 2
    grid = np.meshgrid(
        origin[0] + lengths[0] * np.arange(nx + 1) / nx,
        origin[1] + lengths[1] * np.arange(ny + 1) / ny,
        origin[2] + lengths[2] * np.arange(nz + 1) / nz,
        indexing="ij",
    )
    nodes = np.stack([g.ravel() for g in grid], axis=1)

    # cells in (i, j, k) C order, six chains per cell in KUHN_PERMS order
    cells = np.indices((nx, ny, nz)).reshape(3, -1).T
    flags = (cells + parity) % 2
    start, dirs = cells + flags, 1 - 2 * flags
    # steps[q, c, ax] = 1 when chain q has stepped along ax within its first c moves
    steps = np.zeros((len(KUHN_PERMS), 4, 3), dtype=int)
    for q, perm in enumerate(KUHN_PERMS):
        for c, ax in enumerate(perm):
            steps[q, c + 1:, ax] = 1
    v = start[:, None, None, :] + dirs[:, None, None, :] * steps[None]
    tets = ((v[..., 0] * (ny + 1) + v[..., 1]) * (nz + 1) + v[..., 2]).reshape(-1, 4)
    return _finish_mesh(nodes, tets, analytic_volume=float(np.prod(lengths)),
                        box_origin=origin, box_lengths=lengths, box_divisions=(nx, ny, nz),
                        box_parity=parity)


def convex_hull_2d(points):
    """Extreme points of a 2-D point set, counter-clockwise (monotone chain);
    points within 1e-12 (in the cross product) of a hull edge are dropped."""
    pts = sorted({(float(p[0]), float(p[1])) for p in points})
    if len(pts) == 1:
        return np.array(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        out = []
        for p in seq:
            while len(out) > 1 and cross(out[-2], out[-1], p) <= 1e-12:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return np.array(lower[:-1] + upper[:-1])


def point_in_hull_2d(point, hull):
    """True if a point lies inside a counter-clockwise convex polygon, by
    more than HULL_MARGIN."""
    hull = np.asarray(hull, dtype=float)
    if hull.shape[0] < 3:
        return False
    p = np.asarray(point, dtype=float)
    nxt = np.roll(hull, -1, axis=0)
    edge = nxt - hull
    rel = p[None, :] - hull
    cross = edge[:, 0] * rel[:, 1] - edge[:, 1] * rel[:, 0]
    return bool(np.all(cross > HULL_MARGIN))


def extract_obstacle(mesh):
    """Boundary nodes on {x3 = 0} together with their planar convex hull."""
    bnodes = mesh.boundary_node_indices()
    on_plane = bnodes[np.abs(mesh.nodes[bnodes, 2]) <= PLANE_TOL]
    if on_plane.size == 0:
        raise ObstacleError("obstacle hypothesis violated: no boundary node on {x3 = 0}")
    hull = convex_hull_2d(mesh.nodes[on_plane, :2])
    return ObstacleSet(node_indices=on_plane, hull_vertices_2d=hull)


def boundary_region(mesh, name):
    """Indices of boundary triangles in a named region of a box mesh."""
    if name == "all":
        return np.arange(mesh.boundary_tris.shape[0])
    if mesh.box_origin is None:
        raise MeshError(f"named region {name!r} requires a box mesh")
    lo = mesh.box_origin
    hi = mesh.box_origin + mesh.box_lengths
    cent = mesh.nodes[mesh.boundary_tris].mean(axis=1)
    tol = 1e-12 * max(1.0, float(np.abs(mesh.nodes).max()))
    planes = {
        "bottom": np.abs(cent[:, 2] - lo[2]) <= tol,
        "top": np.abs(cent[:, 2] - hi[2]) <= tol,
        "xmin": np.abs(cent[:, 0] - lo[0]) <= tol,
        "xmax": np.abs(cent[:, 0] - hi[0]) <= tol,
        "ymin": np.abs(cent[:, 1] - lo[1]) <= tol,
        "ymax": np.abs(cent[:, 1] - hi[1]) <= tol,
    }
    if name == "sides":
        mask = ~(planes["bottom"] | planes["top"])
    elif name in planes:
        mask = planes[name]
    else:
        raise MeshError(f"unknown boundary region {name!r}")
    return np.nonzero(mask)[0]


def integrate_volume(mesh, integrand):
    """Integral over the body of a scalar nodal P1 field (length N), exact
    (centroid rule per tet)."""
    f = np.asarray(integrand, dtype=float)
    if f.shape != (mesh.num_nodes,):
        raise MeshError(f"nodal integrand must have shape ({mesh.num_nodes},)")
    return float(np.dot(mesh.element_volumes, f[mesh.tets].mean(axis=1)))


def _block_diagonal(blocks):
    """Sparse block diagonal of per-element blocks (M, r, c), shape (M r, M c)."""
    m, r, c = blocks.shape
    return scipy.sparse.bsr_array((blocks, np.arange(m), np.arange(m + 1)),
                                  shape=(m * r, m * c))


def gradient_rows(mesh, rows):
    """Dense (M, 3N) matrix whose row e maps u to rows[e] . vec(grad u) on element e."""
    return (_block_diagonal(rows[:, None, :]) @ mesh.gradient_operator).toarray()


def gradient_form(mesh, blocks):
    """Dense (3N, 3N) matrix of u, v -> sum_e vec(grad u)_e . blocks[e] vec(grad v)_e."""
    d = mesh.gradient_operator
    return (d.T @ _block_diagonal(blocks) @ d).toarray()


def element_gradient_maps(mesh):
    """(D_e, dofs): per element e the (9, 12) map D_e of its local nodal
    displacements to vec(grad u) on e, the element's block of
    `gradient_operator`, and the (12,) global dofs of its local columns,
    3 tets[e, a] + i at column 3a + i. Built once per mesh from the element
    gradient maps, not read out of the sparse operator, whose entry order is
    scipy's."""
    def build():
        _, g = _grad_maps(mesh.nodes, mesh.tets)
        m = mesh.num_elements
        d = np.zeros((m, 3, 3, 4, 3))   # element, component i, direction j, node a, component
        for i in range(3):
            d[:, i, :, :, i] = g
        return d.reshape(m, 9, 12), (3 * mesh.tets[:, :, None] + np.arange(3)).reshape(m, 12)
    return mesh.cached("element_gradient_maps", build)


def _scatter(cells, weights, base, n):
    """Dense n x n sum over cells c of weights[c] * base on the nodes cells[c]."""
    pairs = (cells[:, :, None] * n + cells[:, None, :]).ravel()
    vals = (weights[:, None, None] * base).ravel()
    return np.bincount(pairs, weights=vals, minlength=n * n).reshape(n, n)


def volume_mass_matrix(mesh):
    """Consistent P1 mass matrix, exact for products of P1 fields."""
    return mesh.cached("vol_mass", lambda: _scatter(
        mesh.tets, mesh.element_volumes, (np.ones((4, 4)) + np.eye(4)) / 20.0, mesh.num_nodes))


def surface_mass_matrix(mesh, region="all"):
    """Consistent P1 surface mass matrix over a named boundary region."""
    idx = boundary_region(mesh, region)

    def build():
        base = (np.ones((3, 3)) + np.eye(3)) / 12.0
        areas = np.linalg.norm(mesh.boundary_area_vectors[idx], axis=1)
        return _scatter(mesh.boundary_tris[idx], areas, base, mesh.num_nodes)
    return mesh.cached(("surf_mass", tuple(idx.tolist())), build)


def l2_norm(mesh, u):
    """L2 norm of a nodal field (exact for P1)."""
    u = np.asarray(u, dtype=float)
    mm = volume_mass_matrix(mesh)
    if u.ndim == 1:
        return float(np.sqrt(u @ mm @ u))
    return float(np.sqrt(sum(u[:, k] @ mm @ u[:, k] for k in range(u.shape[1]))))


def h1_norm(mesh, u):
    """Full H1 norm (L2 plus gradient seminorm) of a nodal field."""
    u = np.asarray(u, dtype=float)
    grads = mesh.element_gradients(u)
    semi2 = float(np.sum(mesh.element_volumes * (grads.reshape(grads.shape[0], -1) ** 2).sum(axis=1)))
    return float(np.sqrt(l2_norm(mesh, u) ** 2 + semi2))


def _mesh_block(lines, i, width, convert):
    """The rows of the block headed by lines[i] (`nodes N` or `tets M`), as
    an array, and the index of the line after them."""
    try:
        count = int(lines[i][1])
        rows = lines[i + 1:i + 1 + count]
        if len(lines[i]) != 2 or count < 1 or len(rows) != count:
            raise MeshError(f"{lines[i][0]} needs a count of at least 1 and that many rows")
        for r, row in enumerate(rows):
            if len(row) != width:
                raise MeshError(f"{lines[i][0]} row {r} has {len(row)} values, not {width}")
        return np.array([[convert(v) for v in row] for row in rows]), i + 1 + count
    except (IndexError, ValueError) as exc:
        raise MeshError(f"malformed {lines[i][0]} block: {exc}") from exc


def read_mesh_file(path):
    """Read the text mesh format: `nodes N` then N rows of three coordinates,
    `tets M` then M rows of four 0-based node ids. A malformed file raises
    MeshError."""
    blocks = {}
    with open(path) as fh:
        lines = [ln.split("#", 1)[0].split() for ln in fh]
    lines = [ln for ln in lines if ln]
    i = 0
    while i < len(lines):
        head = lines[i][0]
        if head not in ("nodes", "tets"):
            raise MeshError(f"unexpected directive {head!r} in mesh file")
        blocks[head], i = _mesh_block(lines, i, *((3, float) if head == "nodes" else (4, int)))
    if len(blocks) < 2:
        raise MeshError("mesh file must define both nodes and tets")
    nodes, tets = blocks["nodes"], blocks["tets"]
    if tets.min() < 0 or tets.max() >= nodes.shape[0]:
        raise MeshError(f"tets name node ids outside 0..{nodes.shape[0] - 1}")
    return _finish_mesh(nodes, tets)

