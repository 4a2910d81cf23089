"""Independent references that the tests compare the package against.

Each one computes a quantity the package also computes, by the plain route
the package replaced: dense elimination for the Schur complement, one Python
step per triangle for the refinement.
"""

import numpy as np

from signorini_fem.assembly import assemble_stiffness, dof_partition
from signorini_fem.mesh import TraceMap, TriMesh, trace_map
from signorini_fem.steklov import SteklovMap


def schur_complement_dense(mesh: TriMesh, tmap: TraceMap | None = None, stiffness=None) -> np.ndarray:
    """Algebraic Schur complement onto the multiplier DOFs, densely.

    Eliminates every non-Gamma_S free vertex from the stiffness matrix with
    dense linear algebra; intended for low levels as the independent
    counterpart of the operator materialization.
    """
    if tmap is None:
        tmap = trace_map(mesh)
    A = assemble_stiffness(mesh) if stiffness is None else stiffness
    _, _, ii = dof_partition(mesh, tmap)
    trace = tmap.multiplier_vertices
    a_tt = A[trace][:, trace].toarray()
    a_ti = A[trace][:, ii].toarray()
    a_ii = A[ii][:, ii].toarray()
    a_it = A[ii][:, trace].toarray()
    return a_tt - a_ti @ np.linalg.solve(a_ii, a_it)


def schur_consistency(mesh: TriMesh) -> float:
    """Relative Frobenius gap between Schur complement and D-scaled operator."""
    tmap = trace_map(mesh)
    stiffness = assemble_stiffness(mesh)
    smap = SteklovMap(mesh, tmap, stiffness=stiffness)
    dense_op = smap.lumped[:, None] * smap.dense_matrix()
    schur = schur_complement_dense(mesh, tmap, stiffness=stiffness)
    return float(np.linalg.norm(dense_op - schur) / np.linalg.norm(schur))


def refine_loop(mesh: TriMesh) -> TriMesh:
    """``mesh.refine`` one triangle at a time, midpoints numbered by a dict."""
    midpoint: dict[tuple[int, int], int] = {}
    next_id = mesh.num_vertices
    new_coords = []

    def mid(a: int, b: int) -> int:
        nonlocal next_id
        key = (a, b) if a < b else (b, a)
        idx = midpoint.get(key)
        if idx is None:
            idx = next_id
            midpoint[key] = idx
            next_id += 1
            new_coords.append(0.5 * (mesh.vertices[key[0]] + mesh.vertices[key[1]]))
        return idx

    tris = []
    for a, b, c in mesh.triangles:
        mab = mid(a, b)
        mbc = mid(b, c)
        mca = mid(c, a)
        tris.append((a, mab, mca))
        tris.append((b, mbc, mab))
        tris.append((c, mca, mbc))
        tris.append((mab, mbc, mca))

    edges = []
    tags = []
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        m = mid(int(a), int(b))
        edges.append((a, m))
        edges.append((m, b))
        tags.extend((tag, tag))

    vertices = np.vstack([mesh.vertices, np.asarray(new_coords)])
    n_old = mesh.num_vertices
    parent_pairs = np.empty((vertices.shape[0], 2), dtype=np.int64)
    parent_pairs[:n_old, 0] = np.arange(n_old)
    parent_pairs[:n_old, 1] = np.arange(n_old)
    for (a, b), idx in midpoint.items():
        parent_pairs[idx] = (a, b)

    return TriMesh(
        level=mesh.level + 1,
        vertices=vertices,
        triangles=np.asarray(tris, dtype=np.int64),
        boundary_edges=np.asarray(edges, dtype=np.int64),
        boundary_tags=np.asarray(tags, dtype=np.int64),
        parent_pairs=parent_pairs,
    )
