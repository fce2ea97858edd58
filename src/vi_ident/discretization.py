"""Meshes, P1 finite-element assembly, and discrete inner products.

Two structured mesh families are supported: a uniform partition of an
interval with a homogeneous Dirichlet condition at the left end and a single
friction node at the right end, and a uniform triangulation of the unit
square with the friction set D on the interior of the bottom edge and
Dirichlet conditions on the rest of the boundary.

The bilinear form is t(e; u, v) = int_Omega e * grad u . grad v (optionally
plus int_Omega e * u * v), with the coefficient e constant on each element so
the assembled operator T(e) is exactly linear in the coefficient vector.  The
nonsmooth friction term is mass-lumped on D: s(f; v) = sum_i w_i f_i |v_i|.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Mapping

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError

__all__ = [
    "Mesh",
    "ParameterField",
    "DiscreteOperator",
    "build_mesh",
    "interval_mesh",
    "unit_square_mesh",
    "assemble_operator",
    "operator_matrix",
    "load_vector",
    "OperatorPattern",
    "reg_inner",
    "ellipticity_field",
    "friction_field",
    "elementwise_h1_gram",
    "friction_gram",
    "h1_gram",
    "mass_matrix",
    "v_norm",
    "operator_jacobian",
    "free_part",
    "full_part",
]

FORMS = ("grad_grad", "grad_grad_plus_mass")
SUPPORTS = ("elements", "friction_set")  # where a ParameterField's values live


@dataclass(frozen=True)
class Mesh:
    """A P1 mesh with Dirichlet and friction node sets.

    ``friction_weights[i]`` is the lumped quadrature weight of friction node i
    (the length measure of D carried by that node; 1.0 for the 1D point-
    friction case), so discrete D-integrals read sum_i w_i (.)_i.
    """

    dimension: int
    nodes: np.ndarray
    elements: np.ndarray
    dirichlet_nodes: np.ndarray
    friction_nodes: np.ndarray
    friction_weights: np.ndarray
    free_nodes: np.ndarray = field(repr=False)
    free_index: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def friction_free_positions(self) -> np.ndarray:
        """Positions of the friction nodes inside the free-dof vector."""
        return self.free_index[self.friction_nodes]

    @cached_property
    def element_geometry(self) -> tuple[np.ndarray, np.ndarray]:
        """``(measures, midpoints)`` of the elements, shapes (E,) and
        (E, dimension), as read-only arrays built once per mesh on first
        use."""
        return _element_geometry(self)

    @cached_property
    def local_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-element coefficient-one local stiffness and mass matrices.

        Arrays of shape (E, m, m) with m = dimension + 1, built once per mesh.
        """
        meas = element_measures(self)
        if self.dimension == 1:
            k = np.array([[1.0, -1.0], [-1.0, 1.0]])
            m = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
            return k[None, :, :] / meas[:, None, None], m[None, :, :] * meas[:, None, None]
        # P1 triangle: grad(phi_i) = b_i / (2A) with the usual edge-normal vectors.
        pts = self.nodes[self.elements]
        x = pts[:, :, 0]
        y = pts[:, :, 1]
        b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
        c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
        K = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
            4.0 * meas[:, None, None]
        )
        m = (np.ones((3, 3)) + np.eye(3)) / 12.0
        return K, m[None, :, :] * meas[:, None, None]

    @cached_property
    def element_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(keep, rows, indptr)``: the CSC pattern of a (free dofs) x
        (elements) matrix whose column j holds element j's free nodes.
        ``keep`` masks the free entries of ``elements``, ``rows`` holds their
        free-dof indices, column by column."""
        index = self.free_index[self.elements]
        keep = index >= 0
        indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=1))])
        return keep, index[keep].astype(np.int32), indptr.astype(np.int32)

    @cached_property
    def operator_pattern(self) -> "OperatorPattern":
        """The pattern every operator on this mesh is assembled on, built on
        first use."""
        return OperatorPattern(self)

    @cached_property
    def element_gram(self) -> sp.csr_matrix:
        """The regularization Gram of elementwise fields
        (:func:`elementwise_h1_gram`), built once per mesh on first read."""
        return elementwise_h1_gram(self)

    @cached_property
    def friction_set_gram(self):
        """The regularization Gram of fields on the friction nodes
        (:func:`friction_gram`), built once per mesh on first read."""
        return friction_gram(self)


def _finish_mesh(dimension, nodes, elements, dirichlet, friction, weights) -> Mesh:
    dirichlet = np.asarray(dirichlet, dtype=int)
    friction = np.asarray(friction, dtype=int)
    if np.intersect1d(dirichlet, friction).size:
        raise ConfigError("dirichlet and friction node sets overlap")
    n = nodes.shape[0]
    mask = np.ones(n, dtype=bool)
    mask[dirichlet] = False
    free = np.flatnonzero(mask)
    index = np.full(n, -1, dtype=int)
    index[free] = np.arange(free.size)
    return Mesh(
        dimension=dimension,
        nodes=nodes,
        elements=np.asarray(elements, dtype=int),
        dirichlet_nodes=dirichlet,
        friction_nodes=friction,
        friction_weights=np.asarray(weights, dtype=float),
        free_nodes=free,
        free_index=index,
    )


def interval_mesh(a: float = 0.0, b: float = 1.0, n: int = 64) -> Mesh:
    """Uniform partition of (a, b) into n segments.

    Dirichlet node at the left end, friction node (weight 1) at the right end.
    """
    if n < 1:
        raise ConfigError(f"mesh.n must be >= 1, got {n}")
    if not b > a:
        raise ConfigError("interval endpoints must satisfy a < b")
    x = np.linspace(a, b, n + 1)
    nodes = x[:, None]
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    return _finish_mesh(1, nodes, elements, [0], [n], [1.0])


def unit_square_mesh(n: int) -> Mesh:
    """n-by-n grid of the unit square, each cell split into two triangles.

    The friction set D is the interior of the bottom edge y = 0; its endpoint
    corners belong to the Dirichlet boundary (the space forces zero there
    anyway).  Friction weights are the lumped edge measures h.
    """
    if n < 1:
        raise ConfigError(f"mesh.n must be >= 1, got {n}")
    h = 1.0 / n
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])  # node id = j*(n+1) + i

    # Cell (i, j) in row-major order, lower-left corner v00 = j*(n+1) + i,
    # split into the triangles (v00, v10, v11) and (v00, v11, v01).  The
    # element order is part of the output: per-element CSV rows follow it.
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v10, v01 = v00 + 1, v00 + (n + 1)
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    elements = np.stack([lower, upper], axis=1).reshape(-1, 3)

    ii = np.arange(n + 1)
    bottom = ii  # j = 0
    top = n * (n + 1) + ii
    left = ii * (n + 1)
    right = ii * (n + 1) + n
    friction = bottom[1:-1]
    dirichlet = np.unique(np.concatenate([top, left, right, [bottom[0], bottom[-1]]]))
    weights = np.full(friction.size, h)
    return _finish_mesh(2, nodes, elements, dirichlet, friction, weights)


def build_mesh(spec: Mapping) -> Mesh:
    """Build a mesh from a config mapping.

    The mapping carries ``dimension`` (1 or 2), ``n`` (elements per direction),
    and for dimension 1 an optional ``interval: [a, b]`` (default (0, 1)).
    """
    try:
        dimension = int(spec["dimension"])
    except KeyError:
        raise ConfigError("mesh spec is missing 'dimension'") from None
    n = int(spec.get("n", 0))
    if dimension == 1:
        a, b = spec.get("interval", (0.0, 1.0))
        return interval_mesh(float(a), float(b), n)
    if dimension == 2:
        return unit_square_mesh(n)
    raise ConfigError(f"mesh.dimension must be 1 or 2, got {dimension}")


# ---------------------------------------------------------------------------
# Parameter fields.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParameterField:
    """A coefficient vector on a mesh, with box bounds and a regularization
    Gram matrix.

    The ellipticity coefficient lives one value per element (``support`` is
    ``"elements"``), the friction coefficient one value per friction node
    (``"friction_set"``).  ``reg_inner_product`` is the SPD matrix of the
    field's regularization inner product: the mesh's
    :attr:`Mesh.element_gram` or :attr:`Mesh.friction_set_gram`, built once
    per mesh on first read and shared by every field on that mesh, so a field
    whose Gram is never read (a forward solve) builds none.  The shared Gram
    must not be modified in place.  :func:`elementwise_h1_gram` matches the
    elements' shared facets by one stable sort of integer facet keys.
    """

    values: np.ndarray
    lower_bound: float
    upper_bound: float
    mesh: Mesh = field(repr=False, compare=False)
    support: str

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.support not in SUPPORTS:
            raise ValueError(f"support must be one of {SUPPORTS}, got {self.support!r}")
        if not self.lower_bound < self.upper_bound:
            raise ConfigError(
                f"bounds must satisfy lower < upper, got [{self.lower_bound}, {self.upper_bound}]"
            )
        if not np.isfinite(self.values).all():
            raise ValueError(f"field values on the {self.support} must be finite")
        if self.values.min(initial=np.inf) < self.lower_bound or self.values.max(
            initial=-np.inf
        ) > self.upper_bound:
            raise ValueError("field values violate the box bounds")

    @property
    def reg_inner_product(self):
        """The SPD Gram matrix of the regularization inner product, a
        scipy.sparse CSR matrix read off the mesh."""
        return self.mesh.element_gram if self.support == "elements" else self.mesh.friction_set_gram

    def with_values(self, values: np.ndarray) -> "ParameterField":
        return replace(self, values=values)

    def project(self, values: np.ndarray) -> np.ndarray:
        """Clip a candidate vector onto the admissible box."""
        return np.clip(values, self.lower_bound, self.upper_bound)


def _broadcast(values, size) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        return np.full(size, float(arr))
    if arr.shape != (size,):
        raise ValueError(f"expected {size} values, got shape {arr.shape}")
    return arr


def ellipticity_field(
    mesh: Mesh, values, lower: float = 0.1, upper: float = 10.0
) -> ParameterField:
    """Elementwise ellipticity coefficient, regularized by the mesh's
    H1-type Gram (:attr:`Mesh.element_gram`)."""
    vals = _broadcast(values, mesh.n_elements)
    return ParameterField(vals, float(lower), float(upper), mesh, "elements")


def friction_field(
    mesh: Mesh, values, lower: float = 0.0, upper: float = 5.0
) -> ParameterField:
    """Nodewise friction coefficient on D, regularized by the mesh's Gram
    along D (:attr:`Mesh.friction_set_gram`)."""
    vals = _broadcast(values, mesh.friction_nodes.size)
    return ParameterField(vals, float(lower), float(upper), mesh, "friction_set")


# ---------------------------------------------------------------------------
# Element geometry and raw assembly.
# ---------------------------------------------------------------------------


def _element_geometry(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    pts = mesh.nodes[mesh.elements]
    if mesh.dimension == 1:
        measures = np.abs(pts[:, 1, 0] - pts[:, 0, 0])
    else:
        d1 = pts[:, 1] - pts[:, 0]
        d2 = pts[:, 2] - pts[:, 0]
        measures = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    midpoints = pts.mean(axis=1)
    measures.flags.writeable = midpoints.flags.writeable = False
    return measures, midpoints


def element_measures(mesh: Mesh) -> np.ndarray:
    """The elements' lengths (1D) or areas (2D), read-only."""
    return mesh.element_geometry[0]


def element_midpoints(mesh: Mesh) -> np.ndarray:
    """The elements' midpoints (1D) or centroids (2D), read-only."""
    return mesh.element_geometry[1]


def _form_matrices(mesh: Mesh, form: str) -> np.ndarray:
    """Coefficient-one local matrices of the bilinear form, shape (E, m, m)."""
    if form not in FORMS:
        raise ConfigError(f"form must be one of {FORMS}, got {form!r}")
    K, M = mesh.local_matrices
    return K + M if form == "grad_grad_plus_mass" else K


class OperatorPattern:
    """The CSR pattern on the free dofs shared by every matrix assembled on a
    mesh, and the order in which a factorization eliminates those dofs.

    ``slots[k]`` is the index into the CSR data that entry k of the flattened
    (E, m, m) local matrices adds to; entries in a Dirichlet row or column get
    the slot ``nnz`` and are dropped.  Assembly is one ``np.bincount`` onto the
    fixed pattern, so ``T(e).data`` is exactly linear in ``e``.  ``points``
    holds the free dofs' coordinates, which the elimination order reads.
    """

    def __init__(self, mesh: Mesh):
        idx = mesh.free_index[mesh.elements]
        m = idx.shape[1]
        rows = np.repeat(idx, m, axis=1).ravel()
        cols = np.tile(idx, (1, m)).ravel()
        keep = (rows >= 0) & (cols >= 0)
        n = mesh.free_nodes.size
        keys, slots = np.unique(rows[keep].astype(np.int64) * n + cols[keep], return_inverse=True)
        self.shape = (n, n)
        self.indices = (keys % n).astype(np.int32)
        self.indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n).astype(np.int32)
        self.slots = np.full(rows.size, keys.size, dtype=np.int32)
        self.slots[keep] = slots
        self.friction_positions = mesh.friction_free_positions
        self.points = mesh.nodes[mesh.free_nodes]

    def assemble(self, local: np.ndarray) -> sp.csr_matrix:
        """Sum per-element matrices of shape (E, m, m) onto the pattern."""
        data = np.bincount(self.slots, weights=local.ravel(), minlength=self.indices.size + 1)
        return sp.csr_matrix((data[:-1], self.indices, self.indptr), shape=self.shape)

    def holds(self, A: sp.csr_matrix) -> bool:
        """Whether ``A`` is stored on this pattern, entry for entry."""
        return (
            A.shape == self.shape
            and np.array_equal(A.indptr, self.indptr)
            and np.array_equal(A.indices, self.indices)
        )

    @cached_property
    def elimination(self) -> tuple[np.ndarray, ...]:
        """``(order, rank, indptr, indices, data_map)``: the free dofs in
        elimination order and its inverse (``rank[order] = arange(n)``), and
        the CSC matrix ``A[order][:, order]`` of a matrix ``A`` on this
        pattern as ``(A.data[data_map], indices, indptr)``.

        The order is a nested-dissection order of the dofs off the friction
        set D (:func:`_dissection_order`, from the dof coordinates and the
        pattern alone), then D in ``friction_positions`` order, so D is
        eliminated last.
        """
        n = self.shape[0]
        D = self.friction_positions
        rest = _dissection_order(self.points, self.indptr, self.indices, np.setdiff1d(np.arange(n), D))
        order = np.concatenate([rest, D]).astype(np.int32)
        rank = np.empty_like(order)
        rank[order] = np.arange(n, dtype=np.int32)
        numbered = sp.csr_matrix(
            (np.arange(1, self.indices.size + 1, dtype=np.int32), self.indices, self.indptr), shape=self.shape
        )
        csc = numbered[order][:, order].tocsc()
        return order, rank, csc.indptr, csc.indices, csc.data - 1


_LEAF_SIZE = 16  # nested dissection keeps a part of at most this many dofs in its order


def _dissection_order(points, indptr, indices, part) -> np.ndarray:
    """George's nested dissection of the dofs ``part`` of the CSR pattern
    ``(indptr, indices)``, by the dofs' coordinates ``points``.

    The part is cut at the median coordinate along its longest extent; the
    separator is the low-side dofs with a pattern neighbour on the high side.
    The order is the low side less the separator, then the high side, each
    dissected in turn, then the separator.  A part of at most ``_LEAF_SIZE``
    dofs, or one with no proper split, keeps its order.
    """
    n = indptr.size - 1
    # row i lists the pattern neighbours of dof i, padded with i itself
    degree = np.diff(indptr)
    width = degree.max(initial=1)
    neighbours = np.repeat(np.arange(n), width).reshape(n, width)
    row = np.repeat(np.arange(n), degree)
    neighbours[row, np.arange(row.size) - indptr[row]] = indices
    high = np.zeros(n, dtype=bool)  # the high side of the part being cut

    def dissect(part):
        if part.size <= _LEAF_SIZE:
            return part
        coords = points[part]
        x = coords[:, np.ptp(coords, axis=0).argmax()]
        k = (x.size - 1) // 2
        low = x <= np.partition(x, k)[k]  # the median, or the lower of the two middle values
        if low.all():
            return part
        high[part[~low]] = True
        separator = low.copy()
        separator[low] = high[neighbours[part[low]]].any(axis=1)
        high[part[~low]] = False
        return np.concatenate([dissect(part[low & ~separator]), dissect(part[~low]), part[separator]])

    return dissect(part)


@dataclass(frozen=True)
class DiscreteOperator:
    """Assembled operator and load on the free (non-Dirichlet) nodes, with
    ``matrix`` stored on the mesh's :class:`OperatorPattern`; a plain value,
    which :func:`vi_ident.forward.factorize` factorizes anew on every call."""

    matrix: sp.csr_matrix
    load: np.ndarray


def assemble_operator(
    mesh: Mesh,
    e: ParameterField,
    form: str = "grad_grad",
    g: Callable | float = 1.0,
) -> DiscreteOperator:
    """Assemble T(e) (:func:`operator_matrix`) and the load vector for the
    source g (:func:`load_vector`)."""
    return DiscreteOperator(matrix=operator_matrix(mesh, e, form), load=load_vector(mesh, g))


def operator_matrix(mesh: Mesh, e: ParameterField, form: str = "grad_grad") -> sp.csr_matrix:
    """T(e) on the free nodes, on the mesh's :class:`OperatorPattern`.

    The coefficient enters every element matrix linearly, so
    T(e1 + e2) = T(e1) + T(e2) entrywise.

    Raises
    ------
    ValueError
        If the coefficient vector leaves the field's admissible box.
    """
    vals = e.values
    if vals.shape != (mesh.n_elements,):
        raise ValueError(
            f"expected one ellipticity value per element ({mesh.n_elements}), got {vals.shape}"
        )
    if vals.min() < e.lower_bound or vals.max() > e.upper_bound:
        raise ValueError("ellipticity values outside the admissible box")
    return mesh.operator_pattern.assemble(_form_matrices(mesh, form) * vals[:, None, None])


def load_vector(mesh: Mesh, g: Callable | float = 1.0) -> np.ndarray:
    """The load vector on the free nodes for the source g.

    A one-point rule (midpoint/centroid), consistent with P1 accuracy; ``g``
    is either a constant or a callable receiving the (E, dim) array of
    element midpoints, and a ``ValueError`` if not finite at all of them.
    """
    gv = np.asarray(g(element_midpoints(mesh)), dtype=float) if callable(g) else float(g)
    if not np.isfinite(gv).all():
        raise ValueError("the source g must be finite at every element midpoint")
    m = mesh.elements.shape[1]
    contrib = np.repeat(gv * element_measures(mesh) / m, m)
    return np.bincount(mesh.elements.ravel(), weights=contrib, minlength=mesh.n_nodes)[mesh.free_nodes]


def operator_jacobian(mesh: Mesh, form: str, u_full: np.ndarray) -> sp.csc_matrix:
    """The derivative of ``T(e) u`` in ``e`` on the free dofs, a sparse
    (free dofs) x (elements) matrix: column j is ``T(1_j) u``, the element's
    local matrix applied to its nodal values of ``u``, so that its transpose
    applied to p is the per-element ``t(1_j; u, p)``."""
    local = np.einsum("eij,ej->ei", _form_matrices(mesh, form), np.asarray(u_full, dtype=float)[mesh.elements])
    keep, rows, indptr = mesh.element_columns
    return sp.csc_matrix((local[keep], rows, indptr), shape=(mesh.free_nodes.size, mesh.n_elements))


# ---------------------------------------------------------------------------
# Free-dof restriction and extension.
# ---------------------------------------------------------------------------


def free_part(mesh: Mesh, v_full: np.ndarray) -> np.ndarray:
    """Restrict a full nodal vector to the free dofs."""
    return np.asarray(v_full, dtype=float)[mesh.free_nodes]


def full_part(mesh: Mesh, v_free: np.ndarray) -> np.ndarray:
    """Extend a free-dof vector, or an (n_free, k) block, by zeros on the
    Dirichlet nodes."""
    out = np.zeros((mesh.n_nodes, *np.shape(v_free)[1:]))
    out[mesh.free_nodes] = v_free
    return out


# ---------------------------------------------------------------------------
# Regularization inner products and norms.
# ---------------------------------------------------------------------------


def reg_inner(field_: ParameterField, a: np.ndarray, b: np.ndarray) -> float:
    """The field's regularization inner product a^T G b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = field_.values.size
    if a.shape != (n,) or b.shape != (n,):
        raise ValueError(f"expected vectors of length {n}")
    return float(a @ (field_.reg_inner_product @ b))


def elementwise_h1_gram(mesh: Mesh) -> sp.csr_matrix:
    """H1-type Gram matrix for elementwise-constant coefficients.

    Mass part: diagonal of element measures.  Stiffness part: a finite-volume
    difference across each interior facet with weight |facet| / (centroid
    distance), the two-point flux analogue of int grad e . grad e for fields
    that are constant per element.  A facet is an edge in 2D, keyed by its
    node pair as ``min * n_nodes + max``, and a node in 1D (|facet| = 1),
    keyed by the node itself; the interior facets are the keys two elements
    share, found by one stable sort of the keys.  :attr:`Mesh.element_gram`
    holds this matrix once built.
    """
    E, m = mesh.elements.shape
    if mesh.dimension == 1:
        key = mesh.elements.ravel()
    else:
        # the edges (0, 1), (0, 2), (1, 2) of each triangle, element by element
        p, q = mesh.elements[:, [0, 0, 1]].ravel(), mesh.elements[:, [1, 2, 2]].ravel()
        low, high = np.minimum(p, q), np.maximum(p, q)
        key = low * mesh.n_nodes + high
    order = np.argsort(key, kind="stable")
    twin = np.flatnonzero(key[order[1:]] == key[order[:-1]])
    first, second = order[twin], order[twin + 1]
    a, b = first // m, second // m
    size = 1.0 if mesh.dimension == 1 else _distances(mesh.nodes, low[first], high[first])
    w = size / _distances(element_midpoints(mesh), a, b)
    rows = np.concatenate([np.arange(E), a, b])
    cols = np.concatenate([np.arange(E), b, a])
    # each diagonal entry sums its element's measure, then its facet weights
    diag = np.bincount(rows, weights=np.concatenate([element_measures(mesh), w, w]), minlength=E)
    return sp.coo_matrix((np.concatenate([diag, -w, -w]), (rows, cols)), shape=(E, E)).tocsr()


def _distances(points: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The Euclidean distances between the rows ``p`` and ``q`` of
    ``points``, summed coordinate by coordinate."""
    squared = 0.0
    for x in points.T:
        d = x[p] - x[q]
        squared = squared + d * d
    return np.sqrt(squared)


def friction_gram(mesh: Mesh) -> sp.csr_matrix:
    """Gram matrix of the friction field's regularization inner product, CSR.

    The 1D point-friction case uses the identity (the scalar 1 at the tip).
    In 2D it is the P1 mass+stiffness matrix of the bottom edge with its
    Dirichlet endpoints eliminated, i.e. a discrete H1 inner product along D.
    :attr:`Mesh.friction_set_gram` holds it once built.
    """
    nf = mesh.friction_nodes.size
    if mesh.dimension == 1:
        return sp.identity(nf, format="csr")
    xs = mesh.nodes[mesh.friction_nodes, 0]
    if np.any(np.diff(xs) <= 0):
        raise ConfigError("friction nodes are expected ordered along the edge")
    # Segment lengths including the two boundary segments to the corners;
    # friction node i sits between segments i and i + 1.
    hseg = np.diff(np.concatenate([[0.0], xs, [1.0]]))
    left, right = hseg[:-1], hseg[1:]
    diag = (1.0 / left + 2.0 * left / 6.0) + (1.0 / right + 2.0 * right / 6.0)
    off = -1.0 / right[:-1] + right[:-1] / 6.0
    i = np.arange(nf)
    rows = np.concatenate([i, i[:-1], i[1:]])
    cols = np.concatenate([i, i[1:], i[:-1]])
    return sp.coo_matrix((np.concatenate([diag, off, off]), (rows, cols)), shape=(nf, nf)).tocsr()


def h1_gram(mesh: Mesh) -> sp.csr_matrix:
    """Discrete H1 (V-norm) Gram matrix on the free nodes."""
    K, M = mesh.local_matrices
    return mesh.operator_pattern.assemble(K) + mesh.operator_pattern.assemble(M)


def mass_matrix(mesh: Mesh) -> sp.csr_matrix:
    """P1 mass matrix on the free nodes (L2 inner product on V)."""
    return mesh.operator_pattern.assemble(mesh.local_matrices[1])


def v_norm(mesh: Mesh, v_full: np.ndarray, gram: sp.csr_matrix | None = None) -> float:
    """Discrete H1 norm of a nodal vector vanishing on the Dirichlet set."""
    if gram is None:
        gram = h1_gram(mesh)
    vf = free_part(mesh, v_full)
    return float(np.sqrt(vf @ (gram @ vf)))
