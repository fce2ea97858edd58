"""Mesh, assembly, parameter-field, and inner-product tests."""
from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from vi_ident import (
    ConfigError,
    assemble_operator,
    build_mesh,
    ellipticity_field,
    friction_field,
    h1_gram,
    interval_mesh,
    mass_matrix,
    reg_inner,
    trace_adjoint,
    trace_apply,
    unit_square_mesh,
    v_norm,
)
from vi_ident import discretization
from vi_ident.discretization import (
    element_measures,
    elementwise_h1_gram,
    free_part,
    friction_gram,
    full_part,
    load_vector,
    operator_jacobian,
)
from vi_ident.forward import Problem


def spd_check(A) -> bool:
    A = sp.csr_matrix(A)
    sym = abs(A - A.T).max() < 1e-12
    eigs = np.linalg.eigvalsh(A.toarray())
    return sym and eigs.min() > 0


# --- meshes -------------------------------------------------------------------


def test_interval_mesh_layout():
    mesh = interval_mesh(0.0, 1.0, 8)
    assert mesh.dimension == 1
    assert mesh.n_nodes == 9
    assert mesh.n_elements == 8
    assert np.allclose(mesh.nodes[:, 0], np.linspace(0, 1, 9))
    assert list(mesh.dirichlet_nodes) == [0]
    assert list(mesh.friction_nodes) == [8]
    assert np.allclose(mesh.friction_weights, [1.0])
    assert list(mesh.free_nodes) == list(range(1, 9))


def test_interval_mesh_rejects_degenerate():
    with pytest.raises(ConfigError):
        interval_mesh(0.0, 1.0, 0)


def test_unit_square_mesh_layout():
    n = 4
    mesh = unit_square_mesh(n)
    assert mesh.dimension == 2
    assert mesh.n_nodes == (n + 1) ** 2
    assert mesh.n_elements == 2 * n * n
    # friction trace: interior nodes of the bottom edge
    assert list(mesh.friction_nodes) == [1, 2, 3]
    assert np.allclose(mesh.friction_weights, 1.0 / n)
    # corners of the bottom edge are Dirichlet, not friction
    assert 0 in mesh.dirichlet_nodes and n in mesh.dirichlet_nodes
    # all boundary nodes except the friction set are Dirichlet
    coords = mesh.nodes
    on_boundary = (
        (coords[:, 0] == 0) | (coords[:, 0] == 1) | (coords[:, 1] == 0) | (coords[:, 1] == 1)
    )
    expected_dirichlet = set(np.where(on_boundary)[0]) - set(mesh.friction_nodes)
    assert set(mesh.dirichlet_nodes) == expected_dirichlet


def test_unit_square_elements_are_pinned():
    # cells row by row from the bottom left, each split along its rising diagonal
    mesh = unit_square_mesh(2)
    expected = [
        [0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4],
        [3, 4, 7], [3, 7, 6], [4, 5, 8], [4, 8, 7],
    ]
    assert mesh.elements.tolist() == expected


def test_unit_square_smallest_case_has_one_friction_node():
    mesh = unit_square_mesh(2)
    assert list(mesh.friction_nodes) == [1]


def test_element_measures_sum_to_domain():
    assert np.isclose(element_measures(interval_mesh(0, 1, 7)).sum(), 1.0)
    assert np.isclose(element_measures(unit_square_mesh(3)).sum(), 1.0)


def test_build_mesh_from_mapping():
    mesh = build_mesh({"dimension": 1, "n": 16, "interval": [0.0, 2.0]})
    assert mesh.n_elements == 16
    assert np.isclose(mesh.nodes[-1, 0], 2.0)
    mesh2d = build_mesh({"dimension": 2, "n": 3})
    assert mesh2d.dimension == 2
    with pytest.raises(ConfigError):
        build_mesh({"dimension": 1, "n": 0})
    with pytest.raises(ConfigError):
        build_mesh({"dimension": 3, "n": 4})
    with pytest.raises(ConfigError):
        build_mesh({"n": 4})


# --- parameter fields -----------------------------------------------------------


def test_parameter_field_bounds_enforced():
    mesh = interval_mesh(0, 1, 4)
    field = ellipticity_field(mesh, 1.0)
    assert field.values.shape == (4,)
    with pytest.raises(ValueError):
        ellipticity_field(mesh, 100.0)  # above the default upper bound
    with pytest.raises(ValueError):
        friction_field(mesh, -0.1)


def test_parameter_field_projection_clips():
    mesh = interval_mesh(0, 1, 4)
    field = ellipticity_field(mesh, 1.0, lower=0.5, upper=2.0)
    raw = np.array([0.1, 5.0, 1.0, 1.7])
    proj = field.project(raw)
    assert np.allclose(proj, [0.5, 2.0, 1.0, 1.7])
    replaced = field.with_values(proj)
    assert np.allclose(replaced.values, proj)
    assert replaced.lower_bound == field.lower_bound


def test_friction_field_lives_on_the_trace():
    mesh = unit_square_mesh(4)
    f = friction_field(mesh, 0.3)
    assert f.values.shape == (3,)


# --- assembly -------------------------------------------------------------------


def test_operator_matrix_is_spd():
    mesh = interval_mesh(0, 1, 12)
    e = ellipticity_field(mesh, 1.0)
    op = assemble_operator(mesh, e)
    assert spd_check(op.matrix)
    mesh2 = unit_square_mesh(3)
    e2 = ellipticity_field(mesh2, 2.0)
    assert spd_check(assemble_operator(mesh2, e2).matrix)
    assert spd_check(assemble_operator(mesh2, e2, form="grad_grad_plus_mass").matrix)


def test_1d_stiffness_matches_hand_assembly():
    n = 5
    h = 1.0 / n
    mesh = interval_mesh(0, 1, n)
    e = ellipticity_field(mesh, 1.0)
    K = assemble_operator(mesh, e).matrix.toarray()
    expected = (np.diag([2.0] * (n - 1) + [1.0]) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)) / h
    assert np.allclose(K, expected)


def test_2d_stiffness_is_the_five_point_laplacian():
    # free nodes: columns i = 1..n-1 (Dirichlet sides), rows j = 0..n-1 (Dirichlet
    # top); the bottom row carries the natural condition, so it has half the
    # horizontal coupling and only the upward vertical one
    n = 5
    mesh = unit_square_mesh(n)
    K = assemble_operator(mesh, ellipticity_field(mesh, 1.0)).matrix.toarray()
    lap = lambda size: 2 * np.eye(size) - np.eye(size, k=1) - np.eye(size, k=-1)
    half = np.eye(n)
    half[0, 0] = 0.5
    vertical = lap(n)
    vertical[0, 0] = 1.0
    expected = np.kron(half, lap(n - 1)) + np.kron(vertical, np.eye(n - 1))
    assert np.allclose(K, expected, rtol=0, atol=1e-12)


def test_load_vector_one_point_rule():
    n = 4
    mesh = interval_mesh(0, 1, n)
    e = ellipticity_field(mesh, 1.0)
    op = assemble_operator(mesh, e, g=1.0)
    h = 1.0 / n
    # interior hat functions pick up h, the end node h/2
    assert np.allclose(op.load, [h, h, h, h / 2])


def test_patch_linear_function_energy():
    # for u = a + b*x + c*y the gradient energy is b^2 + c^2 on the unit square;
    # every node is free, so the per-element energies t(1_j; u, u) cover all of u
    mesh = unit_square_mesh(4)
    n = mesh.n_nodes
    mesh = replace(mesh, dirichlet_nodes=np.array([], dtype=int), free_nodes=np.arange(n), free_index=np.arange(n))
    u = 0.7 + 1.5 * mesh.nodes[:, 0] - 2.0 * mesh.nodes[:, 1]
    per_element = operator_jacobian(mesh, "grad_grad", u).T @ u
    assert np.isclose(per_element.sum(), 1.5**2 + 2.0**2)


def test_operator_jacobian_is_the_assembly_derivative():
    # u^T T(e) u = sum_j e_j * t(1_j; u, u) for vectors vanishing on Dirichlet nodes
    rng = np.random.default_rng(3)
    for mesh in (interval_mesh(0, 1, 9), unit_square_mesh(3)):
        e_vals = rng.uniform(0.5, 2.0, mesh.n_elements)
        e = ellipticity_field(mesh, e_vals)
        u_full = rng.standard_normal(mesh.n_nodes)
        u_full[mesh.dirichlet_nodes] = 0.0
        uf = free_part(mesh, u_full)
        quad_form = uf @ (assemble_operator(mesh, e).matrix @ uf)
        split = e_vals @ (operator_jacobian(mesh, "grad_grad", u_full).T @ uf)
        assert np.isclose(quad_form, split)


def test_operator_jacobian_applies_the_direction_matrix():
    # T'(u) d = T(d) u for a sign-mixed direction d, T(d) assembled on the pattern
    mesh = interval_mesh(0, 1, 6)
    rng = np.random.default_rng(5)
    d1 = rng.standard_normal(6)
    d2 = rng.standard_normal(6)
    u = full_part(mesh, rng.standard_normal(mesh.free_nodes.size))
    T_d = mesh.operator_pattern.assemble(mesh.local_matrices[0] * (d1 + 2.5 * d2)[:, None, None])
    jac = operator_jacobian(mesh, "grad_grad", u)
    assert np.allclose(T_d @ free_part(mesh, u), jac @ d1 + 2.5 * (jac @ d2))


def coo_assembly(mesh, local):
    """Reference assembly: COO triplets, Dirichlet rows and columns dropped,
    duplicates summed by scipy."""
    idx = mesh.free_index[mesh.elements]
    m = idx.shape[1]
    rows = np.repeat(idx, m, axis=1).ravel()
    cols = np.tile(idx, (1, m)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    n = mesh.free_nodes.size
    return sp.coo_matrix((local.ravel()[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()


@pytest.mark.parametrize("mesh", [interval_mesh(0, 1, 9), unit_square_mesh(7)], ids=["1d", "2d"])
@pytest.mark.parametrize("form", ["grad_grad", "grad_grad_plus_mass"])
def test_pattern_assembly_matches_the_coo_assembly(mesh, form):
    rng = np.random.default_rng(8)
    K, M = mesh.local_matrices
    local = K + M if form == "grad_grad_plus_mass" else K
    e = rng.uniform(0.5, 2.0, mesh.n_elements)
    direction = rng.standard_normal(mesh.n_elements)  # sign-mixed
    for built, coeff in (
        (assemble_operator(mesh, ellipticity_field(mesh, e), form).matrix, e),
        (mesh.operator_pattern.assemble(local * direction[:, None, None]), direction),
    ):
        reference = coo_assembly(mesh, local * coeff[:, None, None])
        # the same stored pattern, explicit zeros included
        assert np.array_equal(built.indptr, reference.indptr)
        assert np.array_equal(built.indices, reference.indices)
        assert np.abs(built.data - reference.data).max() <= 1e-15 * np.abs(reference.data).max()


def test_the_operator_pattern_is_built_once_per_mesh_on_first_use(monkeypatch):
    builds = []

    class CountingPattern(discretization.OperatorPattern):
        def __init__(self, mesh):
            builds.append(mesh)
            super().__init__(mesh)

    monkeypatch.setattr(discretization, "OperatorPattern", CountingPattern)
    mesh = unit_square_mesh(6)
    assert "operator_pattern" not in vars(mesh)
    a = assemble_operator(mesh, ellipticity_field(mesh, 1.0)).matrix
    b = assemble_operator(mesh, ellipticity_field(mesh, 2.0), "grad_grad_plus_mass").matrix
    mass_matrix(mesh)
    assert len(builds) == 1
    assert np.array_equal(a.indices, b.indices) and np.array_equal(a.indptr, b.indptr)


@pytest.mark.parametrize("mesh", [interval_mesh(0, 1, 9), unit_square_mesh(7)], ids=["1d", "2d"])
@pytest.mark.parametrize("source", [1.0, lambda x: 1.0 + x[:, 0] ** 2], ids=["constant", "callable"])
def test_the_problem_load_is_the_assembled_load(mesh, source):
    problem = Problem(mesh, source=source)
    e = ellipticity_field(mesh, 1.5)
    load = assemble_operator(mesh, e, g=source).load
    assert np.array_equal(problem.operator(e).load, load)
    assert problem.operator(ellipticity_field(mesh, 2.0)).load is problem.operator(e).load
    # the reference: a nodal scatter with np.add.at
    g = source(discretization.element_midpoints(mesh)) if callable(source) else source
    m = mesh.elements.shape[1]
    full = np.zeros(mesh.n_nodes)
    np.add.at(full, mesh.elements, (g * element_measures(mesh) / m)[:, None])
    assert np.array_equal(load, full[mesh.free_nodes])
    assert np.array_equal(load_vector(mesh, source), load)


def test_out_of_bounds_coefficient_rejected():
    # fields validate at construction, so sneak bad values in by mutating the array
    mesh = interval_mesh(0, 1, 4)
    e = ellipticity_field(mesh, 1.0)
    e.values[:] = 50.0
    with pytest.raises(ValueError):
        assemble_operator(mesh, e)


# --- traces ---------------------------------------------------------------------


def test_trace_apply_restricts():
    mesh = interval_mesh(0, 1, 5)
    v = np.arange(6, dtype=float)
    assert np.allclose(trace_apply(mesh, v), [5.0])


def test_trace_adjointness():
    # <v, gamma* mu> = sum_i w_i v(x_i) mu_i
    rng = np.random.default_rng(11)
    for mesh in (interval_mesh(0, 1, 6), unit_square_mesh(4)):
        v = rng.standard_normal(mesh.n_nodes)
        mu = rng.standard_normal(mesh.friction_nodes.size)
        lhs = v @ trace_adjoint(mesh, mu)
        rhs = (mesh.friction_weights * trace_apply(mesh, v)) @ mu
        assert np.isclose(lhs, rhs)


def test_trace_adjoint_rejects_wrong_length():
    mesh = unit_square_mesh(4)
    with pytest.raises(ValueError):
        trace_adjoint(mesh, np.zeros(7))


# --- inner products and norms ----------------------------------------------------


def test_grams_are_spd():
    for mesh in (interval_mesh(0, 1, 8), unit_square_mesh(3)):
        assert spd_check(h1_gram(mesh))
        assert spd_check(mass_matrix(mesh))
        assert spd_check(elementwise_h1_gram(mesh))
        G = friction_gram(mesh)
        assert spd_check(G)
        assert G.shape == (mesh.friction_nodes.size,) * 2


def test_elementwise_h1_gram_values():
    # two right triangles: measure 1/2 each, one shared edge of length sqrt(2)
    # between centroids sqrt(2)/3 apart, so weight 3
    G = elementwise_h1_gram(unit_square_mesh(1)).toarray()
    assert np.allclose(G, [[3.5, -3.0], [-3.0, 3.5]], rtol=0, atol=1e-14)
    for n in (2, 3, 16):
        mesh = unit_square_mesh(n)
        G = elementwise_h1_gram(mesh)
        row_sums = np.asarray(G.sum(axis=1)).ravel()
        assert np.allclose(row_sums, element_measures(mesh), rtol=0, atol=1e-12)
        # one pair per interior edge: n(n-1) horizontal, n(n-1) vertical, n^2 diagonal
        off = G - sp.diags(G.diagonal())
        assert off.count_nonzero() == 2 * (3 * n * n - 2 * n)
    n = 8
    h = 1.0 / n
    G = elementwise_h1_gram(interval_mesh(0, 1, n)).toarray()
    chain = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    chain[0, 0] = chain[-1, -1] = 1.0
    assert np.allclose(G, h * np.eye(n) + chain / h, rtol=1e-14, atol=0)


def loop_h1_gram(mesh):
    """Reference: the elementwise H1 Gram built facet by facet in Python."""
    mids = mesh.nodes[mesh.elements].mean(axis=1)
    G = np.diag(element_measures(mesh))
    owner = {}
    for j, elem in enumerate(mesh.elements):
        for facet in itertools.combinations(sorted(elem), mesh.dimension):
            if facet not in owner:
                owner[facet] = j
                continue
            a = owner.pop(facet)
            size = np.linalg.norm(mesh.nodes[facet[0]] - mesh.nodes[facet[-1]]) if len(facet) == 2 else 1.0
            w = size / np.linalg.norm(mids[a] - mids[j])
            G[[a, j], [a, j]] += w
            G[[a, j], [j, a]] -= w
    return G


def test_elementwise_h1_gram_matches_the_facet_loop():
    # the summation order differs, so equality holds to a few ulps of the largest entry
    for mesh in (interval_mesh(0, 2, 5), interval_mesh(0, 1, 32), unit_square_mesh(3), unit_square_mesh(16)):
        expected = loop_h1_gram(mesh)
        G = elementwise_h1_gram(mesh).toarray()
        assert np.abs(G - expected).max() <= 1e-14 * np.abs(expected).max()


def test_friction_gram_values():
    assert friction_gram(unit_square_mesh(1)).shape == (0, 0)
    n = 8
    h = 1.0 / n
    G = friction_gram(unit_square_mesh(n)).toarray()
    off = -1.0 / h + h / 6.0
    expected = (2.0 / h + 2.0 * h / 3.0) * np.eye(n - 1) + off * (
        np.eye(n - 1, k=1) + np.eye(n - 1, k=-1)
    )
    assert np.allclose(G, expected, rtol=1e-14, atol=0)


def test_v_norm_of_a_linear_function():
    # v = x vanishes at the Dirichlet end; |v|_V^2 = int v'^2 + int v^2 = 1 + 1/3
    mesh = interval_mesh(0, 1, 32)
    v = mesh.nodes[:, 0].copy()
    assert np.isclose(v_norm(mesh, v), np.sqrt(4.0 / 3.0), rtol=1e-12)


def test_free_full_roundtrip():
    mesh = unit_square_mesh(3)
    rng = np.random.default_rng(2)
    vf = rng.standard_normal(mesh.free_nodes.size)
    full = full_part(mesh, vf)
    assert np.allclose(free_part(mesh, full), vf)
    assert np.allclose(full[mesh.dirichlet_nodes], 0.0)


def test_reg_inner_uses_the_field_gram():
    mesh = interval_mesh(0, 1, 6)
    e = ellipticity_field(mesh, 1.0)
    a = np.ones(6)
    # <1, 1> in the elementwise H1-style gram reduces to the measure sum = 1
    val = reg_inner(e, a, a)
    assert val > 0
    f = friction_field(mesh, 0.2)
    assert np.isclose(reg_inner(f, np.ones(1), np.ones(1)), 1.0)
