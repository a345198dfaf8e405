"""LP feasibility with certificates, against a brute-force basic-solution
oracle, plus the geometric reductions built on it (hull intersection,
subset separation, flats, cones)."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest

import tvlab.lp as lp_module
from tvlab.geometry import Polytope
from tvlab.lp import (
    LinearProgram,
    UnboundedError,
    certify,
    hulls_intersect,
    kirchberger_separated,
    lp_feasible,
    nontrivial_zero_in_cone,
)
from tvlab.transversal import _coefficient_rows


def _brute_feasible(A, b, tol=1e-7):
    """Exhaustive basic-solution oracle for Ax = b, x >= 0."""
    m, n = A.shape
    for cols in itertools.combinations(range(n), min(m, n)):
        sub = A[:, cols]
        x = np.linalg.lstsq(sub, b, rcond=None)[0]
        if np.linalg.norm(sub @ x - b) < tol and np.all(x >= -tol):
            return True
    return bool(np.linalg.norm(b) < tol)


def _check_certificate(lp, cert, tol=1e-9):
    """Re-substitute the witness or Farkas functional."""
    A = np.asarray(lp.rows, dtype=float)
    b = np.asarray(lp.rhs, dtype=float)
    if cert.feasible:
        x = np.asarray(cert.witness)
        assert np.all(x[: lp.n_nonneg] >= -tol)
        assert np.linalg.norm(A @ x - b) <= tol * (1 + np.linalg.norm(b))
    else:
        y = np.asarray(cert.farkas)
        yA = y @ A
        assert np.all(yA[: lp.n_nonneg] <= tol)
        if lp.n_free:
            assert np.all(np.abs(yA[lp.n_nonneg :]) <= tol)
        assert y @ b > tol


# -- lp_feasible --------------------------------------------------------------


def test_single_variable_feasible():
    lp = LinearProgram(1, 0, ((1.0,),), (1.0,))
    cert = lp_feasible(lp)
    assert cert.feasible and cert.witness[0] == pytest.approx(1.0)
    _check_certificate(lp, cert)


def test_single_variable_infeasible():
    lp = LinearProgram(1, 0, ((1.0,),), (-1.0,))
    cert = lp_feasible(lp)
    assert not cert.feasible
    _check_certificate(lp, cert)


def test_exact_path_matches():
    lp = LinearProgram(1, 0, ((1.0,),), (1.0,))
    cert = lp_feasible(lp, exact=True)
    assert cert.feasible and cert.exact
    assert cert.witness_exact[0] == Fraction(1)
    lp = LinearProgram(1, 0, ((1.0,),), (-1.0,))
    cert = lp_feasible(lp, exact=True)
    assert not cert.feasible and cert.exact
    assert cert.farkas_exact is not None


def test_tiny_pivots_escalate_to_exact():
    # every pivot entry sits below the absolute float pivot tolerance, so
    # float phase 1 sees a spurious unbounded ray; the exact path answers
    lp = LinearProgram(1, 0, ((9e-12,), (9e-12,)), (1.0, 1.0))
    cert = lp_feasible(lp)
    assert cert.feasible and cert.exact
    assert cert.witness_exact[0] * Fraction(9e-12) == 1
    assert cert.witness[0] == pytest.approx(1.0 / 9e-12)


def test_float_infeasible_verdict_is_confirmed_exactly():
    # y = 1 has y'A = 9e-12, inside the float tolerance, so the float tableau
    # calls this program infeasible; x = 1/9e-12 solves it exactly
    cert = lp_feasible(LinearProgram(1, 0, ((9e-12,),), (1.0,)))
    assert cert.feasible and cert.exact
    assert cert.witness_exact[0] * Fraction(9e-12) == 1


def test_program_without_rows_assigns_every_variable():
    for exact in (False, True):
        cert = lp_feasible(LinearProgram(2, 0, (), ()), exact=exact)
        assert cert.feasible and cert.witness == (0.0, 0.0)
    assert cert.witness_exact == (Fraction(0), Fraction(0))
    cert = lp_feasible(LinearProgram(1, 1, (), ()), exact=True)
    assert len(cert.witness) == 2


def test_program_holds_read_only_arrays():
    rows = np.array([[1.0, 2.0]])
    lp = LinearProgram(1, 1, rows, [3.0], objective=(1.0, 0.0))
    rows[0, 0] = 5.0  # the program keeps its own copy
    assert lp.rows.shape == (1, 2) and lp.rows[0, 0] == 1.0
    assert lp.rhs.shape == (1,) and lp.objective.shape == (2,)
    with pytest.raises(ValueError):
        lp.rows[0, 0] = 0.0
    assert LinearProgram(3, 0, (), ()).rows.shape == (0, 3)
    with pytest.raises(ValueError):
        LinearProgram(1, 0, np.array([[1j]]), (1.0,))  # no silent real part


def test_agrees_with_brute_force_oracle():
    rng = np.random.default_rng(0)
    for trial in range(300):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        A = np.round(rng.standard_normal((m, n)) * 2, 1)
        b = np.round(rng.standard_normal(m) * 2, 1)
        lp = LinearProgram(n, 0, tuple(map(tuple, A)), tuple(b))
        cert = lp_feasible(lp)
        assert cert.feasible == _brute_feasible(A, b), f"trial {trial}"
        _check_certificate(lp, cert)


def test_exact_agrees_with_float_on_rationals():
    rng = np.random.default_rng(1)
    for _ in range(60):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        A = np.round(rng.standard_normal((m, n)), 1)
        b = np.round(rng.standard_normal(m), 1)
        lp = LinearProgram(n, 0, tuple(map(tuple, A)), tuple(b))
        assert lp_feasible(lp).feasible == lp_feasible(lp, exact=True).feasible


def test_free_variables():
    # x free with x = -2 is fine; nonneg would not be
    lp = LinearProgram(0, 1, ((1.0,),), (-2.0,))
    cert = lp_feasible(lp)
    assert cert.feasible and cert.witness[0] == pytest.approx(-2.0)
    lp = LinearProgram(1, 1, ((1.0, 1.0),), (-3.0,))
    cert = lp_feasible(lp)
    assert cert.feasible
    _check_certificate(lp, cert)


def test_objective_and_unbounded():
    # min -x with only x >= 0, x <= nothing: unbounded below
    lp = LinearProgram(2, 0, ((1.0, -1.0),), (0.0,), objective=(-1.0, 0.0))
    with pytest.raises(UnboundedError):
        lp_feasible(lp)
    # bounded objective returns the optimum
    lp = LinearProgram(1, 0, ((1.0,),), (1.0,), objective=(1.0,))
    cert = lp_feasible(lp)
    assert cert.feasible and cert.witness[0] == pytest.approx(1.0)


def test_malformed_program_rejected():
    with pytest.raises(ValueError):
        LinearProgram(1, 0, ((1.0, 2.0),), (1.0,))  # row width mismatch
    with pytest.raises(ValueError):
        LinearProgram(1, 0, ((np.nan,),), (1.0,))
    # 2.0 variables matched a row of width 2 and were stored as a float
    for counts in ((2.0, 0), (1, True), (3, -1)):
        with pytest.raises(ValueError, match="n_nonneg|n_free"):
            LinearProgram(*counts, ((1.0, 1.0),), (1.0,))


# -- hulls_intersect -----------------------------------------------------------


def test_intervals_sharing_endpoint():
    res = hulls_intersect(np.array([[0.0], [1.0]]), np.array([[1.0], [2.0]]))
    assert res.feasible
    assert res.point[0] == pytest.approx(1.0)


def test_intervals_disjoint():
    res = hulls_intersect(np.array([[0.0], [1.0]]), np.array([[2.0], [3.0]]))
    assert not res.feasible and res.certificate.exact
    assert res.point is None


def test_triangle_contains_point():
    tri = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]])
    res = hulls_intersect(tri, np.array([[1.0, 1.0]]))
    assert res.feasible
    # barycentric oracle: solve for the unique weights and confirm they are convex
    M = np.vstack([tri.T, np.ones(3)])
    w = np.linalg.solve(M, np.array([1.0, 1.0, 1.0]))
    assert np.all(w >= -1e-12) and np.allclose(w @ tri, [1.0, 1.0])
    assert np.allclose(res.point, [1.0, 1.0])


def test_hulls_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(60):
        U = rng.standard_normal((int(rng.integers(1, 5)), 2))
        V = rng.standard_normal((int(rng.integers(1, 5)), 2)) + rng.standard_normal() * 2
        assert hulls_intersect(U, V).feasible == hulls_intersect(V, U).feasible


def test_hulls_accepts_polytopes_and_complex_points():
    p = Polytope("complex", np.array([[0j], [1 + 0j]]))
    q = Polytope("complex", np.array([[0.5 + 0j]]))
    assert hulls_intersect(p, q).feasible
    r = Polytope("complex", np.array([[0.5 + 1j]]))  # same real part, shifted imag
    assert not hulls_intersect(p, r).feasible


def test_hulls_dimension_mismatch():
    with pytest.raises(ValueError):
        hulls_intersect(np.zeros((1, 2)), np.zeros((1, 3)))


# -- kirchberger_separated -----------------------------------------------------


def test_kirchberger_singletons():
    v = kirchberger_separated(np.array([[0.0]]), np.array([[1.0]]))
    assert v.separated


def test_kirchberger_straddle():
    v = kirchberger_separated(np.array([[0.0], [2.0]]), np.array([[1.0]]))
    assert not v.separated
    assert v.violating_u == (0, 1) and v.violating_v == (0,)
    assert v.common_point[0] == pytest.approx(1.0)


def test_kirchberger_equals_full_hull_verdict():
    # subset verdicts agree with the full-hull LP on random instances
    rng = np.random.default_rng(3)
    for _ in range(80):
        k = int(rng.integers(1, 4))
        nu = int(rng.integers(1, 6))
        nv = int(rng.integers(1, 11 - nu))
        U = np.round(rng.standard_normal((nu, k)), 2)
        V = np.round(rng.standard_normal((nv, k)), 2)
        assert kirchberger_separated(U, V).separated == (
            not hulls_intersect(U, V).feasible
        )


def test_kirchberger_reads_complex_points_in_r2m():
    # i and -i share their real part but are distinct points of C^1 = R^2
    assert kirchberger_separated(np.array([[1j]]), np.array([[-1j]])).separated
    v = kirchberger_separated(np.array([[1j], [-1j]]), np.array([[0j]]))
    assert not v.separated and np.allclose(v.common_point, [0.0, 0.0])
    # points of C^1 and of R^1 lie in R^2 and R^1: no common dimension
    with pytest.raises(ValueError):
        kirchberger_separated(np.array([[1j]]), np.array([[-1.0]]))


# -- coefficient programs ------------------------------------------------------


def test_flat_meets_segment():
    seg = Polytope("complex", np.array([[1 + 0j, 0j], [-1 + 0j, 0j]]))
    rows, rhs = _coefficient_rows(seg.vertices[None], np.array([1, 0], dtype=complex), 0.0)
    lam, farkas = next(certify(rows, rhs))
    assert lam is not None
    point = np.asarray(lam[0], dtype=float) @ seg.vertices
    assert abs(point[0]) < 1e-9


def test_flat_misses_singleton():
    pt = Polytope("complex", np.array([[1 + 0j, 0j]]))
    rows, rhs = _coefficient_rows(pt.vertices[None], np.array([1, 0], dtype=complex), 0.0)
    lam, farkas = next(certify(rows, rhs))
    assert lam is None and farkas is not None


def test_flat_conjugation_convention():
    # <z, a> = z * conj(a); a = i and rhs = i force -i*z = i, i.e. z = -1
    seg = Polytope("complex", np.array([[-2 + 0j], [2 + 0j]]))
    rows, rhs = _coefficient_rows(seg.vertices[None], np.array([1j]), 1j)
    lam, farkas = next(certify(rows, rhs))
    assert lam is not None
    point = np.asarray(lam[0], dtype=float) @ seg.vertices
    assert point[0] == pytest.approx(-1.0)


# -- nontrivial_zero_in_cone ---------------------------------------------------


def test_cone_symmetric_cancellation():
    res = nontrivial_zero_in_cone([("a", np.array([[1.0]])), ("b", np.array([[-1.0]]))])
    assert res.certificate.feasible
    weights = dict(res.group_weights)
    assert weights["a"] == pytest.approx(0.5) and weights["b"] == pytest.approx(0.5)


def test_cone_same_halfline_infeasible():
    res = nontrivial_zero_in_cone([("a", np.array([[1.0]])), ("b", np.array([[2.0]]))])
    assert not res.certificate.feasible and res.certificate.exact


def test_cone_planted_combination():
    # plant lam over three groups and present shifted generators that cancel
    rng = np.random.default_rng(4)
    for _ in range(30):
        g1 = rng.standard_normal((3, 4))
        g2 = rng.standard_normal((2, 4))
        planted = np.concatenate([rng.random(3), rng.random(2)])
        planted /= planted.sum()
        shift = planted[:3] @ g1 + planted[3:] @ g2
        # subtracting the weighted mean from every generator plants the zero
        res = nontrivial_zero_in_cone([("a", g1 - shift), ("b", g2 - shift)])
        assert res.certificate.feasible
        lam = np.concatenate([dict(res.weights)["a"], dict(res.weights)["b"]])
        gens = np.vstack([g1 - shift, g2 - shift])
        assert np.linalg.norm(lam @ gens) < 1e-9
        assert lam.sum() == pytest.approx(1.0)


# -- dev-only oracle -------------------------------------------------------------


def _highs_outcome(lp):
    """('infeasible' | 'unbounded' | 'optimal', value) from HiGHS."""
    from scipy.optimize import linprog

    bounds = [(0, None)] * lp.n_nonneg + [(None, None)] * lp.n_free
    zero = np.zeros(lp.n_vars)
    res = linprog(zero, A_eq=lp.rows, b_eq=lp.rhs, bounds=bounds, method="highs")
    assert res.status in (0, 2), res.message
    if res.status == 2:
        return "infeasible", None
    if lp.objective is None:
        return "optimal", None
    res = linprog(lp.objective, A_eq=lp.rows, b_eq=lp.rhs, bounds=bounds, method="highs")
    # the region is feasible, so HiGHS's "infeasible or unbounded" is unbounded
    assert res.status in (0, 2, 3), res.message
    return ("optimal", res.fun) if res.status == 0 else ("unbounded", None)


def _tvlab_outcome(lp, exact):
    try:
        cert = lp_feasible(lp, exact=exact)
    except UnboundedError:
        return "unbounded", None
    if not cert.feasible:
        assert cert.exact  # every infeasible verdict is exact
        return "infeasible", None
    if lp.objective is None:
        return "optimal", None
    if exact:
        value = sum(Fraction(c) * x for c, x in zip(lp.objective, cert.witness_exact))
        return "optimal", float(value)
    return "optimal", float(lp.objective @ np.asarray(cert.witness))


def test_agrees_with_highs_oracle():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(11)
    seen = set()
    for trial in range(300):
        m = int(rng.integers(1, 4))
        n_free = int(rng.integers(0, 3))
        n_nonneg = int(rng.integers(0 if n_free else 1, 5))
        n = n_nonneg + n_free
        rows = np.round(rng.standard_normal((m, n)) * 2, 1)
        rhs = np.round(rng.standard_normal(m) * 2, 1)
        objective = np.round(rng.standard_normal(n) * 2, 1) if trial % 2 else None
        lp = LinearProgram(n_nonneg, n_free, rows, rhs, objective=objective)
        want, value = _highs_outcome(lp)
        seen.add(want)
        for exact in (False, True):
            got, got_value = _tvlab_outcome(lp, exact)
            assert got == want, f"trial {trial} exact={exact}"
            if value is not None:
                assert got_value == pytest.approx(value, abs=1e-7), f"trial {trial}"
    assert seen == {"infeasible", "unbounded", "optimal"}


# -- lock-step tableau ----------------------------------------------------------


def test_pivot_leaves_rows_with_a_zero_in_the_pivot_column_untouched():
    # row 1 has a zero in the pivot column; subtracting 0 * (-0.5) = -0.0
    # from its -0.0 would turn it into +0.0
    T = np.array([[[2.0, -1.0, 4.0], [0.0, -0.0, -3.0], [1.0, 1.0, 5.0]]])
    untouched = T[0, 1].tobytes()
    basis = np.array([[0, 1]])
    lp_module._pivot(T, basis, np.array([0]), np.array([0]), T[[0], :, 0].copy())
    assert T[0, 1].tobytes() == untouched
    assert T[0, 0].tolist() == [1.0, -0.5, 2.0] and T[0, 2].tolist() == [0.0, 1.5, 3.0]
    assert basis.tolist() == [[0, 1]]


def _masked_pivot(T, basis, i, j, col):
    """Reference pivot whose update touches only the rows with a nonzero in
    the pivot column, through masked multiply and subtract ufuncs."""
    e = np.arange(len(T))
    prow = T[e, i] / col[e, i][:, None]
    T[e, i] = prow
    col[e, i] = 0
    mask = (col != 0)[:, :, None]
    prod = np.multiply(col[:, :, None], prow[:, None, :], out=None, where=mask)
    np.subtract(T, prod, out=T, where=mask)
    basis[e, i] = j


def test_float_pivot_matches_the_masked_update_bit_for_bit():
    # small float and complex tableaux seeded with signed zeros, in either
    # part of a complex entry, also in the pivot column and the pivot row:
    # the dense update gives the masked one's bits; on Fraction tableaux it
    # gives the masked one's values
    pytest.importorskip("hypothesis")
    from hypothesis import given
    from hypothesis import strategies as st
    from hypothesis.extra import numpy as hnp

    entries = st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=True),
    )
    fractions = st.one_of(st.just(Fraction(0)), st.fractions(-1000, 1000, max_denominator=64))
    nonzero = st.floats(1e-6, 1e3).flatmap(lambda v: st.sampled_from([v, -v]))

    @given(data=st.data())
    def check(dtype, data):
        B = data.draw(st.integers(1, 4))
        rows = data.draw(st.integers(2, 5))
        cols = data.draw(st.integers(2, 6))
        shape = (B, rows, cols)
        if dtype is object:
            T = data.draw(hnp.arrays(object, shape, elements=fractions))
        else:
            T = data.draw(hnp.arrays(np.float64, shape, elements=entries)).astype(dtype)
            if dtype is np.complex128:
                T.imag = data.draw(hnp.arrays(np.float64, shape, elements=entries))
        i = np.array(data.draw(st.lists(st.integers(0, rows - 1), min_size=B, max_size=B)))
        j = np.array(data.draw(st.lists(st.integers(0, cols - 1), min_size=B, max_size=B)))
        e = np.arange(B)
        pivots = data.draw(st.lists(nonzero, min_size=B, max_size=B))
        if dtype is object:
            T[e, i, j] = [Fraction(v) for v in pivots]
        else:
            T.real[e, i, j] = pivots
        basis = np.zeros((B, rows), dtype=int)
        want, want_basis = T.copy(), basis.copy()
        _masked_pivot(want, want_basis, i, j, want[e, :, j].copy())
        lp_module._pivot(T, basis, i, j, T[e, :, j].copy())
        if dtype is object:
            assert T.tolist() == want.tolist()
        else:
            assert T.tobytes() == want.tobytes()
        assert basis.tolist() == want_basis.tolist()

    for dtype in (np.float64, np.complex128, object):
        check(dtype)


def test_lock_step_batch_matches_single_solves():
    # programs of one shape, some feasible and some not, solved as one batch
    # and one at a time: same status and bitwise the same witness or Farkas
    # row; with a cost, some leave the loop unbounded while others pivot on.
    # Under Bland's rule from the second pass, the stayers of a pass where
    # others leave also enter by it
    rng = np.random.default_rng(4)
    A = np.round(rng.standard_normal((40, 3, 6)) * 2, 1)
    b = np.round(rng.standard_normal((40, 3)) * 2, 1)
    c = np.round(rng.standard_normal((40, 6)), 1)
    bland = dataclasses.replace(lp_module._FLOAT, bland_after=1)
    for ar, cost in itertools.product((lp_module._FLOAT, bland), (None, c)):
        status, x, y, basis = lp_module._solve_standard(A, b, cost, ar)
        assert {"feasible", "infeasible"} <= set(status)
        assert cost is None or "unbounded" in set(status)
        for e in range(len(A)):
            one_cost = None if cost is None else cost[e : e + 1]
            one = lp_module._solve_standard(A[e : e + 1], b[e : e + 1], one_cost, ar)
            assert one[0][0] == status[e]
            assert one[3][0].tolist() == basis[e].tolist()
            if status[e] == "feasible":
                assert one[1][0].tobytes() == x[e].tobytes()
            if status[e] == "infeasible":
                assert one[2][0].tobytes() == y[e].tobytes()


def test_float_infeasible_verdict_is_certified_from_the_basis(monkeypatch):
    # x >= 0 with x1 + x2 = -1 and x1 - x2 = 3: the rows are sign-flipped for
    # phase 1, and the certificate must hold for the original rows
    lp = LinearProgram(2, 0, ((1.0, 1.0), (1.0, -1.0)), (-1.0, 3.0))
    arithmetics = []
    solve = lp_module._solve_standard

    def spy(A, b, c, ar):
        arithmetics.append(ar)
        return solve(A, b, c, ar)

    monkeypatch.setattr(lp_module, "_solve_standard", spy)
    cert = lp_feasible(lp)
    assert not cert.feasible and cert.exact
    assert arithmetics == [lp_module._FLOAT]  # no Fraction tableau was run
    y = cert.farkas_exact
    assert all(isinstance(v, Fraction) for v in y)
    yA = [sum(yi * Fraction(a) for yi, a in zip(y, col)) for col in lp.rows.T]
    assert all(v <= 0 for v in yA)
    assert sum(yi * Fraction(bi) for yi, bi in zip(y, lp.rhs)) > 0
    # disjoint hulls in the plane: certified the same way
    arithmetics.clear()
    U = np.array([[0.1, 0.2], [0.7, -0.3], [0.4, 0.9]])
    res = hulls_intersect(U, np.array([[3.1, 2.0], [2.6, 3.3]]))
    assert not res.feasible and res.certificate.exact
    assert arithmetics == [lp_module._FLOAT]


# sha256 over status, x, y and basis of every float _solve_standard batch of
# a seeded pool: planted d=2 checks, checks of Gaussian witnesses in C^1 and
# budgeted direction searches, with 3 to 6 sets on seeds 0-3; recorded at
# commit c16bbb2 with numpy 2.4.6 / OpenBLAS 0.3.31.  It checks that the
# float simplex keeps those bits
FLOAT_SOLVE_DIGEST = "434b24b5a1d7708ca0654b7535910878405c1aa546c6aaefab4d897d01ae21f3"


def test_float_solves_keep_recorded_bits(monkeypatch):
    from tvlab.consistency import (
        ConsistencyConfig,
        ConsistencyWitness,
        check_dependency_consistency,
    )
    from tvlab.harness import GenSpec, gen_instance, witness_from_transversal
    from tvlab.transversal import TransversalConfig, find_complex_transversal

    batches = []
    solve = lp_module._solve_standard

    def spy(A, b, c, ar):
        out = solve(A, b, c, ar)
        if ar is lp_module._FLOAT:
            batches.append(out)
        return out

    monkeypatch.setattr(lp_module, "_solve_standard", spy)
    for seed in range(4):
        for n in (3, 4, 5, 6):
            cfg = ConsistencyConfig(samples=16, seed=seed)
            inst = gen_instance(GenSpec(d=2, n_sets=n, planted=True, seed=seed))
            check_dependency_consistency(inst.family, witness_from_transversal(inst, inst.planted), cfg)
            fam = gen_instance(GenSpec(d=2, n_sets=n, seed=seed)).family
            rng = np.random.default_rng([seed, 1])
            pts = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
            w = ConsistencyWitness(1, pts, {l: i for i, l in enumerate(fam.labels)})
            check_dependency_consistency(fam, w, cfg)
            find_complex_transversal(fam, TransversalConfig(starts=2, iters=100, seed=seed))
    h = hashlib.sha256()
    for status, x, y, basis in batches:
        h.update(",".join(status.tolist()).encode())
        for a in (x, y, basis):
            h.update(a.tobytes())
    assert len(batches) == 105 and h.hexdigest() == FLOAT_SOLVE_DIGEST
