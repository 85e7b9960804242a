import random
from itertools import product

import pytest

from czgraph.intlin import (DimensionError, IntMatrix, hnf_basis,
                            lattice_membership, solve_diophantine)

from lin_oracles import (determinant, hermite_normal_form, identity,
                         kernel_basis, matmul, smith_normal_form,
                         solve_by_hermite, zeros)

L3_GENS = [[2, 2, 0, 2], [0, 4, 0, 0], [0, 0, 2, 2], [0, 0, 0, 4]]


def test_hnf_identity():
    I = identity(4)
    H, U = hermite_normal_form(I)
    assert H == I and U == I


def test_hnf_zero_matrix():
    Z = zeros(3, 3)
    H, U = hermite_normal_form(Z)
    assert H == Z
    assert abs(determinant(U)) == 1


def test_hnf_lattice_index():
    # index of the lattice in Z^4 is the product of the HNF pivots; checked
    # against an independent fraction-free determinant
    A = IntMatrix.from_rows(L3_GENS)
    H, U = hermite_normal_form(A)
    pivots = [H[i, i] for i in range(4)]
    index = 1
    for p in pivots:
        index *= p
    assert index == 64
    assert abs(determinant(A)) == 64
    assert abs(determinant(U)) == 1


def test_hnf_reproduces_row_space():
    rng = random.Random(7)
    for _ in range(40):
        rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(rng.randint(1, 5))]
        A = IntMatrix.from_rows(rows)
        H, U = hermite_normal_form(A)
        assert matmul(U, A) == H
        assert abs(determinant(U)) == 1
        # same row lattice: each basis passes membership against the other
        hb = hnf_basis(rows)
        # the solver's elimination of A^T leaves the same Hermite basis
        assert solve_diophantine(A.transpose(), rows[0]).basis == hb
        for row in hb:
            member, _ = lattice_membership(rows, row)
            assert member
        for row in rows:
            member, _ = lattice_membership(hb if hb else [[0] * 4], row)
            assert member


def test_hnf_shape_properties():
    rng = random.Random(11)
    for _ in range(30):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
        H, _ = hermite_normal_form(A)
        pivots = []
        for i in range(m):
            row = H.row(i)
            nz = [j for j, v in enumerate(row) if v]
            if nz:
                pivots.append((i, nz[0]))
                assert row[nz[0]] > 0
        cols = [c for _, c in pivots]
        assert cols == sorted(cols) and len(set(cols)) == len(cols)
        for i, c in pivots:
            for r in range(i):
                assert 0 <= H[r, c] < H[i, c]
        # zero rows come last
        nonzero = [i for i in range(m) if any(H.row(i))]
        assert nonzero == list(range(len(nonzero)))


def test_solve_identity():
    A = identity(3)
    res = solve_diophantine(A, [5, -2, 7])
    assert res.feasible and list(res.solution) == [5, -2, 7]
    assert kernel_basis(A) == []


def test_solve_l3_target_infeasible():
    # columns are the doubled generators; the target forces a half-integer
    A = IntMatrix.from_rows(L3_GENS).transpose()
    res = solve_diophantine(A, [-2, -2, 0, 0])
    assert not res.feasible


def test_solve_single_cell():
    res = solve_diophantine(IntMatrix.from_rows([[4]]), [-2])
    assert not res.feasible
    res = solve_diophantine(IntMatrix.from_rows([[4]]), [-8])
    assert res.feasible and res.solution == (-2,)


def test_solution_and_kernel_replay():
    rng = random.Random(23)
    for _ in range(120):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
        x = [rng.randint(-5, 5) for _ in range(n)]
        b = A.apply(x)
        res = solve_diophantine(A, b)
        assert res.feasible
        assert A.apply(res.solution) == b
        kernel = kernel_basis(A)
        for v in kernel:
            assert A.apply(v) == [0] * m
        # shifting by any kernel vector stays a solution
        for v in kernel:
            shifted = [a + c for a, c in zip(res.solution, v)]
            assert A.apply(shifted) == b


def test_solve_matches_hermite_oracle_on_random_systems():
    """The echelon solve, which never reduces above a pivot, gives the
    Hermite oracle's verdict, solution and basis.  Where A has a kernel the
    solution is not unique, so this also checks that both eliminations pick
    the same pivots."""
    rng = random.Random(67)
    seen = {"feasible": 0, "infeasible": 0, "kernel": 0}
    for _ in range(400):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = IntMatrix.from_rows([[rng.randint(-4, 4) if rng.random() < 0.7 else 0
                                  for _ in range(n)] for _ in range(m)])
        if rng.random() < 0.5:
            b = A.apply([rng.randint(-5, 5) for _ in range(n)])
        else:
            b = [rng.randint(-6, 6) for _ in range(m)]
        result = solve_diophantine(A, b)
        assert (result.feasible, result.solution, result.basis) == solve_by_hermite(A, b)
        seen["feasible" if result.feasible else "infeasible"] += 1
        seen["kernel"] += bool(kernel_basis(A))
    assert all(seen.values()), seen


def test_brute_force_is_one_sided_oracle():
    # brute-force feasible within the coefficient box implies solver feasible
    rng = random.Random(31)
    box = range(-10, 11)
    for _ in range(60):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        A = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
        b = [rng.randint(-6, 6) for _ in range(m)]
        brute = any(A.apply(list(xs)) == b for xs in product(box, repeat=n))
        res = solve_diophantine(A, b)
        if brute:
            assert res.feasible
        if res.feasible:
            assert A.apply(res.solution) == b


def test_lattice_membership_empty_generators():
    member, coeffs = lattice_membership([], [0, 0])
    assert member and coeffs == ()
    member, coeffs = lattice_membership([], [1, 0])
    assert not member and coeffs is None


def test_lattice_membership_scaled_axis():
    member, _ = lattice_membership([[4, 0]], [-2, 0])
    assert not member
    member, coeffs = lattice_membership([[1]], [-2])
    assert member and coeffs == (-2,)


def test_lattice_membership_mismatched_lengths():
    with pytest.raises(DimensionError):
        lattice_membership([[1, 0], [0, 1, 2]], [1, 1])


def _random_unimodular(rng, n):
    U = identity(n).to_rows()
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-2, 2)
            U[i] = [a + q * b for a, b in zip(U[i], U[j])]
    return U


def test_lattice_membership_invariant_under_unimodular_change():
    rng = random.Random(47)
    for _ in range(40):
        k = rng.randint(1, 3)
        d = rng.randint(1, 4)
        gens = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(k)]
        target = [rng.randint(-6, 6) for _ in range(d)]
        member, _ = lattice_membership(gens, target)
        U = _random_unimodular(rng, k)
        mixed = [[sum(U[i][j] * gens[j][c] for j in range(k)) for c in range(d)]
                 for i in range(k)]
        member2, _ = lattice_membership(mixed, target)
        assert member == member2


def test_smith_normal_form_agrees_with_solver():
    rng = random.Random(61)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)])
        D, U, V = smith_normal_form(A)
        assert matmul(matmul(U, A), V) == D
        assert abs(determinant(U)) == 1
        assert abs(determinant(V)) == 1
        diag = [D[i, i] for i in range(min(m, n))]
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            elif b:
                assert b % a == 0
        # independent feasibility route: D z = U b with z = V^-1 x
        b = [rng.randint(-5, 5) for _ in range(m)]
        ub = U.apply(b)
        snf_feasible = True
        for i in range(m):
            d = D[i, i] if i < min(m, n) else 0
            if d == 0:
                if ub[i] != 0:
                    snf_feasible = False
            elif ub[i] % d != 0:
                snf_feasible = False
        assert snf_feasible == solve_diophantine(A, b).feasible


def test_dimension_checks():
    with pytest.raises(DimensionError):
        IntMatrix(2, 2, [1, 2, 3])
    with pytest.raises(DimensionError):
        solve_diophantine(identity(2), [1, 2, 3])
    with pytest.raises(DimensionError):
        matmul(identity(2), identity(3))


def test_non_integers_are_refused_not_truncated():
    """Entries, vectors, right-hand sides and targets must be exactly ints:
    a float, a bool or an int subclass raises, where int() would truncate."""
    with pytest.raises(TypeError, match="expected an integer, got 1.9"):
        IntMatrix(1, 2, [1.9, True])
    with pytest.raises(TypeError, match="expected an integer, got True"):
        IntMatrix(1, 2, [1, True])
    with pytest.raises(TypeError, match="expected an integer, got 1.0"):
        solve_diophantine(IntMatrix.from_rows([[2]]), [1.0])
    with pytest.raises(TypeError, match="expected an integer, got 0.5"):
        IntMatrix.from_rows([[2]]).apply([0.5])
    with pytest.raises(TypeError, match="expected an integer, got True"):
        lattice_membership([[1]], [True])


def test_transpose_and_apply_match_index_loops():
    rng = random.Random(41)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (1, 5), (5, 1)]
    shapes += [(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(40)]
    for rows, cols in shapes:
        A = IntMatrix(rows, cols, [rng.randint(-9, 9) for _ in range(rows * cols)])
        T = A.transpose()
        assert (T.rows, T.cols) == (cols, rows)
        assert T.entries == tuple(A[i, j] for j in range(cols) for i in range(rows))
        vec = [rng.randint(-9, 9) for _ in range(cols)]
        assert A.apply(vec) == [sum(A[i, k] * vec[k] for k in range(cols))
                                for i in range(rows)]
