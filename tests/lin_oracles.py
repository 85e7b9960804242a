"""Reference linear algebra that the HNF-based solver is checked against.

None of this is on a decision path; it is kept because each piece is an
independent route to a fact the solver also establishes:

* `hermite_normal_form`: a Hermite elimination of its own on [A | I], which
  reduces above each pivot as soon as it is placed, and returns the
  unimodular transform along with the Hermite form;
* `solve_by_hermite`: a Diophantine solve on that Hermite form, x = U^T y;
* `determinant`: fraction-free (Bareiss) elimination, used to check that
  transforms are unimodular and that lattice indices match HNF pivots;
* `identity` and `zeros`: the identity and the zero `IntMatrix`;
* `matmul`: the product of two `IntMatrix` values, for checking H = U*A;
* `smith_normal_form`: a second feasibility route for integer systems;
* `kernel_basis`: the integer kernel of a matrix, from the transform of a
  Hermite normal form.
"""

from __future__ import annotations

from czgraph.intlin import DimensionError, IntMatrix


def identity(n: int) -> IntMatrix:
    return IntMatrix(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])


def zeros(rows: int, cols: int) -> IntMatrix:
    return IntMatrix(rows, cols, [0] * (rows * cols))


def matmul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    if A.cols != B.rows:
        raise DimensionError(f"cannot multiply {A.rows}x{A.cols} by "
                             f"{B.rows}x{B.cols}")
    out = []
    for i in range(A.rows):
        ri = A.row(i)
        for j in range(B.cols):
            out.append(sum(ri[k] * B[k, j] for k in range(A.cols)))
    return IntMatrix(A.rows, B.cols, out)


def hermite_normal_form(A: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with H = U*A, U unimodular, H in row echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot).
    The nonzero rows of H are a basis of the row lattice of A.
    """
    m, n = A.rows, A.cols
    rows = [A.row(i) + [int(i == j) for j in range(m)] for i in range(m)]
    _hermite(rows, n)
    return (IntMatrix.from_rows([row[:n] for row in rows], cols=n),
            IntMatrix.from_rows([row[n:] for row in rows]))


def _hermite(rows: list[list[int]], n: int) -> int:
    """Row-style Hermite form on the first n columns, in place; returns the
    rank.  The pivot is the least nonzero entry in absolute value, the
    first such row on ties, and the rows above each pivot are reduced into
    [0, pivot) before the next column is eliminated.  Columns after n ride
    along."""
    m = len(rows)
    r = 0
    for c in range(n):
        while nz := [i for i in range(r, m) if rows[i][c]]:
            i0 = min(nz, key=lambda i: (abs(rows[i][c]), i))
            rows[r], rows[i0] = rows[i0], rows[r]
            if len(nz) == 1:
                break
            pivot = rows[r]
            for i in range(r + 1, m):
                q = rows[i][c] // pivot[c]
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], pivot)]
        if r < m and rows[r][c]:
            if rows[r][c] < 0:
                rows[r] = [-a for a in rows[r]]
            pivot = rows[r]
            for i in range(r):
                q = rows[i][c] // pivot[c]
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], pivot)]
            r += 1
    return r


def solve_by_hermite(A: IntMatrix, b) -> tuple[bool, tuple[int, ...] | None,
                                               list[list[int]]]:
    """(feasible, solution, Hermite basis of the columns of A) for A x = b.

    With H = U*A^T in Hermite form, b = y*H has at most one solution y, read
    off the pivots; then x = U^T y.
    """
    H, U = hermite_normal_form(A.transpose())
    basis = [row for row in H.to_rows() if any(row)]
    residual = [int(v) for v in b]
    y = []
    for row in basis:
        p = next(j for j, v in enumerate(row) if v)
        q, rem = divmod(residual[p], row[p])
        if rem:
            return False, None, basis
        residual = [a - q * v for a, v in zip(residual, row)]
        y.append(q)
    if any(residual):
        return False, None, basis
    return True, tuple(U.transpose().apply(y + [0] * (U.rows - len(y)))), basis


def kernel_basis(A: IntMatrix) -> list[list[int]]:
    """A basis of the integer kernel of A: with H = U*A^T in Hermite form,
    the rows of U beyond the rank of A."""
    H, U = hermite_normal_form(A.transpose())
    rank = sum(1 for i in range(H.rows) if any(H.row(i)))
    return [U.row(i) for i in range(rank, U.rows)]


def determinant(A: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise DimensionError("determinant of a non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    m = A.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, u, v) with u*a + v*b = g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def smith_normal_form(A: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form D = U*A*V with U, V unimodular and d_i | d_{i+1}.

    Diagonalizes by alternating row and column HNF passes (each pass is
    unimodular and they stabilize quickly at this scale), then repairs the
    divisibility chain with explicit 2x2 transforms.  Used as an independent
    cross-check of the HNF-based Diophantine solver.
    """
    U = identity(A.rows)
    V = identity(A.cols)
    D = A
    for _ in range(200):
        H, U1 = hermite_normal_form(D)
        U = matmul(U1, U)
        Ht, V1 = hermite_normal_form(H.transpose())
        V = matmul(V, V1.transpose())
        D = Ht.transpose()
        if _is_diagonal(D):
            break
    else:
        raise RuntimeError("Smith normal form did not diagonalize")

    Dr = D.to_rows()
    Ur = U.to_rows()
    Vr = V.to_rows()
    rank = sum(1 for i in range(min(A.rows, A.cols)) if Dr[i][i])
    # Repair d_i | d_{i+1}: for diag(a, b) with g = gcd, l = lcm,
    # [[u, v], [-b/g, a/g]] * diag(a, b) * [[1, -v*b/g], [1, u*a/g]] = diag(g, l).
    done = False
    while not done:
        done = True
        for i in range(rank - 1):
            a, b = Dr[i][i], Dr[i + 1][i + 1]
            if b % a == 0:
                continue
            done = False
            g, u, v = _xgcd(a, b)
            lcm = a * b // g
            Dr[i][i], Dr[i + 1][i + 1] = g, lcm
            row_a, row_b = Ur[i], Ur[i + 1]
            Ur[i] = [u * x + v * y for x, y in zip(row_a, row_b)]
            Ur[i + 1] = [(-b // g) * x + (a // g) * y for x, y in zip(row_a, row_b)]
            for r in range(A.cols):
                ci, cj = Vr[r][i], Vr[r][i + 1]
                Vr[r][i] = ci + cj
                Vr[r][i + 1] = (-v * b // g) * ci + (u * a // g) * cj
    return (IntMatrix.from_rows(Dr, cols=A.cols),
            IntMatrix.from_rows(Ur, cols=A.rows),
            IntMatrix.from_rows(Vr, cols=A.cols))


def _is_diagonal(D: IntMatrix) -> bool:
    return all(D[i, j] == 0
               for i in range(D.rows) for j in range(D.cols) if i != j)
