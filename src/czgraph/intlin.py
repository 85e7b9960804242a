"""Exact integer linear algebra: the Hermite normal form, lattice bases and
membership, and Diophantine systems with certificates.

Everything here is fraction-free elimination over Python ints with explicit
unimodular transform tracking.  The matrices that show up in practice are
tiny (a few dozen rows), so clarity wins over asymptotics; there are no
modular or floating-point shortcuts anywhere.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence


class DimensionError(ValueError):
    pass


class IntMatrix:
    """Dense integer matrix, row-major, immutable."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[int]):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise DimensionError(
                f"entry count {len(entries)} does not match shape {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(map(int, entries))

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = [list(r) for r in rows]
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise DimensionError("ragged rows")
        else:
            width = cols or 0
        flat = [x for row in data for x in row]
        return cls(len(data), width, flat)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    def __getitem__(self, idx: tuple[int, int]) -> int:
        i, j = idx
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(idx)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[int]:
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def to_rows(self) -> list[list[int]]:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        e, c = self.entries, self.cols
        return IntMatrix(self.cols, self.rows, [x for j in range(c) for x in e[j::c]])

    def apply(self, vec: Sequence[int]) -> list[int]:
        if len(vec) != self.cols:
            raise DimensionError(f"vector of length {len(vec)} against {self.cols} columns")
        v = [int(x) for x in vec]
        e, c = self.entries, self.cols
        return [sum(map(operator.mul, e[i * c:(i + 1) * c], v)) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_rows()!r})"


def hermite_normal_form(A: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with H = U*A, U unimodular, H in row echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot).
    The nonzero rows of H are a basis of the row lattice of A.
    """
    m, n = A.rows, A.cols
    H = A.to_rows()
    U = IntMatrix.identity(m).to_rows()

    def sub(i: int, j: int, q: int) -> None:
        if q:
            H[i] = [a - q * b for a, b in zip(H[i], H[j])]
            U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    r = 0
    for c in range(n):
        while True:
            nz = [i for i in range(r, m) if H[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(H[i][c]), i))
            if i0 != r:
                H[r], H[i0] = H[i0], H[r]
                U[r], U[i0] = U[i0], U[r]
            finished = True
            for i in range(r + 1, m):
                if H[i][c]:
                    sub(i, r, H[i][c] // H[r][c])
                    if H[i][c]:
                        finished = False
            if finished:
                break
        if r < m and H[r][c]:
            if H[r][c] < 0:
                H[r] = [-a for a in H[r]]
                U[r] = [-a for a in U[r]]
            for i in range(r):
                sub(i, r, H[i][c] // H[r][c])
            r += 1
    return IntMatrix.from_rows(H, cols=n), IntMatrix.from_rows(U, cols=m)


def hnf_basis(vectors: Iterable[Sequence[int]], width: int | None = None) -> list[list[int]]:
    """Nonzero rows of the HNF of the given row vectors (a lattice basis)."""
    vecs = [list(v) for v in vectors]
    if not vecs:
        return []
    H, _ = hermite_normal_form(IntMatrix.from_rows(vecs, cols=width))
    return [row for row in H.to_rows() if any(row)]


@dataclass(frozen=True)
class DiophantineResult:
    """Outcome of an integer linear system A x = b.

    When feasible, `solution` satisfies A*solution = b exactly and
    `kernel_basis` generates the full integer kernel of A, so the solution
    set is solution + Z-span(kernel_basis).
    """

    feasible: bool
    solution: tuple[int, ...] | None
    kernel_basis: tuple[tuple[int, ...], ...]


def _pivot_positions(H: IntMatrix) -> list[tuple[int, int]]:
    out = []
    for i in range(H.rows):
        row = H.row(i)
        for j, v in enumerate(row):
            if v:
                out.append((i, j))
                break
    return out


def solve_diophantine(A: IntMatrix, b: Sequence[int]) -> DiophantineResult:
    """Decide b in the integer column span of A, with witness and kernel.

    Works from the HNF of A^T: the pivot rows give forced back-substitution
    coefficients, the transform rows beyond the rank give the kernel.
    """
    if len(b) != A.rows:
        raise DimensionError(f"rhs length {len(b)} does not match {A.rows} rows")
    H, U = hermite_normal_form(A.transpose())
    pivots = _pivot_positions(H)
    rank = len(pivots)
    kernel = tuple(tuple(U.row(i)) for i in range(rank, A.cols))

    residual = [int(x) for x in b]
    y = [0] * A.cols
    for i, p in pivots:
        h = H[i, p]
        if residual[p] % h != 0:
            return DiophantineResult(False, None, kernel)
        q = residual[p] // h
        y[i] = q
        if q:
            row = H.row(i)
            residual = [a - q * v for a, v in zip(residual, row)]
    if any(residual):
        return DiophantineResult(False, None, kernel)
    # b = y*H = y*U*A^T, hence x = U^T y solves A x = b.
    x = U.transpose().apply(y)
    return DiophantineResult(True, tuple(x), kernel)


def lattice_membership(generators: Sequence[Sequence[int]],
                       target: Sequence[int]) -> tuple[bool, tuple[int, ...] | None]:
    """Decide target in Z-span(generators); on success return coefficients.

    All vectors must have equal length.  The coefficient vector is indexed
    like `generators` and satisfies sum(c_i * g_i) = target exactly.
    """
    gens = [list(g) for g in generators]
    tgt = [int(t) for t in target]
    if not gens:
        return (not any(tgt)), (() if not any(tgt) else None)
    width = len(gens[0])
    if any(len(g) != width for g in gens) or len(tgt) != width:
        raise DimensionError("generator/target length mismatch")
    A = IntMatrix.from_rows(gens).transpose()
    result = solve_diophantine(A, tgt)
    if not result.feasible:
        return False, None
    return True, result.solution
