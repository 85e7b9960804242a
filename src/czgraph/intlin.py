"""Exact integer linear algebra: lattice bases and membership, and
Diophantine systems with certificates.

Every decision runs one fraction-free elimination over Python ints,
`_echelon` (Cohen, A Course in Computational Algebraic Number Theory, 2.4),
with no modular or floating-point shortcuts, since certificates replay
exactly.  It brings rows to echelon form with positive pivots and carries
any columns past the eliminated ones along: `solve_diophantine` eliminates
[A^T | I] and decides by forward substitution on the echelon rows, reading
a solution off the transform.  Only a Hermite basis needs the entries above
each pivot reduced (Schrijver, Theory of Linear and Integer Programming,
4.1), and `_reduce_above` does that for `hnf_basis` and for
`DiophantineResult.basis` when it is read.  The curve-level systems are the
largest in use: A^T is 224 x 56 at genus 8.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


class DimensionError(ValueError):
    pass


def _ints(values: Iterable[int]) -> tuple[int, ...]:
    """The values as a tuple, each exactly an int: a bool, a float or an int
    subclass raises TypeError rather than being truncated."""
    t = tuple(values)
    if not set(map(type, t)) <= {int}:
        bad = next(x for x in t if type(x) is not int)
        raise TypeError(f"expected an integer, got {bad!r}")
    return t


class IntMatrix:
    """Dense integer matrix, row-major, immutable; every entry is exactly an int."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[int]):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise DimensionError(
                f"entry count {len(entries)} does not match shape {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.entries = _ints(entries)

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
        v = _ints(vec)
        e, c = self.entries, self.cols
        return [sum(map(operator.mul, e[i * c:(i + 1) * c], v)) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_rows()!r})"


def _echelon(rows: list[list[int]], n: int) -> int:
    """Bring `rows` to row echelon form on their first n columns, in place,
    with positive pivots, and return the rank.

    Columns after n ride along through every row operation, so rows of
    [A | I] come out as [H | U] with H = U*A.  Rows beyond the rank are zero
    on the first n columns.  The entries above each pivot are left as they
    are; `_reduce_above` turns the pivot rows into Hermite form.
    """
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
            r += 1
    return r


def _reduce_above(rows: list[list[int]]) -> None:
    """Reduce the entries above each pivot of nonzero echelon rows into
    [0, pivot), in place: row-style Hermite form.

    Each step subtracts a multiple of a pivot row from a row above it, so
    the rows are multiplied by a unimodular upper-triangular matrix and
    span the same lattice.
    """
    c = -1
    for r, pivot in enumerate(rows):
        c += 1
        while not pivot[c]:
            c += 1
        for i in range(r):
            q = rows[i][c] // pivot[c]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], pivot)]


def hnf_basis(vectors: Iterable[Sequence[int]]) -> list[list[int]]:
    """Nonzero rows of the HNF of the given row vectors (a lattice basis)."""
    A = IntMatrix.from_rows(vectors)
    rows = A.to_rows()
    rows = rows[:_echelon(rows, A.cols)]
    _reduce_above(rows)
    return rows


@dataclass(frozen=True)
class DiophantineResult:
    """Outcome of an integer linear system A x = b.

    When feasible, `solution` satisfies A*solution = b exactly.  `echelon`
    holds the nonzero rows of an echelon form of A^T, which decided the
    system.  `basis` reduces them, when first read, to the nonzero rows of
    the HNF of A^T: the Hermite basis of the lattice spanned by A's columns,
    whether or not b lies in it.
    """

    feasible: bool
    solution: tuple[int, ...] | None
    echelon: list[list[int]]

    @cached_property
    def basis(self) -> list[list[int]]:
        rows = [row[:] for row in self.echelon]
        _reduce_above(rows)
        return rows


def solve_diophantine(A: IntMatrix, b: Sequence[int]) -> DiophantineResult:
    """Decide b in the integer column span of A, with a witness.

    One elimination of [A^T | I] gives H = U*A^T in echelon form.  Forward
    substitution on the pivot rows of H forces the coefficients y with
    b = y*H, and then x = U^T y solves A x = b, accumulated from the
    transform rows as y is found.  Reducing H to Hermite form would multiply
    the pivot rows of [H | U] by a unimodular matrix E and y by E^-1, which
    leaves x = y*U as it is, so the solve never reduces.
    """
    if len(b) != A.rows:
        raise DimensionError(f"rhs length {len(b)} does not match {A.rows} rows")
    residual = list(_ints(b))
    m, n, e = A.rows, A.cols, A.entries
    rows = [list(e[j::n]) + [int(i == j) for i in range(n)] for j in range(n)]
    rank = _echelon(rows, m)
    echelon = [row[:m] for row in rows[:rank]]

    x = [0] * n
    for row in rows[:rank]:
        p = next(j for j, v in enumerate(row) if v)
        q, rem = divmod(residual[p], row[p])
        if rem:
            return DiophantineResult(False, None, echelon)
        if q:
            residual = [a - q * v for a, v in zip(residual, row)]
            x = [a + q * u for a, u in zip(x, row[m:])]
    if any(residual):
        return DiophantineResult(False, None, echelon)
    return DiophantineResult(True, tuple(x), echelon)


def lattice_membership(generators: Sequence[Sequence[int]],
                       target: Sequence[int]) -> tuple[bool, tuple[int, ...] | None]:
    """Decide target in Z-span(generators); on success return coefficients.

    All vectors must have equal length.  The coefficient vector is indexed
    like `generators` and satisfies sum(c_i * g_i) = target exactly.
    """
    gens = [list(g) for g in generators]
    tgt = _ints(target)
    if any(len(g) != len(tgt) for g in gens):
        raise DimensionError("generator/target length mismatch")
    A = IntMatrix(len(tgt), len(gens), [g[i] for i in range(len(tgt)) for g in gens])
    result = solve_diophantine(A, tgt)
    return result.feasible, result.solution
