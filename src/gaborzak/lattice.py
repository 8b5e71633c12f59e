"""Exact integer-lattice linear algebra: Hermite and Smith normal forms with
unimodular transforms, lattice membership, and kernels of single linear forms.
Membership and kernels are read off the Hermite form and its transform; the
form is unique for a given lattice, so no second elimination is needed.

All arithmetic uses Python integers, so there is no overflow; matrices here
are tiny (dimension = twice the configuration dimension).
"""

from __future__ import annotations

__all__ = [
    "hermite_normal_form",
    "hnf_basis",
    "smith_normal_form",
    "lattice_contains",
    "kernel_of_form",
]


def _swap_rows(m: list[list[int]], i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def hermite_normal_form(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style Hermite normal form.

    Returns (H, T) with T unimodular and T @ rows == H, H in row-echelon form
    with positive pivots and reduced entries above each pivot.  Zero rows of H
    sink to the bottom.
    """
    h = [list(map(int, r)) for r in rows]
    n = len(h)
    m = len(h[0]) if n else 0
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    pivot_row = 0
    for col in range(m):
        # find a nonzero entry in this column at or below pivot_row
        nz = [i for i in range(pivot_row, n) if h[i][col] != 0]
        if not nz:
            continue
        # Euclidean elimination within the column
        while len(nz) > 1:
            nz.sort(key=lambda i: abs(h[i][col]))
            i0 = nz[0]
            for i in nz[1:]:
                q = h[i][col] // h[i0][col]
                h[i] = [a - q * b for a, b in zip(h[i], h[i0])]
                t[i] = [a - q * b for a, b in zip(t[i], t[i0])]
            nz = [i for i in range(pivot_row, n) if h[i][col] != 0]
        i0 = nz[0]
        _swap_rows(h, pivot_row, i0)
        _swap_rows(t, pivot_row, i0)
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-a for a in h[pivot_row]]
            t[pivot_row] = [-a for a in t[pivot_row]]
        # reduce entries above the pivot
        piv = h[pivot_row][col]
        for i in range(pivot_row):
            q = h[i][col] // piv
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[pivot_row])]
                t[i] = [a - q * b for a, b in zip(t[i], t[pivot_row])]
        pivot_row += 1
    return h, t


def hnf_basis(rows: list[list[int]]) -> list[list[int]]:
    """Hermite-reduced basis (nonzero rows only) of the lattice generated by
    the given integer vectors."""
    h, _ = hermite_normal_form(rows)
    return [r for r in h if any(r)]


def lattice_contains(basis: list[list[int]], vec: list[int]) -> bool:
    """Exact membership of an integer vector in the integer span of ``basis``:
    adding it leaves the (unique) Hermite basis unchanged."""
    return hnf_basis([*basis, vec]) == hnf_basis(basis)


def smith_normal_form(
    rows: list[list[int]],
) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """Smith normal form with transforms.

    Returns (U, d, V) with U (n x n) and V (m x m) unimodular and
    U @ A @ V = diag(d), the divisibility chain d[0] | d[1] | ... padded with
    zeros up to min(n, m).
    """
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    m = len(a[0]) if n else 0
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def col_op(j0: int, j1: int, q: int) -> None:
        # column j1 -= q * column j0  (applied to A and V)
        for r in a:
            r[j1] -= q * r[j0]
        for r in v:
            r[j1] -= q * r[j0]

    def col_swap(j0: int, j1: int) -> None:
        for r in a:
            r[j0], r[j1] = r[j1], r[j0]
        for r in v:
            r[j0], r[j1] = r[j1], r[j0]

    def row_op(i0: int, i1: int, q: int) -> None:
        a[i1] = [x - q * y for x, y in zip(a[i1], a[i0])]
        u[i1] = [x - q * y for x, y in zip(u[i1], u[i0])]

    def row_swap(i0: int, i1: int) -> None:
        _swap_rows(a, i0, i1)
        _swap_rows(u, i0, i1)

    rank_bound = min(n, m)
    k = 0
    while k < rank_bound:
        # locate a nonzero pivot in the untouched block
        pivot = None
        for i in range(k, n):
            for j in range(k, m):
                if a[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        row_swap(k, pivot[0])
        col_swap(k, pivot[1])
        while True:
            # clear column k with row ops
            for i in range(k + 1, n):
                if a[i][k]:
                    if a[i][k] % a[k][k] != 0 and abs(a[i][k]) < abs(a[k][k]):
                        row_swap(k, i)
                    q = a[i][k] // a[k][k]
                    row_op(k, i, q)
            if any(a[i][k] for i in range(k + 1, n)):
                continue
            # clear row k with column ops
            for j in range(k + 1, m):
                if a[k][j]:
                    if a[k][j] % a[k][k] != 0 and abs(a[k][j]) < abs(a[k][k]):
                        col_swap(k, j)
                    q = a[k][j] // a[k][k]
                    col_op(k, j, q)
            if any(a[i][k] for i in range(k + 1, n)) or any(
                a[k][j] for j in range(k + 1, m)
            ):
                continue
            # enforce divisibility d_k | a[i][j] for the trailing block
            offender = None
            for i in range(k + 1, n):
                for j in range(k + 1, m):
                    if a[i][j] % a[k][k] != 0:
                        offender = (i, j)
                        break
                if offender:
                    break
            if offender is None:
                break
            # add the offending row to row k and restart the pivot cleanup
            a[k] = [x + y for x, y in zip(a[k], a[offender[0]])]
            u[k] = [x + y for x, y in zip(u[k], u[offender[0]])]
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]
        k += 1

    d = [a[i][i] if i < n and i < m else 0 for i in range(rank_bound)]
    return u, d, v


def kernel_of_form(v: list[int]) -> list[list[int]]:
    """Integer basis of {x in Z^m : <x, v> = 0} for an integer vector v: the
    rows of the unimodular T with T v = (g, 0, ..., 0) after the first, or
    every row of T = I when v = 0."""
    h, t = hermite_normal_form([[c] for c in v])
    return t[1:] if h and h[0][0] else t
