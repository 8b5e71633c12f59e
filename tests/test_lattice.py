"""Integer-lattice normal forms checked against sympy."""

import itertools

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from gaborzak.lattice import (
    hermite_normal_form as hnf,
    hnf_basis,
    kernel_of_form,
    lattice_contains,
    smith_normal_form as snf,
)


def _random_int_matrices(rng, count, max_dim=4, max_entry=6):
    for _ in range(count):
        r = rng.integers(1, max_dim + 1)
        c = rng.integers(1, max_dim + 1)
        yield rng.integers(-max_entry, max_entry + 1, size=(r, c))


def test_hnf_matches_sympy_row_lattice():
    rng = np.random.default_rng(7)
    for A in _random_int_matrices(rng, 40):
        H, T = hnf([list(row) for row in A])
        H = np.array(H, dtype=object)
        # T is unimodular and T A = (H padded with zero rows)
        T = np.array(T, dtype=object)
        assert abs(round(float(sympy.Matrix(T.tolist()).det()))) == 1
        prod = T @ A
        padded = np.zeros_like(prod)
        if len(H):
            padded[: len(H)] = H
        assert np.array_equal(prod, padded)
        # row lattice must match sympy's HNF of the same matrix
        M = sympy.Matrix(A.tolist())
        if M.rank() > 0:
            ours = sympy.Matrix([list(map(int, row)) for row in H])
            theirs = hermite_normal_form(M.T).T
            # compare row spans via mutual membership
            for row in theirs.tolist():
                assert lattice_contains([list(map(int, r)) for r in H], row)
            for row in ours.tolist():
                rows = [list(map(int, r)) for r in theirs.tolist()]
                assert lattice_contains(rows, row)


def test_snf_matches_sympy():
    rng = np.random.default_rng(11)
    for A in _random_int_matrices(rng, 40):
        U, d, V = snf([list(row) for row in A])
        U, V = np.array(U, dtype=object), np.array(V, dtype=object)
        prod = U @ A @ V
        D = np.zeros_like(prod)
        for i, dv in enumerate(d):
            D[i, i] = dv
        assert np.array_equal(prod, D)
        assert abs(round(float(sympy.Matrix(U.tolist()).det()))) == 1
        assert abs(round(float(sympy.Matrix(V.tolist()).det()))) == 1
        # divisibility chain d1 | d2 | ...
        for a, b in zip(d, d[1:]):
            assert b % a == 0
        expect = smith_normal_form(sympy.Matrix(A.tolist()))
        theirs = [int(expect[i, i]) for i in range(min(expect.shape)) if expect[i, i] != 0]
        assert [abs(x) for x in d] == [abs(x) for x in theirs]


def test_kernel_of_form():
    basis = kernel_of_form([6, 10, 15])
    assert len(basis) == 2
    for row in basis:
        assert 6 * row[0] + 10 * row[1] + 15 * row[2] == 0
    # the kernel contains (5, -3, 0) and (0, 3, -2)
    assert lattice_contains(basis, [5, -3, 0])
    assert lattice_contains(basis, [0, 3, -2])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=1, max_size=3))
def test_kernel_of_form_is_exactly_the_orthogonal_lattice(v):
    basis = kernel_of_form(v)
    for x in itertools.product(range(-3, 4), repeat=len(v)):
        dot = sum(a * b for a, b in zip(x, v))
        assert lattice_contains(basis, list(x)) == (dot == 0), (v, x)


def test_lattice_contains_exactness():
    basis = [[2, 0], [0, 3]]
    assert lattice_contains(basis, [4, -3])
    assert not lattice_contains(basis, [1, 0])
    assert not lattice_contains(basis, [0, 1])


def test_hnf_basis_canonical():
    b1 = hnf_basis([[1, 2], [3, 4]])
    b2 = hnf_basis([[3, 4], [1, 2]])
    assert b1 == b2
    assert hnf_basis([[0, 0]]) == []
