"""Exact minima of positive definite quadratic forms over nonzero integer vectors.

The search is Fincke-Pohst enumeration on an LLL-reduced Gram matrix, both
on the denominator-cleared integer Gram matrix.  Every LDL decomposition is
read through ``exactmat._ldl_rows``: LLL takes mu and the squared
Gram-Schmidt lengths from it (``_ldl``), and the search takes the reduced
matrix's leading minors and unscaled L entries and works on integers only,
scaling every partial sum by one common multiple of the denominators so
that each coordinate range is one integer square root.  No step uses
floating point.

Searches are cached on the primitive integer form (the cleared rows over
their gcd): c G has minimum c min(G) with the same minimizers, so all
positive multiples of one form share one search.  A ``GramForm`` keeps the
cleared rows it checked for the search, as does a certified weight; C^{-1}
arrives as ``CartanData.inverse_rows``, unchecked, since C's checks imply its
own.  The witness is re-checked on a copy of the rows the search started from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .exactmat import (
    DomainError,
    InternalInvariantError,
    RationalMatrix,
    _cleared_int_rows,
    _dot,
    _ldl_rows,
    _minors_positive,
    determinant,
)

DEFAULT_DIM_CAP = 24


class GramForm:
    """A symmetric positive definite matrix as ``ints`` / ``scale``, checked on construction."""

    __slots__ = ("ints", "scale")

    def __init__(self, matrix: RationalMatrix):
        if not matrix.is_symmetric():
            raise DomainError("Gram matrix must be symmetric")
        self.ints, self.scale = _cleared_int_rows(matrix)
        if not _minors_positive([row[:] for row in self.ints]):
            raise DomainError("Gram matrix must be positive definite")


def _check_cap(what: str, size: int, max_dim: int):
    """Refuse a search, or a weight matrix before it is built, whose ``what``
    is ``size`` > ``max_dim``, the enumeration cap."""
    if size > max_dim:
        raise DomainError(
            f"{what} {size} exceeds the enumeration cap {max_dim}; "
            "raise it with --max-dim (max_dim= in Python)"
        )


def _gram_form(ints: list[list[int]], scale: int) -> GramForm:
    """GramForm ints / scale, unchecked: known symmetric positive definite by the
    caller's elimination, or as C^{-1} by C's checks."""
    form = object.__new__(GramForm)
    form.ints, form.scale = ints, scale
    return form


@dataclass(frozen=True)
class LatticeMinimum:
    """Certified minimum of x G x^t over nonzero integer vectors.

    ``witness`` is sign-normalized (first nonzero coordinate positive) and is
    the reverse-lexicographically smallest minimizer, so e.g. the identity
    form reports e_1.  ``num_minimizers`` counts minimizers up to sign.
    """

    value: Fraction
    witness: tuple[int, ...]
    num_minimizers: int


def _row_op(g: list[list[int]], u: list[list[int]], k: int, j: int, r: int):
    """b_k <- b_k - r*b_j, applied to the Gram rows/cols and to u."""
    u[k] = [a - r * b for a, b in zip(u[k], u[j])]
    g[k] = [a - r * b for a, b in zip(g[k], g[j])]
    for row in g:
        row[k] = row[k] - r * row[j]


def _swap(g: list[list[int]], u: list[list[int]], k: int):
    u[k], u[k - 1] = u[k - 1], u[k]
    g[k], g[k - 1] = g[k - 1], g[k]
    for row in g:
        row[k], row[k - 1] = row[k - 1], row[k]


def _lll_rows(g: list[list[int]]):
    """LLL with Lovasz constant 3/4 on the integer Gram rows ``g``, in place;
    returns (coords u, reduced gram) with g' = u g u^t.

    At step k, mu and the squared Gram-Schmidt lengths are read from the LDL
    decomposition of the leading (k+1) x (k+1) block, so every size
    reduction and swap decision is exact.  It terminates: a swap at k scales
    the leading minor of order k, a positive integer, by less than 3/4 and
    leaves the other leading minors as they are.
    """
    n = len(g)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    k = 1
    while k < n:
        d, mu = _ldl([row[: k + 1] for row in g[: k + 1]])
        for j in range(k - 1, -1, -1):
            r = round(mu[k][j])
            if r:
                _row_op(g, u, k, j, r)
                for t in range(j):
                    mu[k][t] -= r * mu[j][t]
                mu[k][j] -= r
        if d[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * d[k - 1]:
            k += 1
        else:
            _swap(g, u, k)
            k = max(k - 1, 1)
    return u, g


def lll_reduce(gram: GramForm | RationalMatrix):
    """Return (transform, reduced) with transform unimodular and
    reduced = transform^t . gram . transform, the LLL's own integer rows
    over the form's scale."""
    form = gram if isinstance(gram, GramForm) else GramForm(gram)
    u, g = _lll_rows([row[:] for row in form.ints])
    transform = RationalMatrix(u).transpose()
    if abs(determinant(transform)) != 1:
        raise InternalInvariantError("LLL transform is not unimodular")
    return transform, RationalMatrix([[Fraction(x, form.scale) for x in row] for row in g])


def _ldl(m: list[list[int]]) -> tuple[list[Fraction], list[list[Fraction]]]:
    """m = L D L^t with L unit lower triangular, for a symmetric integer m; exact.

    LLL's adapter on ``_ldl_rows``, which eliminates m in place: d_i =
    D_{i+1} / D_i and L_ji = a_ji / D_{i+1}.  d stops at the first d_i <= 0,
    and the columns of L from there on are left zero.
    """
    n = len(m)
    minors, a = _ldl_rows(m)
    d = [Fraction(minors[i + 1], minors[i]) for i in range(len(minors) - 1)]
    lo = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    for i, di in enumerate(d):
        if di > 0:
            for j in range(i + 1, n):
                lo[j][i] = Fraction(a[j][i], minors[i + 1])
    return d, lo


def _normalize_sign(vec: tuple[int, ...]) -> tuple[int, ...]:
    """``vec`` or its negative, whichever has a positive first nonzero
    coordinate; ``vec`` is a minimizer, so it is nonzero."""
    for x in vec:
        if x:
            return vec if x > 0 else tuple(-v for v in vec)


def form_minimum(
    gram: GramForm | RationalMatrix, max_dim: int = DEFAULT_DIM_CAP
) -> LatticeMinimum:
    """Exact global minimum of x G x^t over Z^dim \\ {0}, with witness.

    The search runs on the primitive integer form of G (the cleared rows a
    ``GramForm`` keeps, over their gcd), so all positive multiples of one
    form share a single cached search; the value is scaled back exactly.
    """
    form = gram if isinstance(gram, GramForm) else GramForm(gram)
    ints, s = form.ints, form.scale
    _check_cap("dimension", len(ints), max_dim)
    g = gcd(*(x for row in ints for x in row))
    found = _form_minimum_cached(RationalMatrix([[x // g for x in row] for row in ints]))
    return LatticeMinimum(
        value=found.value * g / s,
        witness=found.witness,
        num_minimizers=found.num_minimizers,
    )


@lru_cache(maxsize=128)
def _form_minimum_cached(matrix: RationalMatrix) -> LatticeMinimum:
    n = matrix.rows
    ints, s = _cleared_int_rows(matrix)
    start = [row[:] for row in ints]
    u, m = _lll_rows(ints)
    # With D_0 = 1, D_k the leading minors and a_ji the unscaled L entries of
    # the reduced rows, x m x^t = sum_i (D_{i+1} y_i + S_i)^2 / (D_i D_{i+1})
    # where S_i = sum_{j>i} a_ji y_j.  Every value below is scaled by
    # w = lcm_i(D_i D_{i+1}), so term i is the integer c_i t^2.
    minors, a = _ldl_rows([list(row) for row in m])
    if len(minors) <= n or minors[-1] <= 0:
        raise InternalInvariantError("LLL-reduced Gram matrix is not positive definite")
    pivot = minors[1:]
    w = lcm(*(minors[i] * minors[i + 1] for i in range(n)))
    coef = [w // (minors[i] * minors[i + 1]) for i in range(n)]
    cols = [[(j, a[j][i]) for j in range(i + 1, n) if a[j][i]] for i in range(n)]

    best = w * min(m[i][i] for i in range(n))
    minimizers: set[tuple[int, ...]] = set()
    y = [0] * n

    def original(yvec) -> tuple[int, ...]:
        return tuple(
            sum(yvec[i] * u[i][c] for i in range(n) if yvec[i]) for c in range(n)
        )

    def descend(level: int, acc: int, top: bool):
        # ``top``: every coordinate above ``level`` is zero, so S_i = 0 and
        # only y_i >= 0 is visited (y_0 >= 1), one vector of each +- pair
        nonlocal best, minimizers
        sigma = 0
        for j, aji in cols[level]:
            if y[j]:
                sigma += aji * y[j]
        c, dl = coef[level], pivot[level]
        r = isqrt((best - acc) // c)
        lo_i = (0 if level else 1) if top else -((r + sigma) // dl)
        for yi in range(lo_i, (r - sigma) // dl + 1):
            t = dl * yi + sigma
            acc2 = acc + c * t * t
            if acc2 > best:
                continue
            y[level] = yi
            if level == 0:
                if acc2 < best:
                    best = acc2
                    minimizers = {_normalize_sign(original(y))}
                else:
                    minimizers.add(_normalize_sign(original(y)))
            else:
                descend(level - 1, acc2, top and not yi)
        y[level] = 0

    descend(n - 1, 0, True)
    scaled, rem = divmod(best, w)
    if rem:
        raise InternalInvariantError(
            f"minimum {best}/{w} of an integer form is not an integer"
        )
    value = Fraction(scaled, s)
    witness = min(minimizers, key=lambda v: tuple(reversed(v)))
    # defensive exact re-check of the reported witness on the starting rows
    if _dot(witness, [_dot(row, witness) for row in start]) != scaled:
        raise InternalInvariantError(
            f"witness {witness} does not attain the minimum {value}"
        )
    return LatticeMinimum(value=value, witness=witness, num_minimizers=len(minimizers))
