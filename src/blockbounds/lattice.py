"""Exact minima of positive definite quadratic forms over nonzero integer vectors.

The search is Fincke-Pohst enumeration on an LLL-reduced Gram matrix, both
on the denominator-cleared integer Gram matrix and both fed by the one
fraction-free kernel in ``exactmat``.  LLL reads mu and the squared
Gram-Schmidt lengths from its exact LDL decomposition (``_ldl``).  The
search reads the leading minors and the unscaled L entries of the reduced
matrix straight from the kernel and works on integers only: it scales every
partial sum by one common multiple of the denominators, so each coordinate
range is one integer square root, and it visits one vector of each +- pair.
No step uses floating point, and the search uses no ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

from .exactmat import (
    DomainError,
    InternalInvariantError,
    RationalMatrix,
    ShapeError,
    _bareiss,
    _cleared_int_rows,
    determinant,
    is_positive_definite,
)

DEFAULT_DIM_CAP = 24


class GramForm:
    """Symmetric positive definite rational matrix, checked on construction."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: RationalMatrix):
        if not matrix.is_symmetric():
            raise DomainError("Gram matrix must be symmetric")
        if not is_positive_definite(matrix):
            raise DomainError("Gram matrix must be positive definite")
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def __repr__(self) -> str:
        return f"GramForm(dim={self.dim})"


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


@dataclass(frozen=True)
class Certificate:
    """Outcome of an integral-positive-definiteness check."""

    ok: bool
    minimum: LatticeMinimum | None
    symmetrized: bool = False
    reason: str = ""


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
    reduction and swap decision is exact.
    """
    n = len(g)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    max_steps = 1000 + 100 * n * n
    k = 1
    steps = 0
    while k < n and steps < max_steps:
        steps += 1
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
    reduced = transform^t . gram . transform, recomputed exactly."""
    matrix = gram.matrix if isinstance(gram, GramForm) else GramForm(gram).matrix
    u, _ = _lll_rows(_cleared_int_rows(matrix)[0])
    transform = RationalMatrix(u).transpose()
    if abs(determinant(transform)) != 1:
        raise InternalInvariantError("LLL transform is not unimodular")
    reduced = transform.transpose() @ matrix @ transform
    return transform, reduced


def _ldl(m: list[list[int]]) -> tuple[list[Fraction], list[list[Fraction]]]:
    """m = L D L^t with L unit lower triangular, for a symmetric integer m; exact.

    Read off the swap-free fraction-free kernel: with D_0 = 1 and D_k the
    leading principal minors, d_i = D_{i+1} / D_i and L_ji = m'_ji / D_{i+1}.
    d stops at the first d_i <= 0, and the columns of L from there on are
    left zero.
    """
    n = len(m)
    a = [list(row) for row in m]
    pivots, _ = _bareiss(a, n, pivoting=False)
    minors = [1] + [a[i][i] for i in pivots]
    d = [Fraction(minors[i + 1], minors[i]) for i in pivots]
    lo = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    for i in pivots:
        if d[i] > 0:
            for j in range(i + 1, n):
                lo[j][i] = Fraction(a[j][i], minors[i + 1])
    return d, lo


def _normalize_sign(vec: tuple[int, ...]) -> tuple[int, ...]:
    for x in vec:
        if x:
            return vec if x > 0 else tuple(-v for v in vec)
    return vec


def form_minimum(
    gram: GramForm | RationalMatrix, max_dim: int = DEFAULT_DIM_CAP
) -> LatticeMinimum:
    """Exact global minimum of x G x^t over Z^dim \\ {0}, with witness."""
    matrix = gram.matrix if isinstance(gram, GramForm) else GramForm(gram).matrix
    if matrix.rows > max_dim:
        raise DomainError(
            f"dimension {matrix.rows} exceeds the enumeration cap {max_dim}; "
            "raise it with --max-dim (max_dim= in Python)"
        )
    return _form_minimum_cached(matrix)


@lru_cache(maxsize=128)
def _form_minimum_cached(matrix: RationalMatrix) -> LatticeMinimum:
    n = matrix.rows
    ints, s = _cleared_int_rows(matrix)
    u, m = _lll_rows(ints)
    # With D_0 = 1, D_k the leading minors and a_ji the unscaled L entries of
    # the reduced rows, x m x^t = sum_i (D_{i+1} y_i + S_i)^2 / (D_i D_{i+1})
    # where S_i = sum_{j>i} a_ji y_j.  Every value below is scaled by
    # w = lcm_i(D_i D_{i+1}), so term i is the integer c_i t^2.
    a = [list(row) for row in m]
    pivots, _ = _bareiss(a, n, pivoting=False)
    minors = [1] + [a[i][i] for i in pivots]
    if len(pivots) < n or minors[-1] <= 0:
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
    # defensive exact re-check of the reported witness in original coordinates
    wm = RationalMatrix([witness])
    if (wm @ matrix @ wm.transpose())[0, 0] != value:
        raise InternalInvariantError(
            f"witness {witness} does not attain the minimum {value}"
        )
    return LatticeMinimum(value=value, witness=witness, num_minimizers=len(minimizers))


def _nonpositive_direction(sym: RationalMatrix):
    """Integer vector with x W x^t <= 0 for symmetric non-PD W, else None.

    Walks the LDL decomposition; at the first pivot d_i <= 0 the row vector
    solving x L = e_i takes the form value d_i, and clearing denominators
    scales it to an integer witness with value m^2 d_i <= 0.
    """
    ints, s = _cleared_int_rows(sym)
    d, lo = _ldl(ints)
    i = len(d) - 1
    if d[i] > 0:
        return None
    x = [Fraction(0)] * sym.rows
    x[i] = Fraction(1)
    for j in range(i - 1, -1, -1):
        x[j] = -sum(x[t] * lo[t][j] for t in range(j + 1, i + 1))
    m = lcm(*(v.denominator for v in x))
    vec = tuple(int(v * m) for v in x)
    return vec, m * m * d[i] / s, i


def certify_integral_positive_definite(
    w: RationalMatrix, max_dim: int = DEFAULT_DIM_CAP
) -> Certificate:
    """Check x W x^t >= 1 for all nonzero integer x.

    Asymmetric input is replaced by (W + W^t)/2, which defines the same
    quadratic form; the certificate records that this happened.
    """
    if not w.is_square():
        raise ShapeError("weight matrix must be square")
    symmetrized = not w.is_symmetric()
    sym = (w + w.transpose()).scale(Fraction(1, 2)) if symmetrized else w
    bad = _nonpositive_direction(sym)
    if bad is not None:
        vec, val, k = bad
        return Certificate(
            ok=False,
            minimum=None,
            symmetrized=symmetrized,
            reason=(
                f"not positive definite: integer vector {vec} has form value "
                f"{val} <= 0 (leading principal minor {k + 1} fails)"
            ),
        )
    m = form_minimum(sym, max_dim=max_dim)
    if m.value < 1:
        return Certificate(
            ok=False,
            minimum=m,
            symmetrized=symmetrized,
            reason=f"integer vector {m.witness} has form value {m.value} < 1",
        )
    return Certificate(ok=True, minimum=m, symmetrized=symmetrized)
