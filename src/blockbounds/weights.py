"""Construction and search of weight matrices.

A weight matrix W is a symmetric rational matrix whose quadratic form is at
least 1 on every nonzero integer vector.  Every constructor in this module
certifies its output through ``certified_weight``, the one certifier; a
failed certification here is a bug, not an input problem.  The one weight
built without a search of its own is the ``inverse-cartan`` candidate
C^{-1}/m: its certificate is the search for m, the minimum of C^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

from .exactmat import (
    CartanData,
    DomainError,
    InternalInvariantError,
    RationalMatrix,
    _cleared_int_rows,
    _ldl_rows,
    kron,
    trace_pairing,
)
from .lattice import (
    DEFAULT_DIM_CAP,
    LatticeMinimum,
    _check_cap,
    _gram_form,
    form_minimum,
)
from .ntheory import closure


class CertificationError(ValueError):
    """A constructed weight matrix failed its integral-PD certificate."""


def compose(a, b) -> tuple[int, ...]:
    """(a o b)(i) = a[b[i]]."""
    return tuple(a[x] for x in b)


def _identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


class PermutationAction:
    """A permutation group on {0..degree-1}, enumerated on construction."""

    __slots__ = ("degree", "generators", "elements")

    def __init__(self, degree: int, generators):
        gens = []
        for g in generators:
            g = tuple(g)
            if sorted(g) != list(range(degree)):
                raise DomainError(f"{g} is not a permutation of degree {degree}")
            gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        elems = closure(_identity_perm(degree), lambda a: [compose(g, a) for g in gens])
        self.elements = tuple(sorted(elems))

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1


@dataclass(frozen=True)
class WeightMatrix:
    matrix: RationalMatrix
    certificate: LatticeMinimum
    provenance: str


def _of_degree(action: PermutationAction | None, l: int) -> PermutationAction | None:
    """``action``, refused unless it is None or permutes ``l`` columns."""
    if action is not None and action.degree != l:
        raise DomainError(f"action degree {action.degree} does not match l = {l}")
    return action


def _nonpositive_direction(minors: list[int], a: list[list[int]], s: int):
    """(x, x W x^t, i) for symmetric non-PD W from ``_ldl_rows`` of s W: x
    primitive and integral with value <= 0, and D_{i+1} <= 0 the first
    failing leading minor.  x L = e_i gives the value d_i; D_i x is integral
    (cofactors), so back substitution on the kernel's integer rows,
    X_j = -(sum_t X_t a_tj) / D_{j+1} from X_i = D_i, divides exactly."""
    i = len(minors) - 2
    x = [0] * len(a)
    x[i] = minors[i]
    for j in range(i - 1, -1, -1):
        acc = sum(x[t] * a[t][j] for t in range(j + 1, i + 1))
        xj, rem = divmod(-acc, minors[j + 1])
        if rem:
            raise InternalInvariantError(f"witness coordinate {j} is not integral")
        x[j] = xj
    g = gcd(*x)
    vec = tuple(v // g for v in x)
    return vec, Fraction(vec[i] ** 2 * minors[i + 1], minors[i] * s), i


def certified_weight(
    matrix: RationalMatrix, provenance: str, max_dim: int = DEFAULT_DIM_CAP
) -> WeightMatrix:
    """``matrix`` certified x W x^t >= 1 on nonzero integer x: one elimination
    decides symmetric W's positive definiteness, or a refusal's witness, and
    the lattice search on the same rows decides the rest."""
    if not matrix.is_symmetric():
        raise CertificationError(f"{provenance}: constructed matrix is not symmetric")
    ints, s = _cleared_int_rows(matrix)
    minors, a = _ldl_rows([row[:] for row in ints])
    if minors[-1] <= 0:
        vec, val, k = _nonpositive_direction(minors, a, s)
        raise CertificationError(
            f"{provenance}: not positive definite: integer vector {vec} has form "
            f"value {val} <= 0 (leading principal minor {k + 1} fails)")
    m = form_minimum(_gram_form(ints, s), max_dim=max_dim)
    if m.value < 1:
        raise CertificationError(
            f"{provenance}: integer vector {m.witness} has form value {m.value} < 1")
    return WeightMatrix(matrix=matrix, certificate=m, provenance=provenance)


def wada_weight(n: int, max_dim: int = DEFAULT_DIM_CAP) -> WeightMatrix:
    """Half the path-graph Gram matrix: 1 on the diagonal, -1/2 off it.

    This is the weight matrix of the quadratic form
    sum x_i^2 - sum x_i x_{i+1}; its minimum over nonzero integer vectors is 1.
    """
    if n < 1:
        raise DomainError("size must be at least 1")
    _check_cap("weight matrix size", n, max_dim)
    half = Fraction(-1, 2)
    rows = [
        [1 if i == j else (half if abs(i - j) == 1 else 0) for j in range(n)]
        for i in range(n)
    ]
    return certified_weight(RationalMatrix(rows), "wada-path", max_dim=max_dim)


def commutes_with(matrix: RationalMatrix, perm) -> bool:
    """W P = P W for the permutation matrix P of ``perm``."""
    return matrix.permuted(perm) == matrix


def _shift_matrix(m: int) -> RationalMatrix:
    rows = [[1 if j == i + 1 else 0 for j in range(m)] for i in range(m)]
    return RationalMatrix(rows)


def block_tridiagonal_weight(
    w: WeightMatrix | RationalMatrix,
    perm,
    m: int,
    max_dim: int = DEFAULT_DIM_CAP,
) -> WeightMatrix:
    """Block tridiagonal blow-up with W on the diagonal and -(1/2)PW, -(1/2)P^tW
    on the super/sub diagonals; requires W P = P W exactly."""
    wm = w.matrix if isinstance(w, WeightMatrix) else w
    if m < 1:
        raise DomainError("block count must be at least 1")
    perm = tuple(perm)
    if not commutes_with(wm, perm):
        raise DomainError("weight matrix does not commute with the permutation")
    if m == 1:
        return certified_weight(wm, "block-tridiagonal(m=1)", max_dim=max_dim)
    _check_cap("weight matrix size", m * wm.rows, max_dim)
    half = Fraction(1, 2)
    shift = _shift_matrix(m)
    # (P W)[a] = W[perm^-1(a)] and (P^t W)[a] = W[perm(a)]: rows reindexed
    pw = RationalMatrix([wm.row(perm.index(a)) for a in range(wm.rows)])
    ptw = RationalMatrix([wm.row(i) for i in perm])
    big = (
        kron(RationalMatrix.identity(m), wm)
        - kron(shift, pw.scale(half))
        - kron(shift.transpose(), ptw.scale(half))
    )
    return certified_weight(big, f"block-tridiagonal(m={m})", max_dim=max_dim)


def symmetrize(
    w: WeightMatrix | RationalMatrix,
    action: PermutationAction,
    max_dim: int = DEFAULT_DIM_CAP,
) -> WeightMatrix:
    """Group-average (1/2n) sum_g P_g (W + W^t) P_g^t over the action.

    The result commutes with every P_g and has the same trace pairing
    tr(W C) against any C that commutes with the action.
    """
    wm = w.matrix if isinstance(w, WeightMatrix) else w
    sym = wm + wm.transpose()
    if isinstance(w, RationalMatrix):  # (W + W^t)/2 has the quadratic form of W
        certified_weight(sym.scale(Fraction(1, 2)), "symmetrize input", max_dim=max_dim)
    _of_degree(action, wm.rows)
    n = action.order
    acc = RationalMatrix.zeros(wm.rows, wm.cols)
    for g in action.elements:
        acc = acc + sym.permuted(g)
    avg = acc.scale(Fraction(1, 2 * n))
    if not all(commutes_with(avg, g) for g in action.generators):
        raise InternalInvariantError("group average does not commute with the action")
    return certified_weight(avg, "symmetrized", max_dim=max_dim)


def _form_coeffs(coeffs, size: int | None = None) -> dict:
    """The {(i, j): q_ij} dict of a form given as a dict or as (i, j, q_ij)
    triples; with ``size``, no index may exceed it."""
    pairs = list(coeffs.items() if isinstance(coeffs, dict)
                 else (((i, j), v) for i, j, v in coeffs))
    if not pairs:
        raise DomainError("empty quadratic form")
    for (i, j), _ in pairs:
        if type(i) is not int or type(j) is not int:
            raise DomainError(f"form indices must be integers, not ({i!r},{j!r})")
        if size is not None and j > size:
            raise DomainError(f"form index ({i},{j}) exceeds matrix size {size}")
    out = {}
    for (i, j), v in pairs:
        if i < 1 or j < i:
            raise DomainError(f"coefficient index ({i},{j}) must satisfy 1 <= i <= j")
        if not isinstance(v, int) or isinstance(v, bool):
            raise DomainError("form coefficients must be integers")
        if (i, j) in out:
            raise DomainError(f"form coefficient ({i},{j}) is given twice")
        out[i, j] = v
    return out


def from_quadratic_form(
    coeffs, size: int | None = None, max_dim: int = DEFAULT_DIM_CAP
) -> WeightMatrix:
    """Weight matrix of an integral quadratic form sum_{i<=j} q_ij x_i x_j.

    ``coeffs`` maps 1-indexed pairs (i, j), i <= j, to integer coefficients,
    or is an iterable of (i, j, q_ij) triples, each pair at most once.
    W_ii = q_ii and W_ij = q_ij / 2 off the diagonal, so x W x^t reproduces
    the form.  The matrix is ``size`` x ``size``, which no index may exceed,
    or as large as the largest index.
    """
    coeffs = _form_coeffs(coeffs, size)
    if size is None:
        size = max(j for _, j in coeffs)
    _check_cap("weight matrix size", size, max_dim)
    rows = [[Fraction(0)] * size for _ in range(size)]
    for (i, j), v in coeffs.items():
        if i == j:
            rows[i - 1][i - 1] = Fraction(v)
        else:
            rows[i - 1][j - 1] = Fraction(v, 2)
            rows[j - 1][i - 1] = Fraction(v, 2)
    return certified_weight(RationalMatrix(rows), "quadratic-form", max_dim=max_dim)


def _heuristic_path_order(c: RationalMatrix) -> tuple[int, ...]:
    """Greedy + 2-opt heuristic for a heavy Hamiltonian path (deterministic)."""
    n = c.rows
    if n == 1:
        return (0,)
    start = max(
        ((i, j) for i in range(n) for j in range(i + 1, n)),
        key=lambda e: (c[e[0], e[1]], -e[0], -e[1]),
    )
    path = [start[0], start[1]]
    used = set(path)
    while len(path) < n:
        choices = []
        for v in range(n):
            if v in used:
                continue
            choices.append((c[path[-1], v], 1, -v, v))
            choices.append((c[path[0], v], 0, -v, v))
        weight, side, _, v = max(choices)
        if side == 1:
            path.append(v)
        else:
            path.insert(0, v)
        used.add(v)

    def edge(a, b):
        return c[path[a], path[b]]

    for _ in range(200):
        improved = False
        for a in range(n - 1):
            for b in range(a + 1, n):
                delta = Fraction(0)
                if a > 0:
                    delta += edge(a - 1, b) - edge(a - 1, a)
                if b < n - 1:
                    delta += edge(a, b + 1) - edge(b, b + 1)
                if delta > 0:
                    path[a : b + 1] = reversed(path[a : b + 1])
                    improved = True
        if not improved:
            break
    return tuple(path)


def weight_candidates(
    c: CartanData,
    action: PermutationAction | None = None,
    max_dim: int = DEFAULT_DIM_CAP,
) -> list[tuple[WeightMatrix, Fraction]]:
    """Certified weight matrices paired with tr(W C), sorted ascending.

    Emits the identity, the path weight under the input ordering, the path
    weight under a heuristic heavy-path reordering, the scaled inverse Cartan
    matrix C^{-1}/m (whose trace pairing is exactly l/m, which is checked:
    a mismatch is an ``InternalInvariantError``), and symmetrized
    variants under the action.  These are candidates, not proven optima.
    """
    l = c.l
    action = _of_degree(action, l)
    cm = c.matrix
    out: list[WeightMatrix] = []
    out.append(
        certified_weight(RationalMatrix.identity(l), "identity", max_dim=max_dim)
    )
    wada = wada_weight(l, max_dim=max_dim)
    out.append(wada)
    order = _heuristic_path_order(cm)
    if order != tuple(range(l)):
        out.append(
            certified_weight(
                wada.matrix.permuted(order), "wada-path-reordered", max_dim=max_dim
            )
        )
    # C^{-1} = rows / den, and m = den_m / den with den_m the integer minimum
    # of rows, so C^{-1}/m = rows / den_m takes the value 1 exactly at the
    # minimizers of C^{-1}: the search below is its certificate
    rows, den = c.inverse_rows
    found = form_minimum(_gram_form(rows, den), max_dim=max_dim)
    mval, den_m = found.value, int(den * found.value)
    at_inverse = len(out)
    out.append(WeightMatrix(
        matrix=RationalMatrix([[Fraction(v, den_m) for v in row] for row in rows]),
        certificate=LatticeMinimum(Fraction(1), found.witness, found.num_minimizers),
        provenance="inverse-cartan",
    ))
    if action is not None and not action.is_trivial:
        for wm in list(out):
            if not all(commutes_with(wm.matrix, g) for g in action.generators):
                averaged = symmetrize(wm, action, max_dim=max_dim)
                out.append(replace(averaged, provenance=f"symmetrized-{wm.provenance}"))
    scored = [(wm, trace_pairing(wm.matrix, c)) for wm in out]
    got, l_over_m = scored[at_inverse][1], Fraction(l) / mval
    if got != l_over_m:
        raise InternalInvariantError(
            f"inverse-Cartan weight pairs with C to {got}, not l/m = {l_over_m}"
        )
    scored.sort(key=lambda t: (t[1], t[0].provenance))
    return scored
