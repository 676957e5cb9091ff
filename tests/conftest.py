"""Shared oracles and generators for the test suite.

The oracles here are deliberately independent of the library code paths they
check: brute-force box enumeration for lattice minima, cofactor expansion for
determinants, gcd-of-minors (or sympy's Smith normal form) for elementary
divisors, explicit permutation matrices for permutations that the library
keeps as index tuples, a textbook Gram-Schmidt for the LLL conditions, the
``Fraction`` Fincke-Pohst descent that the library's integer search replaced,
the ``Fraction`` back substitution that the library's integer inverse
replaced, the ``Fraction`` trace pairing that its integer dot product
replaced, the group average over every listed group element that its orbit
means replaced, the reduce-and-compare ``verify_all`` that the library's coset zero
test replaced, the dense Gram-block scan that its sparse rows replaced, and
the cyclotomic helpers that no library path needs (field trace, conjugation,
powers of zeta, the entries of a coefficient stack).
"""

from __future__ import annotations

import random
import resource
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, isqrt, lcm
from pathlib import Path

import numpy as np
import pytest

import blockbounds
from blockbounds import (
    CartanData,
    CyclotomicInteger,
    LatticeMinimum,
    PermutationAction,
    RationalMatrix,
    SingularMatrixError,
    SubsectionSpec,
    lll_reduce,
)
from blockbounds.exactmat import _bareiss, _cleared_int_rows
from blockbounds.gendec import (
    CheckResult,
    GenDecData,
    VerificationReport,
    cyc_reduce,
    neg_residue_index,
    rank_check,
)
from blockbounds.ntheory import prime_and_phi, units_mod


@lru_cache(maxsize=16)
def _box_points(dim: int, bound: int) -> np.ndarray:
    rng = np.arange(-bound, bound + 1)
    grids = np.meshgrid(*([rng] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
    return pts[np.any(pts != 0, axis=1)]


def box_minimum(matrix: RationalMatrix, bound: int = 6) -> tuple[Fraction, tuple]:
    """Brute-force min of x G x^t over the integer box |x_i| <= bound.

    Scales the Gram matrix to integers so the numpy evaluation is exact
    (entries stay far below the int64 range for the sizes used in tests).
    """
    s = lcm(*(x.denominator for row in matrix for x in row))
    g = np.array([[int(x * s) for x in row] for row in matrix], dtype=np.int64)
    pts = _box_points(matrix.rows, bound)
    vals = np.einsum("nd,de,ne->n", pts, g, pts)
    i = int(np.argmin(vals))
    return Fraction(int(vals[i]), s), tuple(int(x) for x in pts[i])


def random_pd_int_matrix(rng: random.Random, dim: int, spread: int = 2) -> RationalMatrix:
    """A^t A + I for small random integer A; positive definite, and any
    minimizing vector provably fits in the |x_i| <= 6 box for dim <= 4."""
    a = [[rng.randint(-spread, spread) for _ in range(dim)] for _ in range(dim)]
    g = [
        [
            sum(a[k][i] * a[k][j] for k in range(dim)) + (1 if i == j else 0)
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    return RationalMatrix(g)


def perm_matrix(perm) -> RationalMatrix:
    """Permutation matrix P with P e_j = e_perm[j] (0-based images)."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    rows = [[0] * n for _ in range(n)]
    for j, i in enumerate(perm):
        rows[i][j] = 1
    return RationalMatrix(rows)


def random_unimodular(rng: random.Random, dim: int, ops: int = 6,
                      coeffs=(-2, -1, 1, 2)) -> RationalMatrix:
    """Identity after ``ops`` random row additions c * row j to row i, c in
    ``coeffs``; positive ``coeffs`` keep every entry nonnegative."""
    rows = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(ops):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        c = rng.choice(coeffs)
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return RationalMatrix(rows)


def conjugacy_class_count(elements, mul) -> int:
    """Brute-force class count of a finite group given by a multiplication
    table; the first element must be the identity."""
    elements = list(elements)
    ident = elements[0]
    inverses = {}
    for g in elements:
        for h in elements:
            if mul(g, h) == ident and mul(h, g) == ident:
                inverses[g] = h
                break
    seen = set()
    classes = 0
    for g in elements:
        if g in seen:
            continue
        classes += 1
        for h in elements:
            seen.add(mul(mul(h, g), inverses[h]))
    return classes


def commutator_subgroup_order(elements, mul) -> int:
    elements = list(elements)
    ident = elements[0]
    inverses = {}
    for g in elements:
        for h in elements:
            if mul(g, h) == ident and mul(h, g) == ident:
                inverses[g] = h
                break
    comms = {
        mul(mul(g, h), mul(inverses[g], inverses[h]))
        for g in elements
        for h in elements
    }
    group = set(comms) | {ident}
    frontier = list(group)
    while frontier:
        new = []
        for a in frontier:
            for b in comms:
                c = mul(a, b)
                if c not in group:
                    group.add(c)
                    new.append(c)
        frontier = new
    return len(group)


def semidirect_c9_by_inversion():
    """The order-18 group with a cyclic part of order 9 inverted by an
    involution; identity first."""
    elems = [(a, s) for s in range(2) for a in range(9)]

    def mul(x, y):
        a, s = x
        b, t = y
        return ((a + (b if s == 0 else (-b) % 9)) % 9, (s + t) % 2)

    return elems, mul


def cofactor_determinant(matrix: RationalMatrix) -> Fraction:
    """Recursive cofactor expansion; independent of the elimination code."""
    n = matrix.rows
    if n == 1:
        return matrix[0, 0]
    total = Fraction(0)
    for j in range(n):
        if matrix[0, j] == 0:
            continue
        minor = RationalMatrix(
            [
                [matrix[i, c] for c in range(n) if c != j]
                for i in range(1, n)
            ]
        )
        sign = -1 if j % 2 else 1
        total += sign * matrix[0, j] * cofactor_determinant(minor)
    return total


def reference_inverse(matrix: RationalMatrix) -> RationalMatrix:
    """The kernel's forward pass on [s A | s I], then back substitution in
    ``Fraction``s: the inverse as the library computed it before its back
    substitution moved to integers."""
    n = matrix.rows
    ints, s = _cleared_int_rows(matrix)
    for i in range(n):
        ints[i].extend(s if j == i else 0 for j in range(n))
    if len(_bareiss(ints, n, pivoting=True)[0]) < n:
        raise SingularMatrixError("matrix is singular")
    sol = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - 1, -1, -1):
        for c in range(n):
            acc = Fraction(ints[i][n + c])
            for j in range(i + 1, n):
                acc -= ints[i][j] * sol[j][c]
            sol[i][c] = acc / ints[i][i]
    return RationalMatrix(sol)


def reference_trace_pairing(a: RationalMatrix, b) -> Fraction:
    """tr(a b) = sum a_ij b_ji as a sum of ``Fraction`` products: the trace
    pairing as the library computed it before it moved to cleared integer
    rows.  ``b`` may be a ``CartanData``, paired through its matrix."""
    if isinstance(b, CartanData):
        b = b.matrix
    return sum(x * y for row, col in zip(a, zip(*b)) for x, y in zip(row, col))


def reference_group_average(w: RationalMatrix, generators) -> RationalMatrix:
    """(1/2|G|) sum_g P_g (W + W^t) P_g^t over every element g of the group G
    that the permutations ``generators`` span, listed by closing the identity
    under composition: the average that ``weights.symmetrize`` took before it
    took means over the orbits of index pairs."""
    ident = tuple(range(w.rows))
    group, frontier = {ident}, {ident}
    while frontier:
        frontier = {tuple(g[x] for x in a) for a in frontier for g in generators} - group
        group |= frontier
    sym = w + w.transpose()
    acc = RationalMatrix.zeros(w.rows, w.rows)
    for g in group:
        acc = acc + sym.permuted(g)
    return acc.scale(Fraction(1, 2 * len(group)))


def gram_schmidt(gram: RationalMatrix) -> tuple[list[list[Fraction]], list[Fraction]]:
    """(mu, B) of the basis with Gram matrix ``gram``, by the textbook
    recursion mu_ij = (g_ij - sum_{t<j} mu_it mu_jt B_t) / B_j and
    B_i = g_ii - sum_{j<i} mu_ij^2 B_j, in plain Fractions."""
    n = gram.rows
    mu = [[Fraction(0)] * n for _ in range(n)]
    b = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            acc = gram[i, j] - sum(mu[i][t] * mu[j][t] * b[t] for t in range(j))
            mu[i][j] = acc / b[j]
        b[i] = gram[i, i] - sum(mu[i][j] ** 2 * b[j] for j in range(i))
    return mu, b


def _int_range(sigma: Fraction, bound: Fraction) -> tuple[int, int]:
    """Integers y with (y + sigma)^2 <= bound; bound >= 0."""
    a, b = sigma.numerator, sigma.denominator
    bn, bd = bound.numerator, bound.denominator
    lim = isqrt(b * b * bn * bd) // bd
    return -((lim + a) // b), (lim - a) // b


def reference_form_minimum(matrix: RationalMatrix) -> LatticeMinimum:
    """Fincke-Pohst in plain Fractions: the minimum of x G x^t over nonzero
    integer x, searched over every vector (both signs) of the LLL-reduced
    basis, with mu and the squared lengths from ``gram_schmidt``."""
    transform, reduced = lll_reduce(matrix)
    mu, d = gram_schmidt(reduced)
    n = matrix.rows
    best = min(reduced[i, i] for i in range(n))
    minimizers: set = set()
    y = [0] * n

    def original() -> tuple:
        x = [int(sum(transform[c, i] * y[i] for i in range(n))) for c in range(n)]
        if next(v for v in x if v) < 0:
            x = [-v for v in x]
        return tuple(x)

    def descend(level: int, acc: Fraction):
        nonlocal best, minimizers
        sigma = sum((mu[j][level] * y[j] for j in range(level + 1, n)), Fraction(0))
        lo, hi = _int_range(sigma, (best - acc) / d[level])
        for yi in range(lo, hi + 1):
            t = yi + sigma
            acc2 = acc + d[level] * t * t
            if acc2 > best:
                continue
            y[level] = yi
            if level:
                descend(level - 1, acc2)
            elif any(y):
                if acc2 < best:
                    best, minimizers = acc2, set()
                minimizers.add(original())
        y[level] = 0

    descend(n - 1, Fraction(0))
    witness = min(minimizers, key=lambda v: tuple(reversed(v)))
    return LatticeMinimum(value=best, witness=witness, num_minimizers=len(minimizers))


def minor_gcd_divisors(matrix: RationalMatrix) -> list[int]:
    """Elementary divisors via gcds of k x k minors (tiny matrices only)."""
    n = matrix.rows
    gcds = []
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                sub = RationalMatrix([[matrix[i, j] for j in cols] for i in rows])
                g = gcd(g, int(cofactor_determinant(sub)))
        gcds.append(g)
    divisors = []
    prev = 1
    for g in gcds:
        divisors.append(g // prev)
        prev = g
    return divisors


def largest_elementary_divisor(matrix: RationalMatrix) -> int:
    """d_n of a nonsingular integer matrix: ``minor_gcd_divisors`` up to
    4 x 4, above that the lcm of the diagonal of sympy's Smith normal form
    (the calling test is skipped if sympy cannot be imported)."""
    n = matrix.rows
    if n <= 4:
        return minor_gcd_divisors(matrix)[-1]
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    snf = smith_normal_form(sympy.Matrix([[int(x) for x in row] for row in matrix]),
                            domain=sympy.ZZ)
    return lcm(*(abs(int(snf[i, i])) for i in range(n)))


# ---------------------------------------------------------------------------
# gendec: cyclotomic oracles that the library does not need


def zeta_power(q: int, e: int, coeff: int = 1) -> CyclotomicInteger:
    """coeff * zeta_q^e."""
    return cyc_reduce({e % q: coeff}, q)


def conjugate(x: CyclotomicInteger) -> CyclotomicInteger:
    """Complex conjugation, the Galois automorphism zeta -> zeta^-1."""
    return x.galois(x.q - 1) if x.q > 1 else x


def field_trace(x: CyclotomicInteger) -> int:
    """Absolute trace of Q(zeta_q)/Q, by the standard case formula:
    phi(q) on exponent 0, -q/p on nonzero multiples of q/p, else 0."""
    if x.q == 1:
        return x.coeffs[0]
    qp = x.q // x.p
    return -qp * sum(c for i, c in enumerate(x.coeffs, start=1) if i % qp == 0)


def entry_of(data, r: int, c: int) -> CyclotomicInteger:
    """Entry (r, c) of the matrix whose coefficient stack is ``data.stack``."""
    return CyclotomicInteger(data.q, [m[r][c] for m in data.stack])


def row_of(data, r: int) -> tuple:
    return tuple(entry_of(data, r, c) for c in range(data.l))


def q_matrix_of(data) -> list:
    return [list(row_of(data, r)) for r in range(data.k)]


# ---------------------------------------------------------------------------
# gendec: dihedral test data and the phi(q)^2-pair reference verifiers

# Ordinary decomposition matrices D of S3 (p = 3) and A4 (p = 2); C = D^t D.
DECOMPOSITION_D = {
    3: [[1, 0], [0, 1], [1, 1]],
    2: [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
}


def dihedral_rows(q: int) -> tuple[list, list]:
    """Values chi(u) of the characters of the dihedral group of order 2q at
    a rotation u of order q, as {zeta exponent: coefficient} maps, and the
    heights of the characters."""
    p = next(f for f in range(2, q + 1) if q % f == 0)
    rows = [{0: 1}, {0: 1}]
    heights = [0, 0]
    if p == 2:
        rows += [{0: -1}, {0: -1}]
        heights += [0, 0]
        top = q // 2 - 1
    else:
        top = (q - 1) // 2
    for j in range(1, top + 1):
        rows.append({j: 1, q - j: 1})
        heights.append(1 if p == 2 else 0)
    return rows, heights


def dihedral_cells(q: int, expand: bool = False) -> tuple[list, list, list]:
    """(cells, C_bar, heights): the dihedral rows as a k x 1 matrix of
    exponent maps, or Kronecker-expanded with the decomposition matrix of
    S3 or A4 for p = 3 or 2."""
    rows, heights = dihedral_rows(q)
    if not expand:
        return [[row] for row in rows], [[1]], heights
    d = DECOMPOSITION_D[next(f for f in range(2, q + 1) if q % f == 0)]
    cbar = [[sum(x[i] * x[j] for x in d) for j in range(len(d[0]))]
            for i in range(len(d[0]))]
    cells = [[{e: c * x for e, c in row.items()} for x in drow]
             for row in rows for drow in d]
    return cells, cbar, [h for h in heights for _ in d]


def orbit_cells(q: int, gen: int) -> tuple[list, list, tuple]:
    """(cells, C_bar, shift): the q linear characters of C_q at the N-orbit
    zeta^d, d = gen^0, gen^1, ... (N = <gen> of order n; one column per d,
    so l = n and C_bar = I), and the natural action of gen on the columns:
    zeta -> zeta^gen sends the column at zeta^d to the one at zeta^(gen d),
    column i to column i + 1 mod n (0-indexed images)."""
    ds = [1]
    while (d := ds[-1] * gen % q) != 1:
        ds.append(d)
    n = len(ds)
    cells = [[{j * d % q: 1} for d in ds] for j in range(q)]
    return (cells, [[int(a == b) for b in range(n)] for a in range(n)],
            tuple((i + 1) % n for i in range(n)))


def data_from_cells(q, cells, cbar, gens=None, perm=None):
    """GenDecData and C_bar from exponent-map cells; N = <gens> (default
    <-1>), each generator acting on the columns by ``perm``."""
    p = next(f for f in range(2, q + 1) if q % f == 0)
    l = len(cbar)
    gens = (q - 1,) if gens is None else gens
    action = PermutationAction(l, [perm or tuple(range(l))] * len(gens))
    entries = [[cyc_reduce(cell, q) for cell in row] for row in cells]
    stack = [
        RationalMatrix([[x.coeffs[i] for x in row] for row in entries])
        for i in range(prime_and_phi(q)[1])
    ]
    spec = SubsectionSpec(p, q, gens, action)
    return GenDecData(stack, spec), CartanData(RationalMatrix(cbar), p)


def gendec_record(q: int, cells, cbar, heights, perm=None, gens=None) -> dict:
    """A ``gendec verify`` input: N = <gens> (default <-1>), each generator
    acting on the columns by ``perm`` (1-indexed images, the identity by
    default)."""
    p = next(f for f in range(2, q + 1) if q % f == 0)
    l = len(cbar)
    gens = [q - 1] if gens is None else list(gens)
    return {
        "q": q,
        "p": p,
        "k": len(cells),
        "l": l,
        "spec": {
            "p": p,
            "q": q,
            "n_generators": gens,
            "ibr_action": [perm or list(range(1, l + 1))] * len(gens),
            "cartan": {
                "normalization": "b_bar",
                "matrix": {"rows": l, "cols": l,
                           "entries": [[str(x) for x in row] for row in cbar]},
            },
        },
        "q_matrix": {"powers": [[{str(e): c for e, c in cell.items()} for cell in row]
                                for row in cells]},
        "heights": heights,
    }


def dense_gram_blocks(data) -> dict:
    """The products A_i^t A_j (1-based i, j) that are not identically zero by
    support, as l x l lists of ints, from a scan of the dense ``data.stack``:
    the pass that ``gendec._gram_blocks`` ran before the data kept each
    row's nonzero terms."""
    l = data.l
    rows = [[] for _ in range(data.k)]  # row r: its nonzero entries (i, a, value)
    for i, m in enumerate(data.stack, start=1):
        for r, row in enumerate(m):
            for a, x in enumerate(row):
                if x:
                    rows[r].append((i, a, x))
    blocks = {}
    for terms in rows:
        for i, a, x in terms:
            for j, b, y in terms:
                blk = blocks.get((i, j))
                if blk is None:
                    blk = blocks[i, j] = [[0] * l for _ in range(l)]
                blk[a][b] += x * y
    return blocks


def _cyc_product_t_conj(a, b, q: int):
    """(A^t . conj(B)) for equal-height cyclotomic matrices A, B."""
    out = []
    for i in range(len(a[0])):
        row = []
        for j in range(len(b[0])):
            acc = CyclotomicInteger.zero(q)
            for r in range(len(a)):
                acc = acc + a[r][i] * conjugate(b[r][j])
            row.append(acc)
        out.append(row)
    return out


def _first_mismatch(product, expected: RationalMatrix, q: int):
    for i in range(len(product)):
        for j in range(len(product[0])):
            want = CyclotomicInteger.from_int(q, int(expected[i, j]))
            if product[i][j] != want:
                return i, j, product[i][j], want
    return None


def reference_orthogonality(data, c_bar):
    """The orthogonality checks by brute force: a CyclotomicInteger product
    for every one of the phi(q)^2 Galois pairs (gamma, delta).  Returns the
    report, whose Galois detail names the first failing pair, and the number
    of failing pairs."""
    spec = data.spec
    q, l = data.q, data.l
    cb = c_bar.matrix.scale(q)
    qmat = q_matrix_of(data)
    checks = []
    bad = _first_mismatch(_cyc_product_t_conj(qmat, qmat, q), cb, q)
    checks.append(CheckResult(
        "orthogonality", bad is None,
        "Q^t conj(Q) = q*C holds" if bad is None
        else f"entry {bad[0], bad[1]}: {bad[2]!r} != {bad[3]!r}",
    ))
    units = units_mod(q)
    images = {g: [[x.galois(g) for x in row] for row in qmat] for g in units}
    failing = 0
    detail = f"all {len(units)**2} Galois pairs match"
    for g in units:
        for d in units:
            # P(g, d) = q C_bar P_{d/g}: g sends column a to column perm[a]
            ratio = d * pow(g, -1, q) % q if q > 1 else 1
            prod = _cyc_product_t_conj(images[g], images[d], q)
            if ratio in spec.elements:
                expected = cb @ perm_matrix(spec.perm_of(ratio, l))
            else:
                expected = RationalMatrix.zeros(l, l)
            bad = _first_mismatch(prod, expected, q)
            if bad is not None:
                if not failing:
                    detail = (f"pair (gamma={g}, delta={d}) entry {bad[0], bad[1]}: "
                              f"{bad[2]!r} != {bad[3]!r}")
                failing += 1
    checks.append(CheckResult("galois-orthogonality", not failing, detail))
    comm_ok = True
    comm_detail = "C commutes with every fusion permutation"
    for unit in spec.elements:
        pm = perm_matrix(spec.perm_of(unit, l))
        if cb @ pm != pm @ cb:
            comm_ok = False
            comm_detail = f"C P_{unit} != P_{unit} C"
            break
    checks.append(CheckResult("cartan-permutation-commutation", comm_ok, comm_detail))
    return VerificationReport(tuple(checks)), failing


def _indicator_weight(i, j, ip, jp, delta, q) -> int:
    return (
        (1 if (j * delta - i) % q == 0 else 0)
        - (1 if (j * delta + ip) % q == 0 else 0)
        + (1 if (jp * delta - ip) % q == 0 else 0)
        - (1 if (jp * delta + i) % q == 0 else 0)
    )


def _transposed_product(a, b) -> list:
    """a^t b for int row lists of equal height."""
    return [[sum(x[i] * y[j] for x, y in zip(a, b)) for j in range(len(b[0]))]
            for i in range(len(a[0]))]


def reference_gram_identity(data, c_bar):
    """The Gram checks by brute force: one ``gram(i,j)`` row per pair, each
    product A_i^t A_j and its right-hand side C_bar sum_delta w P_delta
    formed in full on int lists, with P_delta from ``perm_matrix`` (q > 1
    only)."""
    spec = data.spec
    q, p, l = data.q, data.p, data.l
    cm = [[int(x) for x in row] for row in c_bar.matrix]
    phi = len(data.stack)
    zero = [[0] * l for _ in range(l)]
    products = {
        (i, j): _transposed_product(data.stack[i - 1], data.stack[j - 1])
        for i in range(1, phi + 1)
        for j in range(1, phi + 1)
    }
    checks = []
    for (i, j), lhs in products.items():
        ip, jp = neg_residue_index(i, q, p), neg_residue_index(j, q, p)
        acc = zero
        for delta in spec.elements:
            w = _indicator_weight(i, j, ip, jp, delta, q)
            if w:
                pm = perm_matrix(spec.perm_of(delta, l))
                acc = [[x + w * int(y) for x, y in zip(ra, rp)] for ra, rp in zip(acc, pm)]
        rhs = [[sum(cm[a][c] * acc[c][b] for c in range(l)) for b in range(l)]
               for a in range(l)]
        checks.append(CheckResult(
            f"gram({i},{j})", lhs == rhs,
            "" if lhs == rhs else f"{RationalMatrix(lhs)!r} != {RationalMatrix(rhs)!r}"
        ))
    for name, divisor, holds, applies in (
        ("p-index block vanishing", p,
         "A_i^t A_j = 0 whenever exactly one index is divisible by p", q > p),
        ("sylow block vanishing", spec.n_p,
         "A_i^t A_j = 0 across the n_p-divisibility split", spec.n_p > 1),
    ):
        if applies:
            offenders = [(i, j) for (i, j), m in products.items()
                         if (i % divisor == 0) != (j % divisor == 0) and m != zero]
            checks.append(CheckResult(
                name, not offenders,
                holds if not offenders else f"nonzero cross blocks at {offenders}",
            ))
    return VerificationReport(tuple(checks))


def reference_c_tilde(c_bar) -> RationalMatrix:
    """p^d C_bar^{-1} from ``reference_inverse``: its common denominator is
    p^d, the largest elementary divisor of C_bar."""
    return RationalMatrix(_cleared_int_rows(reference_inverse(c_bar.matrix))[0])


def reference_height_zero(row, c_tilde: RationalMatrix, p: int, q: int) -> bool:
    """Residue modulo p of the cyclotomic product d C~ conj(d)^t."""
    acc = CyclotomicInteger.zero(q)
    for a, x in enumerate(row):
        for b, y in enumerate(row):
            acc = acc + x * conjugate(y) * int(c_tilde[a, b])
    return acc.residue_at_one() % p != 0


def reference_fourier_split(entries) -> tuple:
    """The coefficient stack of a matrix over Z[zeta_q] through the trace
    identity A_i = T(Q (zeta^{-i} - zeta^{i'})) / q, as int row tuples (the
    library reads A_i off the zeta^i coefficients instead)."""
    x0 = entries[0][0]
    q, p = x0.q, x0.p
    if q == 1:
        return (tuple(tuple(x.coeffs[0] for x in row) for row in entries),)
    stack = []
    for i in range(1, q - q // p + 1):
        factor = (zeta_power(q, q - i)
                  - zeta_power(q, neg_residue_index(i, q, p)))
        a = []
        for row in entries:
            arow = []
            for x in row:
                quot, rem = divmod(field_trace(x * factor), q)
                assert rem == 0, f"trace {quot * q + rem} not divisible by q = {q}"
                arow.append(quot)
            a.append(tuple(arow))
        stack.append(tuple(a))
    return tuple(stack)


def _reference_orthogonality_checks(data, c_bar) -> list:
    """The orthogonality rows as ``verify_orthogonality`` computed them before
    the coset zero test: every entry of P(gamma, 1) reduced with ``cyc_reduce``
    and compared with ``CyclotomicInteger.from_int``."""
    spec = data.spec
    q, l = data.q, data.l
    cb = [[q * x.numerator for x in row] for row in c_bar.matrix]
    perms = {unit: spec.perm_of(unit, l) for unit in spec.elements}
    blocks = dense_gram_blocks(data).items()
    units = units_mod(q)

    def first_mismatch(gamma):
        raws = [[[0] * q for _ in range(l)] for _ in range(l)]
        for (e, f), blk in blocks:
            s = (gamma * e - f) % q
            for a in range(l):
                for b in range(l):
                    raws[a][b][s] += blk[a][b]
        perm = perms.get(pow(gamma, -1, q) if q > 1 else 1)  # q C_bar P_{1/gamma}
        for a in range(l):
            for b in range(l):
                got = cyc_reduce(raws[a][b], q)
                want = CyclotomicInteger.from_int(q, 0 if perm is None else cb[a][perm[b]])
                if got != want:
                    return a, b, got, want
        return None

    bad = {g: m for g in units if (m := first_mismatch(g)) is not None}
    one = bad.get(1)
    checks = [CheckResult(
        "orthogonality", one is None,
        "Q^t conj(Q) = q*C holds" if one is None
        else f"entry {one[0], one[1]}: {one[2]!r} != {one[3]!r}",
    )]
    pairs = len(units) ** 2
    detail = f"all {pairs} Galois pairs match"
    if bad:
        delta, ratio = min((pow(r, -1, q) if q > 1 else 1, r) for r in bad)
        a, b, got, want = bad[ratio]
        detail = (
            f"{len(bad) * len(units)} of {pairs} Galois pairs fail; first "
            f"(gamma=1, delta={delta}) entry {a, b}: {got.galois(delta)!r} != {want!r}"
        )
    checks.append(CheckResult("galois-orthogonality", not bad, detail))
    comm_ok = True
    comm_detail = "C commutes with every fusion permutation"
    for unit, perm in perms.items():
        if any(cb[perm[a]][perm[b]] != cb[a][b] for a in range(l) for b in range(l)):
            comm_ok = False
            comm_detail = f"C P_{unit} != P_{unit} C"
            break
    checks.append(CheckResult("cartan-permutation-commutation", comm_ok, comm_detail))
    return checks


def _reference_gram_checks(data, c_bar) -> list:
    """The Gram rows in the layout of ``verify_gram_identity`` (a ``gram``
    row when every product matches, else one row per failing product, and
    ``gram(1,1)`` alone at q = 1) from the brute-force products of
    ``reference_gram_identity``."""
    if data.q == 1:
        lhs = RationalMatrix(_transposed_product(data.stack[0], data.stack[0]))
        ok = lhs == c_bar.matrix
        return [CheckResult("gram(1,1)", ok,
                            "A_1^t A_1 = C" if ok else f"A_1^t A_1 = {lhs!r} != C")]
    rows = reference_gram_identity(data, c_bar).checks
    products = [c for c in rows if c.name.startswith("gram(")]
    failing = [c for c in products if not c.passed]
    head = failing or [CheckResult("gram", True,
                                   f"all {len(products)} products A_i^t A_j match")]
    return head + [c for c in rows if not c.name.startswith("gram(")]


def reference_verify_all(data, c_bar, heights=None) -> VerificationReport:
    """``verify_all`` with no shared state: the reduce-and-compare
    orthogonality rows, the brute-force Gram rows, and the height check on
    ``row_of(data, r)`` through the cyclotomic product of
    ``reference_height_zero``."""
    checks = _reference_orthogonality_checks(data, c_bar)
    checks.extend(_reference_gram_checks(data, c_bar))
    checks.extend(rank_check(data).checks)
    nonzero = sum(1 for r in range(data.k) if any(not x.is_zero() for x in row_of(data, r)))
    checks.append(CheckResult(
        "nonzero-rows", True,
        f"{nonzero} of {data.k} rows of the coefficient matrix are nonzero",
    ))
    if heights is not None:
        ct = reference_c_tilde(c_bar)
        offenders = [r for r, h in enumerate(heights) if h == 0
                     and not reference_height_zero(row_of(data, r), ct, data.p, data.q)]
        checks.append(CheckResult(
            "height-zero valuations", not offenders,
            "every height-zero row has valuation zero" if not offenders
            else f"rows {offenders} fail the valuation-zero test",
        ))
    return VerificationReport(tuple(checks))


def run_bounded(argv):
    """The command line's run(argv) in a child process held to 60 s and 1 GiB
    of address space; returns (exit status, seconds spent inside run, stderr)."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    script = (
        "import sys, time; from blockbounds.cli import run; "
        "t = time.perf_counter(); rc = run(sys.argv[1:]); "
        "print(time.perf_counter() - t); sys.exit(rc)"
    )
    src = str(Path(blockbounds.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True,
        timeout=60, env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        preexec_fn=cap,
    )
    return proc.returncode, float(proc.stdout.split()[-1]), proc.stderr
