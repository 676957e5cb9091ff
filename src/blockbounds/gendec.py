"""Cyclotomic integer arithmetic for prime-power conductor, and verification
of the structural identities of generalized decomposition matrices.

Elements of Z[zeta_q] are stored on the basis zeta^1 .. zeta^phi(q) (a unit
multiple of the power basis), which makes the coefficient matrices A_i of a
decomposition matrix Q = sum A_i zeta^i literal coefficients of its entries:
``GenDecData`` keeps each row's nonzero ones.

The verifiers expect the products of ``bounds._Expected``, the subsection's
one table of C_bar P_g that the refined k0(B) row reads too.  They never
raise on a mathematical failure: a failed identity is report content,
because these tools exist to locate inconsistent inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .bounds import SubsectionSpec, _Expected
from .exactmat import (
    DomainError,
    RationalMatrix,
    _bareiss,
    _cleared_int_rows,
    _rows_repr,
)
from .ntheory import check_unit_count, prime_and_phi, units_mod


def _int_coeffs(values) -> tuple[int, ...]:
    """The coefficients as a tuple; anything but an int is a DomainError."""
    values = tuple(values)
    if any(type(c) is not int for c in values):
        raise DomainError(f"cyclotomic coefficients must be integers, got {values}")
    return values


class CyclotomicInteger:
    """Element of Z[zeta_q] on the basis zeta^1 .. zeta^phi(q)."""

    __slots__ = ("q", "p", "coeffs")

    def __init__(self, q: int, coeffs):
        p, phi = prime_and_phi(q)
        coeffs = _int_coeffs(coeffs)
        if len(coeffs) != phi:
            raise DomainError(f"conductor {q} needs {phi} coefficients")
        self.q = q
        self.p = p
        self.coeffs = coeffs

    @classmethod
    def _trusted(cls, q: int, p: int, coeffs: tuple) -> "CyclotomicInteger":
        """An element from phi(q) ints that this module computed itself,
        without validating them again."""
        x = object.__new__(cls)
        x.q, x.p, x.coeffs = q, p, coeffs
        return x

    @classmethod
    def zero(cls, q: int) -> "CyclotomicInteger":
        return cls(q, [0] * prime_and_phi(q)[1])

    @classmethod
    def from_int(cls, q: int, n: int) -> "CyclotomicInteger":
        return cyc_reduce({0: n}, q)

    def _check_same(self, other: "CyclotomicInteger"):
        if self.q != other.q:
            raise DomainError("conductors differ")

    def __add__(self, other: "CyclotomicInteger") -> "CyclotomicInteger":
        self._check_same(other)
        return CyclotomicInteger._trusted(
            self.q, self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "CyclotomicInteger") -> "CyclotomicInteger":
        self._check_same(other)
        return CyclotomicInteger._trusted(
            self.q, self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "CyclotomicInteger":
        return CyclotomicInteger._trusted(self.q, self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other) -> "CyclotomicInteger":
        if isinstance(other, int):
            return CyclotomicInteger._trusted(
                self.q, self.p, tuple(other * a for a in self.coeffs)
            )
        self._check_same(other)
        q = self.q
        if q == 1:
            return CyclotomicInteger(1, [self.coeffs[0] * other.coeffs[0]])
        raw = [0] * q
        for i, a in enumerate(self.coeffs, start=1):
            if a:
                for j, b in enumerate(other.coeffs, start=1):
                    if b:
                        raw[(i + j) % q] += a * b
        return cyc_reduce(raw, q)

    __rmul__ = __mul__

    def galois(self, gamma: int) -> "CyclotomicInteger":
        """Apply zeta -> zeta^gamma; gamma must be a unit modulo q."""
        q = self.q
        if q == 1:
            return self
        gamma %= q
        if gcd(gamma, q) != 1:
            raise DomainError(f"{gamma} is not a unit modulo {q}")
        raw = [0] * q
        for i, a in enumerate(self.coeffs, start=1):
            if a:
                raw[i * gamma % q] += a
        return cyc_reduce(raw, q)

    def residue_at_one(self) -> int:
        """Image under zeta -> 1 (reduction modulo the prime above p)."""
        return sum(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CyclotomicInteger)
            and self.q == other.q
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.q, self.coeffs))

    def __repr__(self) -> str:
        if self.q == 1:
            return f"Cyc(q=1, {self.coeffs[0]})"
        body = " + ".join(
            f"{c}*z^{i}" for i, c in enumerate(self.coeffs, start=1) if c
        )
        return f"Cyc(q={self.q}, {body or '0'})"


def _sparse_rows(cells, q: int) -> list[tuple]:
    """The canonical coefficients of a matrix over Z[zeta_q] whose entry
    (r, a) is given by the (exponent, int coefficient) pairs of
    ``cells[r][a]``: row r as its nonzero terms (i, a, x), sorted, with x the
    zeta^i coefficient of entry (r, a).

    zeta^e is a basis element for 1 <= e <= phi(q).  Any other exponent, with
    e = q standing for zeta^0, is zeta^(e - phi(q)) zeta^phi(q), and the
    prime-power relation 1 + zeta^{q/p} + ... + zeta^{(p-1)q/p} = 0 rewrites it
    as -(zeta^(e - phi) + zeta^(e - phi + q/p) + ... + zeta^(e - q/p)), all
    basis elements.  Only the nonzero coefficients are visited; their types
    are the caller's check.
    """
    p, phi = prime_and_phi(q)
    qp = q // p if q > 1 else 1
    rows = []
    for row in cells:
        acc = {}
        for a, pairs in enumerate(row):
            for e, c in pairs:
                if c:
                    e = int(e) % q or q
                    if e <= phi:
                        acc[e, a] = acc.get((e, a), 0) + c
                    else:
                        for j in range(e - phi, e, qp):
                            acc[j, a] = acc.get((j, a), 0) - c
        rows.append(tuple((i, a, x) for (i, a), x in sorted(acc.items()) if x))
    return rows


def cyc_reduce(raw, q: int) -> CyclotomicInteger:
    """Reduce coefficients on zeta^0..zeta^{q-1} (a list, or a dict keyed by
    exponents) to the canonical basis; see ``_sparse_rows``."""
    p, phi = prime_and_phi(q)
    if isinstance(raw, dict):
        pairs = zip(raw, _int_coeffs(raw.values()))
    else:
        seq = _int_coeffs(raw)
        if q > 1 and len(seq) > q:
            raise DomainError(f"need at most {q} raw coefficients")
        pairs = enumerate(seq)
    coeffs = [0] * phi
    for i, _, x in _sparse_rows([[pairs]], q)[0]:
        coeffs[i - 1] = x
    return CyclotomicInteger._trusted(q, p, tuple(coeffs))


def _vanishes(terms: dict, q: int, p: int) -> bool:
    """True iff sum_e terms[e] zeta^e = 0, for a dict of exponents 0..q-1
    to ints (an absent exponent has coefficient 0).

    The kernel of Z[x]/(x^q - 1) -> Z[zeta_q] is spanned by the x^t Phi_q(x),
    which are the indicators of the cosets t + (q/p)Z, so the sum vanishes
    iff it is constant on every coset.  Only a coset that holds a nonzero
    term can fail, and it is constant iff each nonzero term equals the term
    q/p further on, cyclically: a coset that is not constant changes value
    somewhere on its cycle, and some change starts at a nonzero term."""
    if q == 1:
        return not any(terms.values())
    qp = q // p
    for e, x in terms.items():
        if x and terms.get((e + qp) % q, 0) != x:
            return False
    return True


def neg_residue_index(i: int, q: int, p: int) -> int:
    """The unique i' with 0 <= i' < q/p and i' = -i (mod q/p).

    i + i' is the least multiple of q/p that is at least i, so for
    1 <= i <= phi(q) = (p - 1) q/p it lies in q/p..phi(q)."""
    if q == 1:
        return 0
    phi = q - q // p
    if not 1 <= i <= phi:
        raise DomainError(f"index {i} outside 1..{phi}")
    return (-i) % (q // p)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


class GenDecData:
    """Coefficient matrices A_1..A_phi(q) of a k x l generalized
    decomposition matrix, stored by row: ``rows[r]`` holds the nonzero
    entries A_i[r][a] of row r as (i, a, x) terms, sorted by (i, a)."""

    __slots__ = ("rows", "spec", "k", "l", "_stack", "_blocks")

    def __init__(self, stack, spec: SubsectionSpec):
        stack = tuple(tuple(map(tuple, m)) for m in stack)
        phi = prime_and_phi(spec.q)[1]
        if len(stack) != phi:
            raise DomainError(f"need {phi} coefficient matrices, got {len(stack)}")
        k = len(stack[0])
        l = len(stack[0][0]) if k else 0
        if not l:
            raise DomainError("matrix must be at least 1x1")
        if any(len(m) != k or any(len(row) != l for row in m) for m in stack):
            raise DomainError("coefficient matrices must share one shape")
        if any(type(x) is not int for m in stack for row in m for x in row):
            ints, s = _cleared_int_rows(RationalMatrix([r for m in stack for r in m]))
            if s != 1:
                raise DomainError("coefficient matrices must be integral")
            stack = [ints[i:i + k] for i in range(0, phi * k, k)]
        rows = [tuple((i, a, x) for i, m in enumerate(stack, start=1)
                      for a, x in enumerate(m[r]) if x) for r in range(k)]
        self._set(rows, spec, k, l)

    def _set(self, rows, spec: SubsectionSpec, k: int, l: int):
        # both producers, __init__ and _split_cells, pass here before any
        # verifier builds a list of phi(q) units or coefficient matrices
        check_unit_count(spec.q, "for decomposition data")
        self.rows, self.spec, self.k, self.l = tuple(rows), spec, k, l
        self._stack = self._blocks = None

    @classmethod
    def _trusted(cls, rows, spec: SubsectionSpec, k: int, l: int) -> "GenDecData":
        """Data from k sorted rows of nonzero int terms that this module
        built itself, without validating them again."""
        data = object.__new__(cls)
        data._set(rows, spec, k, l)
        return data

    @property
    def q(self) -> int:
        return self.spec.q

    @property
    def p(self) -> int:
        return self.spec.p

    @property
    def stack(self) -> tuple:
        """A_1 .. A_phi(q), each a tuple of k row tuples of ints, built from
        ``rows`` on first use (no verifier reads it)."""
        if self._stack is None:
            at = {(i, r, a): x for r, terms in enumerate(self.rows) for i, a, x in terms}
            self._stack = tuple(
                tuple(tuple(at.get((i, r, a), 0) for a in range(self.l)) for r in range(self.k))
                for i in range(1, prime_and_phi(self.q)[1] + 1))
        return self._stack

    @property
    def gram_blocks(self) -> dict:
        """``_gram_blocks`` of this data, built on first use: the rows are
        immutable, so every verifier reads the same blocks (do not modify
        them)."""
        if self._blocks is None:
            self._blocks = _gram_blocks(self)
        return self._blocks


def fourier_split(entries, spec: SubsectionSpec) -> GenDecData:
    """Split a matrix over Z[zeta_q] into its integer coefficient matrices.

    On the basis zeta^1 .. zeta^phi(q), A_i holds the zeta^i coefficients of
    the entries, as the trace identity A_i = T(Q (zeta^{-i} - zeta^{i'})) / q
    also gives (the tests keep that identity as an oracle).
    """
    rows = [list(r) for r in entries]
    if not rows or not rows[0]:
        raise DomainError("matrix must be at least 1x1")
    q = rows[0][0].q
    if any(x.q != q for r in rows for x in r):
        raise DomainError("entries must share one conductor")
    if spec.q != q:
        raise DomainError(f"spec has q = {spec.q} but entries have conductor {q}")
    return _split_cells([[enumerate(x.coeffs, 1) for x in r] for r in rows], spec)


def _split_cells(cells, spec: SubsectionSpec) -> GenDecData:
    """The data of the k x l matrix whose entry (r, c) is sum x zeta^e over
    the (e, x) pairs of ``cells[r][c]``, each pair reduced by
    ``_sparse_rows`` straight into the rows' nonzero terms: no
    CyclotomicInteger per entry, and no phi(q) k l scan.  The one producer
    of data from cyclotomic entries; every x must be an int, which is the
    caller's check."""
    if not cells or not cells[0]:
        raise DomainError("matrix must be at least 1x1")
    l = len(cells[0])
    if any(len(row) != l for row in cells):
        raise DomainError("rows must share one length")
    return GenDecData._trusted(_sparse_rows(cells, spec.q), spec, len(cells), l)


def _gram_blocks(data: GenDecData) -> dict:
    """The products A_i^t A_j (1-based i, j) that are not identically zero by
    support, as l x l lists of ints, from the nonzero terms of each row.

    These are the blocks of the Gram matrix of the assembled coefficient
    matrix; a block may still sum to zero."""
    l = data.l
    blocks = {}
    for terms in data.rows:
        for i, a, x in terms:
            for j, b, y in terms:
                blk = blocks.get((i, j))
                if blk is None:
                    blk = blocks[i, j] = [[0] * l for _ in range(l)]
                blk[a][b] += x * y
    return blocks


def _orthogonality_rows(pairs: int, bad_entry=None, bad_pairs=None, comm=None) -> list:
    """The orthogonality, galois-orthogonality and cartan-permutation-
    commutation rows for phi(q)^2 = ``pairs`` Galois pairs: ``bad_entry``
    and ``bad_pairs`` are the details of a failing check (None when it
    holds), ``comm`` a unit whose permutation C does not commute with."""
    return [
        CheckResult("orthogonality", bad_entry is None,
                    bad_entry or "Q^t conj(Q) = q*C holds"),
        CheckResult("galois-orthogonality", bad_pairs is None,
                    bad_pairs or f"all {pairs} Galois pairs match"),
        CheckResult("cartan-permutation-commutation", comm is None,
                    "C commutes with every fusion permutation" if comm is None
                    else f"C P_{comm} != P_{comm} C"),
    ]


def verify_orthogonality(data: GenDecData, c_bar, expected=None) -> VerificationReport:
    """Check Q^t conj(Q) = q C_bar, each P(gamma, delta) against the
    ``bounds._Expected`` product q C_bar P_{delta/gamma}, and that C_bar
    commutes with every fusion permutation matrix.  ``expected`` is the
    ``_Expected`` of (data, c_bar) when the caller has built it.

    Galois automorphisms commute with complex conjugation and fix the
    rational expected matrices, so P(gamma, delta) is the image of
    P(gamma/delta, 1) under zeta -> zeta^delta: it fails exactly when
    P(gamma/delta, 1) does, at the same entries.  Only the phi(q) products
    P(gamma, 1) are computed; a failing ratio stands for phi(q) failing
    pairs, and only its first failing (a, b) is kept.  Entry (a, b) of
    P(gamma, 1) is sum_{e,f} (A_e^t A_f)[a][b] zeta^(gamma e - f): one term
    per nonzero Gram block, collected by exponent with the expected integer
    subtracted at exponent 0 and tested with ``_vanishes``, so a gamma costs
    the nonzero terms, not l^2 q.  Only the two reported entries, for
    gamma = 1 and the least delta, are reduced."""
    exp = expected or _Expected(data.spec, c_bar, data.l)
    q, l, cm, cp = exp.q, exp.l, exp.cm, exp.cp
    p, units = data.p, units_mod(q)
    blocks = data.gram_blocks.items()
    # entry a l + b: its (e, f, x) terms, one per nonzero block entry
    terms = [[(e, f, x) for (e, f), blk in blocks if (x := blk[a][b])]
             for a in range(l) for b in range(l)]

    def entry(gamma, delta, a, b):
        """Entry (a, b) of P(gamma, delta) as {exponent: coefficient}."""
        acc = {}
        for e, f, x in terms[a * l + b]:
            s = (gamma * e - delta * f) % q
            acc[s] = acc.get(s, 0) + x
        return acc

    def want(gamma, delta, a, b):
        """Entry (a, b) of the expected P(gamma, delta), q C_bar P_{delta/gamma}."""
        m = cp.get(delta * pow(gamma, -1, q) % q if q > 1 else 1)
        return 0 if m is None else q * m[a][b]

    def first_mismatch(gamma):
        """(a, b) of the first entry of P(gamma, 1) off its expected integer,
        or None."""
        for a in range(l):
            for b in range(l):
                acc = entry(gamma, 1, a, b)
                acc[0] = acc.get(0, 0) - want(gamma, 1, a, b)
                if not _vanishes(acc, q, p):
                    return a, b
        return None

    def shown(delta, a, b):
        """'entry (a, b): got != want' for P(1, delta), the image of
        P(1/delta, 1) under zeta -> zeta^delta; the only entries reduced."""
        got = cyc_reduce(entry(1, delta, a, b), q)
        expected = CyclotomicInteger.from_int(q, want(1, delta, a, b))
        return f"entry {a, b}: {got!r} != {expected!r}"

    bad = {g: m for g in units if (m := first_mismatch(g)) is not None}
    pairs = len(units) ** 2
    bad_pairs = None
    if bad:
        # in (gamma, delta) order gamma = 1 meets every ratio 1/delta first
        delta, ratio = min((pow(r, -1, q) if q > 1 else 1, r) for r in bad)
        bad_pairs = (
            f"{len(bad) * len(units)} of {pairs} Galois pairs fail; first "
            f"(gamma=1, delta={delta}) {shown(delta, *bad[ratio])}"
        )
    # C P = P C  iff  C[perm[a]][perm[b]] = C[a][b] for all a, b
    comm = next((unit for unit, perm in exp.perms.items()
                 if any(cm[perm[a]][perm[b]] != cm[a][b]
                        for a in range(l) for b in range(l))), None)
    return VerificationReport(tuple(_orthogonality_rows(
        pairs, shown(1, *bad[1]) if 1 in bad else None, bad_pairs, comm)))


def _indicator_weights(spec: SubsectionSpec, phi: int) -> dict:
    """(i, j) -> {delta: w} for the nonzero fusion indicator weights

        w = [j delta = i] - [j delta = -i'] + [j' delta = i'] - [j' delta = -i]

    (mod q, primes from ``neg_residue_index``), found from each (j, delta)
    instead of by testing every i."""
    q, p = spec.q, spec.p
    ip = [0] + [neg_residue_index(i, q, p) for i in range(1, phi + 1)]
    with_ip = {}
    for i in range(1, phi + 1):
        with_ip.setdefault(ip[i], []).append(i)
    weights = {}

    def add(i, j, delta, w):
        cell = weights.setdefault((i, j), {})
        cell[delta] = cell.get(delta, 0) + w

    for j in range(1, phi + 1):
        for delta in spec.elements:
            x, y = j * delta % q, ip[j] * delta % q
            if x <= phi:
                add(x, j, delta, 1)
            for i in with_ip.get(-x % q, ()):
                add(i, j, delta, -1)
            for i in with_ip.get(y, ()):
                add(i, j, delta, 1)
            if 1 <= -y % q <= phi:
                add(-y % q, j, delta, -1)
    return weights


def verify_gram_identity(data: GenDecData, c_bar, expected=None) -> VerificationReport:
    """Check every product A_i^t A_j against the fusion indicator formula
    R_ij = C_bar sum_delta w(i, j, delta) P_delta, plus the block-vanishing
    consequences for p | i and for the Sylow part.  One ``gram`` row stands
    for all phi(q)^2 products when they match; otherwise each failing
    product has its own ``gram(i,j)`` row.  ``expected`` is as in
    ``verify_orthogonality``."""
    spec = data.spec
    q, p = data.q, data.p
    exp = expected or _Expected(spec, c_bar, data.l)
    l, cp, zero = exp.l, exp.cp, exp.zero
    blocks = data.gram_blocks
    if q == 1:
        lhs = blocks.get((1, 1), zero)
        ok = lhs == exp.cm
        detail = "A_1^t A_1 = C" if ok else f"A_1^t A_1 = {_rows_repr(lhs)} != C"
        return VerificationReport((CheckResult("gram(1,1)", ok, detail),))

    phi = prime_and_phi(q)[1]
    want, made = {}, {}  # the nonzero R_ij, one matrix per distinct weight cell
    for ij, cell in _indicator_weights(spec, phi).items():
        key = frozenset(cell.items())
        if key not in made:
            made[key] = [[sum(w * cp[d][a][b] for d, w in key) for b in range(l)]
                         for a in range(l)]
        if made[key] != zero:
            want[ij] = made[key]
    shown = {}  # one repr per block object: ``zero`` and each R recur

    def text(m):
        return shown.get(id(m)) or shown.setdefault(id(m), _rows_repr(m))

    checks = [] if blocks == want else [
        CheckResult(f"gram({i},{j})", False, f"{text(lhs)} != {text(rhs)}")
        for i, j in sorted(blocks.keys() | want.keys())
        if (lhs := blocks.get((i, j), zero)) != (rhs := want.get((i, j), zero))
    ]
    if not checks:
        checks.append(
            CheckResult("gram", True, f"all {phi * phi} products A_i^t A_j match")
        )

    def cross_block_check(name: str, divisor: int, holds: str):
        """A_i^t A_j must vanish when exactly one of i, j is divisible by divisor."""
        offenders = [
            (i, j)
            for (i, j), blk in sorted(blocks.items())
            if (i % divisor == 0) != (j % divisor == 0) and blk != zero
        ]
        checks.append(
            CheckResult(
                name,
                not offenders,
                holds if not offenders else f"nonzero cross blocks at {offenders}",
            )
        )

    if q > p:
        cross_block_check(
            "p-index block vanishing",
            p,
            "A_i^t A_j = 0 whenever exactly one index is divisible by p",
        )
    if spec.n_p > 1:
        cross_block_check(
            "sylow block vanishing",
            spec.n_p,
            "A_i^t A_j = 0 across the n_p-divisibility split",
        )
    return VerificationReport(tuple(checks))


def rank_check(data: GenDecData) -> VerificationReport:
    """The assembled coefficient matrix (A_1 .. A_phi side by side) must have
    rank l*phi(q)/n; n = |N| divides phi(q), the order of (Z/q)^x."""
    l = data.l
    num = l * prime_and_phi(data.q)[1]
    rows = [[0] * num for _ in data.rows]
    for row, terms in zip(rows, data.rows):
        for i, a, x in terms:
            row[(i - 1) * l + a] = x
    got = len(_bareiss(rows, num, pivoting=True)[0])
    return VerificationReport((_rank_row(got, num // data.spec.n),))


def _rank_row(got: int, expected: int) -> CheckResult:
    """The ``rank`` row for a computed rank ``got``."""
    return CheckResult("rank", got == expected, f"rank {got}, expected l*phi(q)/n = {expected}")


def height_zero_valuation_check(row, c_bar) -> bool:
    """True iff d C~ conj(d)^t has p-adic valuation zero, for the integral
    C~ = p^d C_bar^{-1}: p^d, the largest elementary divisor of C_bar, is the
    common denominator of its inverse (``CartanData.inverse_rows``).

    Valuation zero is equivalent to a nonzero image under zeta -> 1 modulo p,
    since (1 - zeta) generates the unique prime over p for prime-power
    conductor.  That image is a ring map to F_p which conjugation does not
    change, so it is sum_ab C~_ab r_a r_b with r_a the residue of d_a.  An
    entry of ``row`` may be an ``int``, which is its own image.
    """
    residues = [x if type(x) is int else x.residue_at_one() for x in row]
    if len(residues) != c_bar.l:
        raise DomainError("row length does not match the matrix")
    return _valuation_zero(residues, c_bar.inverse_rows[0], c_bar.p)


def _valuation_zero(residues, ct: list, p: int) -> bool:
    """sum_ab ct[a][b] r_a r_b is nonzero mod p, for int rows ``ct`` and
    int residues r of matching length."""
    total = sum(
        x * residues[a] * residues[b]
        for a, crow in enumerate(ct)
        for b, x in enumerate(crow)
    )
    return total % p != 0


def verify_all(data: GenDecData, c_bar, heights=None) -> VerificationReport:
    """Run all verifiers; height-dependent checks only when heights are given.

    The Gram comparison runs first.  When its ``gram`` row passes
    (``gram(1,1)`` at q = 1), the orthogonality, Galois, commutation and
    rank rows are the passing rows that ``verify_orthogonality`` and
    ``rank_check`` compute, built without running either; otherwise both
    run.  Write s_g for zeta -> zeta^g and G_ef = A_e^t A_f.

    - *The Gram identity decides every Galois pair.*  P(g, d) =
      sum_{e,f} G_ef s_g(zeta^e) conj(s_d(zeta^f)) is the image of the
      blocks G under V (x) conj(V), V = (s_g(zeta^e))_{g,e}, which is
      invertible since zeta^1..zeta^phi is a basis of Q(zeta_q): the image
      is injective.  The image of R is q C_bar P_{d/g}: with the trace-dual
      basis t_i = zeta^-i - zeta^i' (Tr(zeta^e t_i) = q [e = i]), inverting
      gives R_ij = C_bar sum_{d in N} Tr(t_i s_-d(t_j))/q P_d, and of the
      traces of the four powers of zeta in t_i s_-d(t_j) the -1/p parts
      cancel (the four exponents agree modulo q/p), leaving w(i, j, d).  So
      the ``gram`` row passes iff P(g, d) = q C_bar P_{d/g} for every pair,
      which is what the Galois check expects (both read the one table
      ``bounds._Expected.cp``), for any N.  Then P(1, 1) = q C_bar, and
      since P(d, g) is the conjugate transpose of P(g, d), C_bar P_x =
      P_x C_bar for every x: no input passes the ``gram`` row and fails
      orthogonality, the Galois check or commutation.
    - *Rank.*  X = [Q^s_g]_g = [A_1 .. A_phi] (V^t (x) I_l) has the rank of
      the coefficient matrix, which is that of its Hermitian Gram
      (P(g, d))_{g,d}.  That vanishes across distinct cosets of N, and on a
      coset gN its blocks q C_bar P_x^-1 P_y (x, y in N) factor as a
      column of the l x l blocks q C_bar P_x^-1 times the row of the P_y,
      of rank l since C_bar is positive definite.  So the rank is
      l phi(q)/n over the phi(q)/n cosets, and n = |N| divides phi(q).
    """
    exp = _Expected(data.spec, c_bar, data.l)
    gram = verify_gram_identity(data, c_bar, exp).checks
    if gram[0].passed:
        phi = prime_and_phi(data.q)[1]
        rank = data.l * phi // data.spec.n
        checks = [*_orthogonality_rows(phi * phi), *gram, _rank_row(rank, rank)]
    else:
        checks = [*verify_orthogonality(data, c_bar, exp).checks, *gram,
                  *rank_check(data).checks]

    nonzero = sum(1 for terms in data.rows if terms)
    checks.append(
        CheckResult(
            "nonzero-rows",
            True,
            f"{nonzero} of {data.k} rows of the coefficient matrix are nonzero",
        )
    )
    if heights is not None:
        heights = list(heights)
        if len(heights) != data.k:
            raise DomainError("need one height per row")
        ct = c_bar.inverse_rows[0]  # p^d C^{-1}, shared by every check
        # residues of each height-zero row: its coefficients summed per
        # column; rows with equal residues share one check
        residues = {r: tuple(sum(x for _, b, x in terms if b == a) for a in range(data.l))
                    for r, (terms, h) in enumerate(zip(data.rows, heights)) if h == 0}
        ok = {v: _valuation_zero(v, ct, data.p) for v in set(residues.values())}
        offenders = [r for r, v in residues.items() if not ok[v]]
        checks.append(
            CheckResult(
                "height-zero valuations",
                not offenders,
                "every height-zero row has valuation zero"
                if not offenders
                else f"rows {offenders} fail the valuation-zero test",
            )
        )
    return VerificationReport(tuple(checks))
