"""Upper bounds on block character counts from local invariants.

Every bound evaluates to an exact rational.  Flooring to an integer is left
to the caller (``BoundReport.integer_bound``), and strictness information is
reported but never used to tighten a value.  ``_Expected`` is the one table
of what a subsection does to C_bar (C_bar P_g for each g in N): the refined
k0(B) row sums it, and ``gendec``'s verifiers check decomposition data
against it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import floor, gcd

from . import ntheory
from .exactmat import (
    CartanData,
    DomainError,
    InconsistentDataError,
    InternalInvariantError,
    RationalMatrix,
    _int_determinant,
    trace_pairing,
)
from .lattice import DEFAULT_DIM_CAP, _gram_form, form_minimum
from .weights import (
    PermutationAction,
    WeightMatrix,
    _fixed_by,
    _form_coeffs,
    _of_degree,
    compose,
    from_quadratic_form,
    symmetrize,
    wada_weight,
    weight_candidates,
)


class PreconditionError(ValueError):
    """A bound was invoked outside its hypotheses."""


class SubsectionSpec:
    """Local data of a subsection: p, q = |<u>|, and the fusion quotient.

    The fusion quotient N is given by generating units modulo q, optionally
    paired (index by index) with generating permutations of its action on the
    Brauer characters of b: entry i of an image array is the column that the
    paired unit sends column i to.  For C_7's characters at zeta, zeta^2,
    zeta^4, ``n_generators`` (2,) acts by (1, 2, 0), in files [[2, 3, 1]].
    """

    __slots__ = ("p", "q", "n_generators", "ibr_action", "elements", "_rep")

    def __init__(
        self,
        p: int,
        q: int,
        n_generators=(),
        ibr_action: PermutationAction | None = None,
    ):
        ntheory.check_prime_and_power(p, q)
        n_generators = tuple(n_generators)
        for g in n_generators:
            if not isinstance(g, int) or isinstance(g, bool):
                raise DomainError(f"generator {g!r} is not an integer")
        gens = tuple(g % q if q > 1 else 1 for g in n_generators)
        elements = ntheory.unit_group_closure(q, gens)
        if ibr_action is not None and len(ibr_action.generators) != len(gens):
            raise DomainError(
                "need exactly one action generator per unit generator "
                f"({len(gens)} units, {len(ibr_action.generators)} permutations)"
            )
        self.p = p
        self.q = q
        self.n_generators = gens
        self.ibr_action = ibr_action
        self.elements = elements
        self._rep = self._build_rep()

    def _build_rep(self) -> dict[int, tuple[int, ...]]:
        """Homomorphism N -> S_l as a unit -> permutation table.

        Closes the (unit, permutation) generator pairs; the images define a
        homomorphism exactly when no two pairs of the closure share a unit.
        """
        if self.ibr_action is None:
            return {}
        q = self.q
        pairs = list(zip(self.n_generators, self.ibr_action.generators))

        def step(pair):
            unit, perm = pair
            return [
                (unit * g % q if q > 1 else 1, compose(sigma, perm))
                for g, sigma in pairs
            ]

        rep = {}
        ident = tuple(range(self.ibr_action.degree))
        for unit, perm in ntheory.closure((1, ident), step):
            if unit in rep:
                raise DomainError(
                    "permutations do not define an action of the "
                    "fusion quotient (inconsistent images)"
                )
            rep[unit] = perm
        return rep

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def n_p(self) -> int:
        return ntheory.part_of(self.n, self.p)[0]

    @property
    def n_pprime(self) -> int:
        return ntheory.part_of(self.n, self.p)[1]

    @property
    def acts_nontrivially(self) -> bool:
        return any(
            perm != tuple(range(len(perm))) for perm in self._rep.values()
        )

    def perm_of(self, unit: int, degree: int) -> tuple[int, ...]:
        """Entry a: the column that ``unit`` of N sends column a to (0-indexed)."""
        action = _of_degree(self.ibr_action, degree)
        u = unit % self.q if self.q > 1 else 1
        at = bisect_left(self.elements, u)  # elements is sorted
        if self.elements[at : at + 1] != (u,):
            raise DomainError(f"unit {unit} is not in the fusion quotient N modulo {self.q}")
        return tuple(range(degree)) if action is None else self._rep[u]


class _Expected:
    """What the subsection does to C_bar with l columns: the one table that
    ``gendec``'s verifiers and the refined k0(B) row read.  ``perms`` maps
    each unit of N, in ``spec.elements`` order, to its column permutation
    as ``SubsectionSpec.perm_of`` gives it, read from the spec's own table;
    ``cm`` is C_bar as int rows and ``zero`` the l x l zero block.  ``cp``
    maps each d in N to C_bar P_d as int rows, P_d e_b = e_perm[b]: d sends
    column b to column perm[b], so Q^d = Q P_d, and as C_bar commutes with
    P_g, (Q^g)^t conj(Q^d) = q C_bar P_{d/g}, or 0 when d/g is not in N.
    Nothing in it may be modified."""

    __slots__ = ("q", "l", "perms", "cm", "zero", "cp")

    def __init__(self, spec: SubsectionSpec, c_bar: CartanData, l: int):
        if c_bar.l != l:
            raise DomainError("Cartan size does not match the column count")
        _of_prime(c_bar, spec)
        _of_degree(spec.ibr_action, l)
        ident = tuple(range(l))  # every unit's permutation when N has no action
        self.q = spec.q
        self.l = l
        self.perms = perms = {unit: spec._rep.get(unit, ident) for unit in spec.elements}
        self.cm = cm = c_bar.ints
        self.zero = [[0] * l for _ in range(l)]
        self.cp = {d: [[row[perm[b]] for b in range(l)] for row in cm]
                   for d, perm in perms.items()}


@dataclass(frozen=True)
class BoundReport:
    name: str
    target: str  # "k(B)" or "k0(B)"
    value: Fraction
    citation: str = ""
    weak_value: Fraction | None = None
    inputs: tuple[tuple[str, str], ...] = ()
    strict: tuple[tuple[str, bool], ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.value < 1:
            raise InconsistentDataError(
                f"bound {self.name} evaluated to {self.value} < 1; "
                "character counts are at least 1, so the inputs are inconsistent"
            )

    @property
    def integer_bound(self) -> int:
        return floor(self.value)


def _echo(**kwargs) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in kwargs.items() if v is not None))


def k0_semidirect(spec: SubsectionSpec) -> int:
    """Number of height-zero characters of the semidirect product <u> x| N.

    For odd p this is n + (q - n_p)/n_p'.  For p = 2 the product is a
    2-group, so the count is its abelianization order n*d with
    d = gcd(q, gamma - 1 over gamma in N).  Degenerate cases return q.
    """
    q, p, n = spec.q, spec.p, spec.n
    if q <= 2 or n == 1:
        return q
    if p > 2:
        n_p, n_pp = spec.n_p, spec.n_pprime
        num = q - n_p
        if num % n_pp:
            raise InternalInvariantError("p'-part does not divide q - n_p")
        return n + num // n_pp
    d = q
    for gamma in spec.elements:
        d = gcd(d, gamma - 1)
    return n * d


def _of_prime(c: CartanData, spec: SubsectionSpec):
    """Refuse Cartan data ``c`` unless it is for the subsection's prime."""
    if c.p != spec.p:
        raise DomainError(f"Cartan data has p = {c.p} but the subsection has p = {spec.p}")


def _normalized_cartan(c: CartanData, spec: SubsectionSpec) -> CartanData:
    """Return the Cartan matrix of the dominated block (b's divided by q)."""
    _of_prime(c, spec)
    return c if spec.q == 1 else c._divided(spec.q)


def _aligned_weight(
    weight: WeightMatrix, spec: SubsectionSpec, c_bar: CartanData, max_dim: int
) -> tuple[WeightMatrix, tuple[str, ...]]:
    """``symmetrize``'s weight for the action, which must fix ``c_bar``, and its note."""
    action = _fixed_by(spec.ibr_action, c_bar)
    if action is None:
        return weight, ()
    averaged = symmetrize(weight, action, max_dim=max_dim)
    return averaged, (() if averaged is weight else ("weight symmetrized over the fusion action",))


def subsection_k_bound(
    c_bar: CartanData,
    spec: SubsectionSpec,
    weight: WeightMatrix,
    max_dim: int = DEFAULT_DIM_CAP,
) -> BoundReport:
    """k(B) <= (n + (q-1)/n) tr(W C) <= q tr(W C) for a major subsection.

    ``c_bar`` is the Cartan matrix of the dominated block; ``_normalized_cartan``
    turns b's Cartan matrix into it.
    """
    _of_prime(c_bar, spec)
    if spec.n % spec.p == 0:
        raise PreconditionError(
            "the k(B) bound needs the fusion quotient to be a p'-group "
            "(its order divides p - 1)"
        )
    weight, notes = _aligned_weight(weight, spec, c_bar, max_dim)
    tr = trace_pairing(weight.matrix, c_bar)
    n, q = spec.n, spec.q
    value = (Fraction(n) + Fraction(q - 1, n)) * tr
    return BoundReport(
        name="subsection k(B) bound",
        target="k(B)",
        value=value,
        citation="weighted Cartan trace over a major subsection",
        weak_value=q * tr,
        inputs=_echo(q=q, n=n, trace=tr, weight=weight.provenance),
        strict=(
            ("first_strict", spec.acts_nontrivially),
            ("second_strict", 1 < n < q - 1),
        ),
        notes=notes,
    )


def subsection_k0_bound(
    c_bar: CartanData,
    spec: SubsectionSpec,
    weight: WeightMatrix,
    max_dim: int = DEFAULT_DIM_CAP,
) -> BoundReport:
    """k0(B) <= k0(<u> x| N) tr(W C) <= q tr(W C), any subsection; ``c_bar``
    is the Cartan matrix of the dominated block."""
    _of_prime(c_bar, spec)
    weight, notes = _aligned_weight(weight, spec, c_bar, max_dim)
    tr = trace_pairing(weight.matrix, c_bar)
    k0 = k0_semidirect(spec)
    return BoundReport(
        name="subsection k0(B) bound",
        target="k0(B)",
        value=k0 * tr,
        citation="weighted Cartan trace over a subsection",
        weak_value=spec.q * tr,
        inputs=_echo(q=spec.q, n=spec.n, k0_semidirect=k0, trace=tr,
                     weight=weight.provenance),
        strict=(("first_strict", spec.acts_nontrivially),),
        notes=notes,
    )


def classical_bounds(
    c: CartanData, ordering=None, partition=None
) -> list[BoundReport]:
    """Trace, Brandt, Wada, partition-determinant and Brauer-Feit bounds."""
    l = c.l
    cm = c.matrix
    tr = cm.trace()
    reports = [
        BoundReport(
            name="trace bound",
            target="k(B)",
            value=tr,
            citation="diagonal decomposition-number counting",
            inputs=_echo(l=l),
        ),
        BoundReport(
            name="Brandt bound",
            target="k(B)",
            value=tr - l + 1,
            citation="Brandt",
            inputs=_echo(l=l),
        ),
    ]
    order = tuple(ordering) if ordering is not None else tuple(range(l))
    if sorted(order) != list(range(l)):
        raise DomainError(f"{order} is not an ordering of 0..{l - 1}")
    off = sum(cm[order[i], order[i + 1]] for i in range(l - 1))
    reports.append(
        BoundReport(
            name="Wada bound",
            target="k(B)",
            value=tr - off,
            citation="Wada",
            inputs=_echo(ordering=order),
        )
    )
    if partition is not None:
        blocks = [tuple(sorted(b)) for b in partition]
        if not all(blocks):
            raise DomainError("partition blocks must be nonempty")
        seen = [i for b in blocks for i in b]
        if sorted(seen) != list(range(l)):
            raise DomainError("partition must cover each index exactly once")
        total = Fraction(0)
        for b in blocks:
            total += _int_determinant([[c.ints[i][j] for j in b] for i in b])
        reports.append(
            BoundReport(
                name="partition determinant bound",
                target="k(B)",
                value=total - len(blocks) + 1,
                citation="partitioned Cartan determinants",
                inputs=_echo(partition=blocks),
            )
        )
    if c.defect is not None:
        reports.append(
            BoundReport(
                name="Brauer-Feit bound",
                target="k(B)",
                value=Fraction(c.p ** (2 * c.defect)),
                citation="Brauer-Feit",
                inputs=_echo(p=c.p, defect=c.defect),
            )
        )
    return reports


def kw_bound(c: CartanData, form_coeffs, max_dim: int = DEFAULT_DIM_CAP) -> BoundReport:
    """k(B) <= sum_{i<=j} q_ij c_ij for a positive definite integral form."""
    return _kw_report(c, form_coeffs, max_dim)[0]


def _kw_report(c: CartanData, form_coeffs, max_dim: int) -> tuple[BoundReport, WeightMatrix]:
    """``kw_bound``'s report and the certified weight of its form."""
    l = c.l
    coeffs = _form_coeffs(form_coeffs, size=l)
    w = from_quadratic_form(coeffs, size=l, max_dim=max_dim)
    value = Fraction(sum(v * c.ints[i - 1][j - 1] for (i, j), v in coeffs.items()))
    if value != trace_pairing(w.matrix, c):
        raise InternalInvariantError("form bound differs from the trace pairing tr(W C)")
    return BoundReport(
        name="quadratic form bound",
        target="k(B)",
        value=value,
        citation="Kuelshammer-Wada",
        inputs=_echo(form=tuple(sorted(coeffs.items())),
                     minimum=w.certificate.value),
    ), w


def inverse_cartan_bound(c: CartanData, max_dim: int = DEFAULT_DIM_CAP) -> BoundReport:
    """k(B) <= l/m <= l p^d with m the integer minimum of the C^{-1} form."""
    top = c.inverse_rows[1]  # the largest elementary divisor of C
    mres = form_minimum(_gram_form(*c.inverse_rows), max_dim=max_dim)
    l = c.l
    value = l / mres.value
    weak = Fraction(l * top)
    if value > weak:  # m top is the integer minimum of C^{-1}'s rows, at least 1
        raise InternalInvariantError("inverse Cartan bound exceeds l p^d")
    return BoundReport(
        name="inverse Cartan bound",
        target="k(B)",
        value=value,
        citation="Brauer (5D)",
        weak_value=weak,
        inputs=_echo(l=l, minimum=mres.value, witness=mres.witness,
                     largest_elementary_divisor=top),
    )


def hks_bound(p: int, q: int, s: int, r: int, defect: int) -> BoundReport:
    """k0(B) <= (q + p^s (r^2 - 1)) / (q r) * p^d, for p > 2 and l(b) = 1.

    The l(b) = 1 hypothesis is the caller's responsibility.
    """
    if p == 2:
        raise DomainError("this height-zero bound requires p > 2")
    ntheory.check_prime_and_power(p, q)
    if s < 0 or r < 1 or r % p == 0:
        raise DomainError("need s >= 0 and r >= 1 coprime to p")
    if defect < 0 or p**defect % q:
        raise DomainError(
            "the subsection order q must divide p^defect (u lies in a defect group)"
        )
    value = Fraction(q + p**s * (r * r - 1), q * r) * p**defect
    return BoundReport(
        name="normalizer-quotient height-zero bound",
        target="k0(B)",
        value=value,
        citation="normalizer-quotient refinement for a single Brauer character",
        inputs=_echo(p=p, q=q, s=s, r=r, defect=defect),
    )


def dade_cyclic_bound(
    d_order: int, u_order: int, ne_cu: int, ce_u: int
) -> BoundReport:
    """Product bound for abelian defect groups with cyclic quotient D/<u>.

    Equals (a + (|<u>|-1)/a)(b + (|D:<u>|-1)/b) with a = |N_E(<u>)/C_E(u)| and
    b = |C_E(u)| = l(b); Dade's Cartan shape (m + delta_ij) makes this the
    weighted subsection bound with the path weight, which is cross-checked.
    """
    if u_order < 1 or d_order % u_order:
        raise DomainError("|<u>| must divide |D|")
    if d_order < 1 or ne_cu < 1 or ce_u < 1:
        raise DomainError("group orders must be positive")
    # for |D| = p^k > 1, |<u>|, a divisor of |D|, is a power of p too
    p = ntheory.prime_power_decomposition(d_order)[0] if d_order > 1 else None
    a, b = ne_cu, ce_u
    quotient = d_order // u_order
    m = Fraction(quotient - 1, b)
    first = a + Fraction(u_order - 1, a)
    second = b + m
    value = first * second
    if value > d_order:  # a or b too large for the orders of <u> and D/<u>
        raise DomainError("cyclic-defect product bound exceeded |D|")
    # cross-check the trace route: tr(U_b (m + delta)) = b + m
    w = wada_weight(b)
    cmat = RationalMatrix.filled(b, b, m) + RationalMatrix.identity(b)
    if trace_pairing(w.matrix, cmat) != second:
        raise InternalInvariantError("path-weight trace pairing differs from b + m")
    notes = []
    if p is not None and m.denominator == 1 and a % p and u_order > 1:
        try:
            gen = ntheory.unit_of_order(u_order, a)
        except DomainError:
            gen = None
        if gen is not None:
            spec = SubsectionSpec(p, u_order, (gen,))
            cartan = CartanData(cmat, p)
            cross = subsection_k_bound(cartan, spec, w)
            if cross.value != value:
                raise InternalInvariantError(
                    "weighted subsection bound differs from the product"
                )
            notes.append("verified against the weighted subsection bound")
    return BoundReport(
        name="cyclic quotient product bound",
        target="k(B)",
        value=value,
        citation="Dade cyclic-defect Cartan shape",
        weak_value=Fraction(d_order),
        inputs=_echo(d_order=d_order, u_order=u_order, ne_cu=a, ce_u=b),
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[BoundReport, ...]
    best_k: BoundReport | None
    best_k0: BoundReport | None
    notes: tuple[str, ...] = field(default_factory=tuple)


def compare_all(
    cartan_b: CartanData,
    spec: SubsectionSpec,
    *,
    forms=(),
    ordering=None,
    partition=None,
    known_kb: int | None = None,
    max_dim: int = DEFAULT_DIM_CAP,
) -> ComparisonReport:
    """Evaluate every applicable bound; deterministic row order.

    ``cartan_b`` is the Cartan matrix of b itself (q times the dominated
    block's matrix).  k(B)-targeted and k0(B)-targeted rows are ranked
    separately.  The defect-group conjecture comparison is informational
    output, never an assertion.
    """
    q = spec.q
    c_bar = _normalized_cartan(cartan_b, spec)
    l = cartan_b.l
    action = _of_degree(spec.ibr_action, l)
    rows: list[BoundReport] = []
    notes: list[str] = []

    classical = classical_bounds(cartan_b, ordering=ordering, partition=partition)
    for rep in classical:
        if q > 1 and rep.name in ("Brandt bound", "partition determinant bound"):
            notes.append(f"{rep.name} skipped: established only for the block's own "
                         "Cartan matrix (q = 1)")
            continue
        rows.append(rep)

    form_weights = []
    for idx, form in enumerate(forms, start=1):
        rep, w = _kw_report(cartan_b, form, max_dim)
        form_weights.append(w)
        rows.append(replace(rep, name=f"quadratic form bound (form #{idx})"))

    rows.append(inverse_cartan_bound(cartan_b, max_dim=max_dim))

    candidates = weight_candidates(c_bar, action, max_dim=max_dim)

    if spec.n % spec.p:
        for idx, w in enumerate(form_weights, start=1):
            rep = subsection_k_bound(c_bar, spec, w, max_dim=max_dim)
            rows.append(replace(rep, name=f"subsection k(B) bound (form #{idx})"))
        for wm, _tr in candidates:
            rep = subsection_k_bound(c_bar, spec, wm, max_dim=max_dim)
            rows.append(replace(rep, name=f"subsection k(B) bound ({wm.provenance})"))
    else:
        notes.append(
            "k(B) subsection bounds skipped: fusion quotient order is divisible by p"
        )

    best_weight = candidates[0][0]
    rows.append(subsection_k0_bound(c_bar, spec, best_weight, max_dim=max_dim))

    if action is not None and spec.p > 2 and spec.n_p == 1 and q > 1:
        w_aligned, _ = _aligned_weight(best_weight, spec, c_bar, max_dim)
        # sum_g C_bar P_g, entry by entry over the rows a of every C_bar P_g
        cp = _Expected(spec, c_bar, l).cp.values()
        summed = RationalMatrix([list(map(sum, zip(*rows))) for rows in zip(*cp)])
        # tr(W sum_g C_bar P_g) + (q - 1)/n tr(W C_bar)
        refined = trace_pairing(w_aligned.matrix, summed) + Fraction(
            q - 1, spec.n) * trace_pairing(w_aligned.matrix, c_bar)
        rows.append(
            BoundReport(
                name="refined k0(B) bound",
                target="k0(B)",
                value=refined,
                citation="trace against the summed fusion permutations",
                inputs=_echo(q=q, n=spec.n, weight=w_aligned.provenance),
            )
        )

    if l == 1 and spec.p > 2:
        [[top]] = cartan_b.ints
        if ntheory.is_power_of(top, spec.p):
            s_exp = ntheory.valuation(spec.n_p, spec.p)
            d = ntheory.valuation(top, spec.p)
            rows.append(hks_bound(spec.p, q, s_exp, spec.n_pprime, d))

    k_rows = [r for r in rows if r.target == "k(B)"]
    k0_rows = [r for r in rows if r.target == "k0(B)"]
    best_k = min(k_rows, key=lambda r: r.value) if k_rows else None
    best_k0 = min(k0_rows, key=lambda r: r.value) if k0_rows else None

    if cartan_b.defect is not None and best_k is not None:
        pd = Fraction(cartan_b.p**cartan_b.defect)
        verdict = "consistent with" if best_k.value <= pd else "above"
        notes.append(
            f"defect-group conjecture check (informational): best k(B) bound "
            f"{best_k.value} is {verdict} p^d = {pd}"
        )
    if known_kb is not None:
        for r in k_rows:
            if r.value < known_kb:
                notes.append(
                    f"WARNING: {r.name} = {r.value} lies below the known "
                    f"k(B) = {known_kb}; the inputs are inconsistent"
                )
        if best_k is not None and best_k.value == known_kb:
            notes.append(f"best k(B) bound attains the known value {known_kb}")

    return ComparisonReport(
        rows=tuple(rows), best_k=best_k, best_k0=best_k0, notes=tuple(notes)
    )
