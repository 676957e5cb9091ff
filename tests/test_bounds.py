import random
from fractions import Fraction
from itertools import permutations

import pytest

from blockbounds import (
    BoundReport,
    CartanData,
    DomainError,
    InconsistentDataError,
    InternalInvariantError,
    PermutationAction,
    PreconditionError,
    RationalMatrix,
    SubsectionSpec,
    classical_bounds,
    compare_all,
    dade_cyclic_bound,
    hks_bound,
    inverse_cartan_bound,
    k0_semidirect,
    kron,
    kw_bound,
    subsection_k0_bound,
    subsection_k_bound,
    wada_weight,
    weight_candidates,
)
from blockbounds.bounds import _aligned_weight, _normalized_cartan
from blockbounds.exactmat import _cleared_int_rows
from blockbounds.fixtures import agl18_cartan, agl18_form_triples, a4xa4_cartan
from blockbounds.lattice import DEFAULT_DIM_CAP
from blockbounds.ntheory import unit_of_order


from conftest import (
    commutator_subgroup_order,
    conjugacy_class_count,
    perm_matrix,
    random_unimodular,
    reference_trace_pairing,
    semidirect_c9_by_inversion,
)


def test_dihedral_oracle_for_k0():
    # independent derivation of the character degrees of the order-18 group
    elems, mul = semidirect_c9_by_inversion()
    k = conjugacy_class_count(elems, mul)
    linear = len(elems) // commutator_subgroup_order(elems, mul)
    assert k == 6 and linear == 2
    # remaining k - linear irreducibles have degree >= 2 and squared degrees
    # summing to |G| - linear = 16; four characters each at least 4 forces 2.
    nonlinear = k - linear
    assert nonlinear * 4 == len(elems) - linear
    degrees = [1] * linear + [2] * nonlinear
    k0_for_p3 = sum(1 for d in degrees if d % 3)
    assert k0_for_p3 == 6
    assert k0_semidirect(SubsectionSpec(3, 9, (8,))) == k0_for_p3


def test_k0_semidirect_examples():
    assert k0_semidirect(SubsectionSpec(3, 9, (8,))) == 6  # -1 mod 9
    assert k0_semidirect(SubsectionSpec(2, 8, (5,))) == 8
    assert k0_semidirect(SubsectionSpec(2, 8, (7,))) == 4  # -1 mod 8
    assert k0_semidirect(SubsectionSpec(3, 27, (unit_of_order(27, 6),))) == 18
    assert k0_semidirect(SubsectionSpec(5, 5, ())) == 5
    assert k0_semidirect(SubsectionSpec(2, 1, ())) == 1
    assert k0_semidirect(SubsectionSpec(2, 2, ())) == 2
    # order-3 sylow-only quotient at q = 9: n_p = 3, n + (9-3)/1 = 9
    assert k0_semidirect(SubsectionSpec(3, 9, (4,))) == 9


def test_spec_validation():
    with pytest.raises(DomainError):
        SubsectionSpec(3, 9, (3,))  # not a unit
    with pytest.raises(DomainError):
        SubsectionSpec(3, 8)  # q not a power of p
    with pytest.raises(DomainError):
        SubsectionSpec(4, 4)  # p not prime
    spec = SubsectionSpec(3, 9, (8,))
    assert spec.n == 2 and spec.n_p == 1 and spec.n_pprime == 2
    assert not spec.acts_nontrivially


def test_spec_rejects_non_integer_generators():
    # checked for every q, including q = 1 where generators are otherwise unused
    for q, p, gens in [(1, 2, "ab"), (1, 3, (True,)), (3, 3, (True,)),
                       (9, 3, (2.0,)), (9, 3, ("2",))]:
        with pytest.raises(DomainError, match="not an integer"):
            SubsectionSpec(p, q, gens)


def test_spec_action_consistency():
    act = PermutationAction(2, [(1, 0)])
    spec = SubsectionSpec(3, 9, (8,), act)
    assert spec.acts_nontrivially
    assert spec.perm_of(8, 2) == (1, 0)
    assert spec.perm_of(1, 2) == (0, 1)
    # -1 has order 2, so an order-3 permutation is inconsistent
    bad = PermutationAction(3, [(1, 2, 0)])
    with pytest.raises(DomainError):
        SubsectionSpec(3, 9, (8,), bad)


def symmetric_group_class_count(n):
    elems = list(permutations(range(n)))

    def mul(a, b):
        return tuple(a[x] for x in b)

    return conjugacy_class_count(elems, mul)


def test_subsection_k_bound_s3_oracle():
    # the full 3-block of the symmetric group on 3 letters: k(B) = 3
    assert symmetric_group_class_count(3) == 3
    cbar = CartanData(RationalMatrix([[1]]), 3)
    spec = SubsectionSpec(3, 3, (2,))
    rep = subsection_k_bound(cbar, spec, wada_weight(1))
    assert rep.value == 3
    assert rep.weak_value == 3
    flags = dict(rep.strict)
    assert flags["second_strict"] is False  # n = q - 1
    assert flags["first_strict"] is False


def test_subsection_k_bound_degenerate_subsection():
    cbar = CartanData(agl18_cartan(), 2, 3)
    spec = SubsectionSpec(2, 1)
    w = weight_candidates(cbar)[0][0]
    rep = subsection_k_bound(cbar, spec, w)
    assert rep.value == (w.matrix @ cbar.matrix).trace()


def test_subsection_k_bound_agl18_inverse_cartan_weight():
    cbar = CartanData(agl18_cartan(), 2, 3)
    spec = SubsectionSpec(2, 1)
    by_tag = {w.provenance: w for w, _ in weight_candidates(cbar)}
    rep = subsection_k_bound(cbar, spec, by_tag["inverse-cartan"])
    assert rep.value == 10


def test_subsection_k_bound_rejects_p_dividing_n():
    cbar = CartanData(RationalMatrix([[1]]), 3)
    spec = SubsectionSpec(3, 9, (4,))  # order 3 = p
    with pytest.raises(PreconditionError):
        subsection_k_bound(cbar, spec, wada_weight(1))


def test_normalized_cartan_divides_b_cartan():
    spec = SubsectionSpec(3, 3, (2,))
    c_of_b = CartanData(RationalMatrix([[3]]), 3)
    c_bar = _normalized_cartan(c_of_b, spec)
    assert c_bar.matrix == RationalMatrix([[1]])
    assert subsection_k_bound(c_bar, spec, wada_weight(1)).value == 3
    rows = {r.name: r for r in compare_all(c_of_b, spec).rows}
    rep = rows["subsection k(B) bound (wada-path)"]
    assert rep.value == 3 and dict(rep.inputs)["trace"] == "1"  # tr(C_b / q)
    bad = CartanData(RationalMatrix([[4]]), 3)
    with pytest.raises(DomainError, match="divisible by q = 3"):
        _normalized_cartan(bad, spec)
    with pytest.raises(DomainError, match="divisible by q = 3"):
        compare_all(bad, spec)


def test_normalized_cartan_is_derived_once_and_matches_a_fresh_one():
    # C_bar = C / q made from C's integer rows, and (rows, den / q) from C's
    # inverse when C's defect check computed it, equal a validated C_bar
    # with its own elimination; a second call returns the same object
    from blockbounds.exactmat import _inverse_rows

    rng = random.Random(59)
    for trial in range(40):
        n, p, v = 1 + trial % 6, rng.choice((2, 3, 5)), rng.randint(1, 2)
        s = random_unimodular(rng, n, ops=n + 2, coeffs=(1, 2))
        exps = [rng.randint(0, 2) for _ in range(n)]
        d = RationalMatrix([[p ** exps[r] if r == c else 0 for c in range(n)]
                            for r in range(n)])
        c_bar = s.transpose() @ d @ s
        spec = SubsectionSpec(p, p**v)
        for defect in (None, max(exps)):
            c = CartanData(c_bar.scale(p**v), p, None if defect is None else defect + v)
            got = _normalized_cartan(c, spec)
            assert got == CartanData(c_bar, p, defect) and got.ints == _cleared_int_rows(c_bar)[0]
            assert got.inverse_rows == _inverse_rows(c_bar)
            assert _normalized_cartan(c, spec) is got


def test_subsection_k0_bound_examples():
    w1 = wada_weight(1)
    rep = subsection_k0_bound(CartanData(RationalMatrix([[1]]), 5), SubsectionSpec(5, 5), w1)
    assert rep.value == 5
    rep = subsection_k0_bound(
        CartanData(RationalMatrix([[1]]), 3), SubsectionSpec(3, 9, (8,)), w1
    )
    assert rep.value == 6
    rep = subsection_k0_bound(
        CartanData(RationalMatrix([[1]]), 2), SubsectionSpec(2, 4, (3,)), w1
    )
    assert rep.value == 4


def test_classical_bounds_agl18():
    c = CartanData(agl18_cartan(), 2, 3)
    by_name = {r.name: r for r in classical_bounds(c)}
    assert by_name["trace bound"].value == 14
    assert by_name["Brandt bound"].value == 10
    assert by_name["Wada bound"].value == 14 - (0 + 0 + 1 + 3)
    assert by_name["Brauer-Feit bound"].value == 2**6


def test_classical_bounds_scalar():
    c = CartanData(RationalMatrix([[3]]), 3)
    by_name = {r.name: r for r in classical_bounds(c)}
    assert by_name["trace bound"].value == 3
    assert by_name["Brandt bound"].value == 3
    assert by_name["Wada bound"].value == 3


def test_partition_bound():
    c = CartanData(
        RationalMatrix([[2 if i == j else 1 for j in range(3)] for i in range(3)]), 2
    )
    reps = classical_bounds(c, partition=((0,), (1,), (2,)))
    by_name = {r.name: r for r in reps}
    assert by_name["partition determinant bound"].value == 2 + 2 + 2 - 3 + 1
    with pytest.raises(DomainError):
        classical_bounds(c, partition=((0,), (1,)))
    with pytest.raises(DomainError):
        classical_bounds(c, ordering=(0, 1))


def test_kw_bound_agl18():
    c = CartanData(agl18_cartan(), 2, 3)
    rep = kw_bound(c, agl18_form_triples())
    assert rep.value == 8


def test_kw_bound_unit_form_is_trace():
    c = CartanData(agl18_cartan(), 2, 3)
    rep = kw_bound(c, {(i, i): 1 for i in range(1, 6)})
    assert rep.value == c.matrix.trace() == 14


def test_kw_bound_wada_form_matches_wada():
    c = CartanData(agl18_cartan(), 2, 3)
    coeffs = {(i, i): 1 for i in range(1, 6)}
    coeffs.update({(i, i + 1): -1 for i in range(1, 5)})
    assert kw_bound(c, coeffs).value == 10


def test_kw_bound_equals_trace_pairing_on_random_forms():
    rng = random.Random(31)
    from blockbounds import from_quadratic_form

    count = 0
    while count < 30:
        l = rng.randint(1, 3)
        coeffs = {(i, i): rng.randint(1, 4) for i in range(1, l + 1)}
        for i in range(1, l + 1):
            for j in range(i + 1, l + 1):
                v = rng.randint(-1, 1)
                if v:
                    coeffs[(i, j)] = v
        try:
            w = from_quadratic_form(coeffs, size=l)
        except Exception:
            continue
        count += 1
        cm = RationalMatrix(
            [[rng.randint(0, 3) + (4 if i == j else 0) for j in range(l)] for i in range(l)]
        )
        cm = cm + cm.transpose()
        c = CartanData(cm, 2)
        assert kw_bound(c, coeffs).value == (w.matrix @ c.matrix).trace()


def test_inverse_cartan_bound_examples():
    assert inverse_cartan_bound(CartanData(agl18_cartan(), 2, 3)).value == 10
    assert inverse_cartan_bound(CartanData(a4xa4_cartan(), 2, 4)).value == 16
    rep = inverse_cartan_bound(CartanData(RationalMatrix([[3]]), 3))
    assert rep.value == 3
    assert rep.weak_value == 3


def test_inverse_cartan_bound_refuses_a_forged_inverse_below_one_over_p_d(monkeypatch):
    # the bound reads C^-1 from CartanData.inverse_rows: a forged pair there
    # is what the search sees.  A pair (rows, den) alone cannot put the
    # minimum below 1/den, since integer rows have minimum >= 1, so the forged
    # inverse reaches the search with 8 times its denominator while
    # p^d = den stays: minimum 1/16 < 1/8 gives l/m = 80 > l p^d = 40, a
    # wrong search result, so a library bug (exit 3 from the CLI)
    import blockbounds.bounds as bounds
    from blockbounds.lattice import _gram_form

    c = CartanData(agl18_cartan(), 2, 3)
    rows, den = c.inverse_rows
    c._inverse = ([[int(i == j) for j in range(5)] for i in range(5)], den)
    rep = inverse_cartan_bound(c)
    assert dict(rep.inputs)["minimum"] == "1/8" and rep.value == rep.weak_value == 40
    c._inverse = (rows, den)
    monkeypatch.setattr(bounds, "_gram_form", lambda ints, s: _gram_form(ints, 8 * s))
    with pytest.raises(InternalInvariantError, match=r"^inverse Cartan bound exceeds l p\^d$"):
        inverse_cartan_bound(c)
    monkeypatch.undo()
    assert inverse_cartan_bound(c).value == 10


def test_hks_bound_examples():
    assert hks_bound(3, 9, 0, 1, 2).value == 9  # trivial quotient: p^d
    assert hks_bound(3, 9, 0, 2, 2).value == 6
    assert hks_bound(3, 27, 1, 2, 3).value == 18
    with pytest.raises(DomainError):
        hks_bound(2, 8, 0, 1, 3)
    with pytest.raises(DomainError):
        hks_bound(3, 9, 0, 2, 1)  # q does not divide p^defect


def test_hks_matches_subsection_k0_for_scalar_cartan():
    rng = random.Random(32)
    cases = 0
    for p in (3, 5, 7):
        for k in (1, 2, 3):
            q = p**k
            for s in range(k):
                for r in (1, 2) if p > 2 else (1,):
                    if (p - 1) % r:
                        continue
                    n = p**s * r
                    try:
                        g = unit_of_order(q, n)
                    except ValueError:
                        continue
                    d = k + rng.randint(0, 2)
                    spec = SubsectionSpec(p, q, (g,))
                    assert spec.n == n
                    cbar = CartanData(RationalMatrix([[p**d // q]]), p)
                    rep = subsection_k0_bound(cbar, spec, wada_weight(1))
                    assert rep.value == hks_bound(p, q, s, r, d).value
                    cases += 1
    assert cases >= 20


def test_dade_cyclic_bound_examples():
    assert dade_cyclic_bound(9, 3, 1, 1).value == 9
    assert dade_cyclic_bound(27, 3, 2, 2).value == 18
    assert (dade_cyclic_bound(1, 1, 1, 1).value, dade_cyclic_bound(1, 1, 1, 1).notes) == (1, ())
    assert dade_cyclic_bound(9, 3, 2, 1).notes == (
        "verified against the weighted subsection bound",)
    # (Z/5)^x has no unit of order a = 3: unit_of_order raises DomainError and
    # the product stands without the weighted subsection cross-check
    rep = dade_cyclic_bound(25, 5, 3, 1)
    assert (rep.value, rep.notes) == (Fraction(65, 3), ())
    # trace identity for the cyclic-defect Cartan shape
    m, l = 2, 3
    cmat = RationalMatrix.filled(l, l, m) + RationalMatrix.identity(l)
    assert (wada_weight(l).matrix @ cmat).trace() == l + m == 5
    with pytest.raises(DomainError):
        dade_cyclic_bound(9, 2, 1, 1)
    with pytest.raises(DomainError):
        dade_cyclic_bound(18, 3, 1, 1)


def test_dade_cyclic_bound_is_bounded_on_a_huge_unit_group():
    # 2 * 3^29 units modulo 3^30: unit_of_order refuses them before listing
    # any, so the bound returns without its subsection cross-check.  Run in
    # a child process held to 60 s and 1 GiB of address space.
    import resource
    import subprocess
    import sys
    from pathlib import Path

    import blockbounds

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    script = (
        "import time; from blockbounds import DomainError, dade_cyclic_bound; "
        "from blockbounds.ntheory import unit_of_order; "
        "t = time.perf_counter(); rep = dade_cyclic_bound(3**30, 3**30, 2, 1)\n"
        "try:\n    unit_of_order(3**30, 2)\nexcept DomainError as exc:\n    err = str(exc)\n"
        "print(time.perf_counter() - t, rep.value, rep.notes, err)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(Path(blockbounds.__file__).parent.parent),
             "PYTHONDONTWRITEBYTECODE": "1"},
        preexec_fn=cap,
    )
    assert proc.returncode == 0, proc.stderr
    seconds, value, notes, err = proc.stdout.split(" ", 3)
    assert float(seconds) < 1
    assert value == str(2 + (3**30 - 1) // 2) and notes == "()"  # a + (u - 1) / a
    assert "more than 65536 units" in err


def test_subsection_k0_bound_attained_for_dihedral8():
    # u of order 4 in the dihedral group of order 8, inverted by a reflection:
    # the height-zero count is the abelianization order 4, and the bound hits it
    elems = [(a, s) for s in range(2) for a in range(4)]

    def mul(x, y):
        a, s = x
        b, t = y
        return ((a + (b if s == 0 else (-b) % 4)) % 4, (s + t) % 2)

    linear = len(elems) // commutator_subgroup_order(elems, mul)
    assert linear == 4  # k0 of a 2-group is |G : G'|
    spec = SubsectionSpec(2, 4, (3,))
    rep = subsection_k0_bound(CartanData(RationalMatrix([[1]]), 2), spec, wada_weight(1))
    assert rep.value == 4 == linear


def test_subsection_bounds_attained_for_direct_square():
    # diagonal subsection of order 3 in the direct square of the symmetric
    # group on 3 letters: C_bar = (3), fusion quotient of order 2, and both
    # bounds are attained (9 characters, all of height zero)
    assert symmetric_group_class_count(3) ** 2 == 9
    spec = SubsectionSpec(3, 3, (2,))
    c_bar = CartanData(RationalMatrix([[3]]), 3)
    w = weight_candidates(c_bar)[0][0]
    assert (w.matrix @ c_bar.matrix).trace() == 3  # best pairing for C = (3)
    k_rep = subsection_k_bound(c_bar, spec, w)
    k0_rep = subsection_k0_bound(c_bar, spec, w)
    assert k_rep.value == 9
    assert k0_rep.value == 9


def test_strictness_flag_with_nontrivial_action():
    action = PermutationAction(2, [(1, 0)])
    spec = SubsectionSpec(3, 3, (2,), action)
    c_bar = CartanData(RationalMatrix.identity(2), 3)
    from blockbounds import certified_weight

    w = certified_weight(RationalMatrix.identity(2), "identity")
    rep = subsection_k_bound(c_bar, spec, w)
    assert rep.value == 6  # (2 + 1) * tr(I I) = 6; strict since the action moves columns
    assert dict(rep.strict)["first_strict"] is True


def test_noncommuting_weight_is_symmetrized_with_note():
    action = PermutationAction(2, [(1, 0)])
    spec = SubsectionSpec(3, 3, (2,), action)
    c_bar = CartanData(RationalMatrix.identity(2), 3)
    from blockbounds import certified_weight

    skew = certified_weight(
        RationalMatrix([[1, 0], [0, 2]]), "diag(1,2)"
    )  # does not commute with the swap
    rep = subsection_k_bound(c_bar, spec, skew)
    assert rep.value == 9  # averaged weight is (3/2) I, trace pairing 3
    assert any("symmetrized" in n for n in rep.notes)


def test_compare_all_refined_k0_row_sharpens_under_nontrivial_action():
    action = PermutationAction(2, [(1, 0)])
    spec = SubsectionSpec(3, 3, (2,), action)
    cartan_b = CartanData(RationalMatrix.identity(2).scale(3), 3)
    report = compare_all(cartan_b, spec)
    by_name = {r.name: r for r in report.rows}
    assert by_name["subsection k0(B) bound"].value == 6
    refined = by_name["refined k0(B) bound"]
    assert refined.value == 4  # tr(WCP_N) + ((q-1)/n) tr(WC) = 2 + 2
    assert report.best_k0 is refined
    assert report.best_k.value == 6

    # seeded cases against the matrix formula, P_N summed from explicit
    # permutation matrices: (p, q, unit generator, order of the unit mod q)
    rng = random.Random(27)
    units = [(3, 3, 2, 2), (5, 5, 2, 4), (5, 5, 4, 2), (7, 7, 3, 6), (7, 7, 6, 2),
             (3, 9, 8, 2)]
    for case in range(24):
        p, q, unit, order = units[case % len(units)]
        l = rng.randint(2, 4)
        while True:
            perm = list(range(l))
            rng.shuffle(perm)
            pmat = perm_matrix(perm)
            power = RationalMatrix.identity(l)
            powers = []
            for _ in range(order):
                powers.append(power)
                power = power @ pmat
            if power == RationalMatrix.identity(l) != pmat:
                break
        spec = SubsectionSpec(p, q, (unit,), PermutationAction(l, [perm]))
        assert spec.acts_nontrivially and spec.n_p == 1
        a = RationalMatrix([[rng.randint(0, 2) for _ in range(l)] for _ in range(l)])
        base = a.transpose() @ a + RationalMatrix.identity(l)
        c_bar = RationalMatrix.zeros(l, l)
        for s in powers:  # average over <P> so the action fixes C_bar
            c_bar = c_bar + s @ base @ s.transpose()
        report = compare_all(CartanData(c_bar.scale(q), p), spec)
        refined = {r.name: r for r in report.rows}["refined k0(B) bound"]
        best = weight_candidates(CartanData(c_bar, p), spec.ibr_action)[0][0]
        w, _ = _aligned_weight(best, spec, CartanData(c_bar, p), DEFAULT_DIM_CAP)
        assert refined.inputs == (("n", str(spec.n)), ("q", str(q)),
                                  ("weight", w.provenance))
        p_n = RationalMatrix.zeros(l, l)
        for u in spec.elements:
            p_n = p_n + perm_matrix(spec.perm_of(u, l))
        wc = w.matrix @ c_bar
        assert refined.value == (wc @ p_n).trace() + Fraction(q - 1, spec.n) * wc.trace()


def _path_triples(order) -> list:
    triples = [(i, i, 1) for i in range(1, len(order) + 1)]
    triples += [(min(a, b), max(a, b), -1) for a, b in zip(order, order[1:])]
    return triples


def _kron_square_cases(rng):
    """(label, b's Cartan data, spec, forms): squares of Brauer stars m J + I,
    relabelled at random, with the factor swap as the action of the unit -1."""
    for e, p, q in [(2, 3, 3), (2, 3, 9), (3, 7, 7)]:
        m = (p - 1) // e
        star = RationalMatrix([[m + (i == j) for j in range(e)] for i in range(e)])
        perm = list(range(e * e))
        rng.shuffle(perm)
        swap = [0] * (e * e)
        for k in range(e * e):  # old index i e + j is new index perm[i e + j]
            swap[perm[k]] = perm[(k % e) * e + k // e]
        cartan_b = CartanData(kron(star, star).permuted(perm).scale(q), p)
        spec = SubsectionSpec(p, q, (q - 1,), PermutationAction(e * e, [swap]))
        order = list(range(1, e * e + 1))
        rng.shuffle(order)
        yield f"star({e}, {p})^2, q = {q}", cartan_b, spec, [_path_triples(order)]


def test_compare_all_sums_match_the_matrix_product_and_fraction_routes(monkeypatch):
    # oracles: the refined k0(B) row from W @ C_bar, the quadratic form rows
    # as Fraction sums, and every other row with the Fraction trace pairing
    import blockbounds.bounds as bounds
    import blockbounds.weights as weights

    rng = random.Random(1220)
    cases = [
        ("agl18", CartanData(agl18_cartan(), 2, 3), SubsectionSpec(2, 1),
         [agl18_form_triples()]),
        ("a4xa4", CartanData(a4xa4_cartan(), 2, 4), SubsectionSpec(2, 1),
         [_path_triples(rng.sample(range(1, 10), 9))]),
        *_kron_square_cases(rng),
    ]
    refined_rows = 0
    for label, cartan_b, spec, forms in cases:
        report = compare_all(cartan_b, spec, forms=forms)
        by_name = {r.name: r for r in report.rows}
        for idx, form in enumerate(forms, start=1):
            row = by_name[f"quadratic form bound (form #{idx})"]
            assert row.value == sum(
                Fraction(v) * cartan_b.matrix[i - 1, j - 1] for i, j, v in form
            ), label
        if spec.acts_nontrivially:
            c_bar = _normalized_cartan(cartan_b, spec)
            best = weight_candidates(c_bar, spec.ibr_action)[0][0]
            w, _ = _aligned_weight(best, spec, c_bar, DEFAULT_DIM_CAP)
            wc = w.matrix @ c_bar.matrix
            old = sum(
                wc[g_i, i]
                for unit in spec.elements
                for i, g_i in enumerate(spec.perm_of(unit, c_bar.l))
            ) + Fraction(spec.q - 1, spec.n) * wc.trace()
            refined = by_name["refined k0(B) bound"]
            assert refined.value == old, label
            # the action moves indices, so reading (W C)[i, i] for each g differs
            assert refined.value != (spec.n + Fraction(spec.q - 1, spec.n)) * wc.trace()
            refined_rows += 1
        with monkeypatch.context() as patched:
            patched.setattr(bounds, "trace_pairing", reference_trace_pairing)
            patched.setattr(weights, "trace_pairing", reference_trace_pairing)
            assert compare_all(cartan_b, spec, forms=forms) == report, label
    assert refined_rows == 3


def test_degenerate_subsection_equals_trace_bound_for_identity_weight():
    # q = 1 with the identity weight reproduces the classical trace bound
    from blockbounds import certified_weight

    c = CartanData(agl18_cartan(), 2, 3)
    ident = certified_weight(RationalMatrix.identity(5), "identity")
    rep = subsection_k_bound(c, SubsectionSpec(2, 1), ident)
    trace_row = {r.name: r for r in classical_bounds(c)}["trace bound"]
    assert rep.value == trace_row.value == 14


def test_convexity_of_subsection_factor():
    # n + (q-1)/n <= q over divisors n of q - 1, equality iff n in {1, q-1}
    for q in (3, 5, 9, 27, 25, 17):
        for n in range(1, q):
            if (q - 1) % n:
                continue
            value = Fraction(n) + Fraction(q - 1, n)
            assert value <= q
            assert (value == q) == (n in (1, q - 1))


def test_compare_all_scalar_bundle():
    # C = (3) with a q = 3 subsection: best bound is 3
    spec = SubsectionSpec(3, 3, (2,))
    report = compare_all(CartanData(RationalMatrix([[3]]), 3, 1), spec)
    assert report.best_k.value == 3
    assert any("subsection" in r.name for r in report.rows)
    assert report.best_k0.value == 3


def test_compare_all_agl18():
    spec = SubsectionSpec(2, 1)
    report = compare_all(
        CartanData(agl18_cartan(), 2, 3),
        spec,
        forms=[agl18_form_triples()],
        known_kb=8,
    )
    assert report.best_k.value == 8
    assert all(r.value >= 8 for r in report.rows if r.target == "k(B)")
    assert any("attains" in n for n in report.notes)


def test_bound_below_one_is_inconsistent_data():
    # inconsistent input, not malformed input: the CLI exits 1, not 2
    from blockbounds.cli import MATH_ERRORS

    with pytest.raises(InconsistentDataError, match="< 1"):
        BoundReport(name="toy bound", target="k(B)", value=Fraction(1, 2))
    assert InconsistentDataError in MATH_ERRORS
    assert not issubclass(InconsistentDataError, DomainError)


def test_compare_all_rejects_inconsistent_cartan():
    spec = SubsectionSpec(3, 3, (2,))
    with pytest.raises(DomainError):
        compare_all(CartanData(RationalMatrix([[4]]), 3), spec)


def test_bound_reports_floor_and_format():
    rep = inverse_cartan_bound(CartanData(a4xa4_cartan(), 2, 4))
    assert rep.integer_bound == 16
    assert rep.target == "k(B)"
    assert dict(rep.inputs)["minimum"] == "9/16"
