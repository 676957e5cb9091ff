"""Acceptance criteria, one test per criterion.

Every comparison is exact rational equality; the only tolerances are the two
stated runtime limits.  Each test prints one PASS line so a verbose run reads
as a checklist.
"""

import random
import time
from fractions import Fraction

from blockbounds import (
    CartanData,
    CyclotomicInteger,
    PermutationAction,
    RationalMatrix,
    SubsectionSpec,
    block_tridiagonal_weight,
    classical_bounds,
    dade_cyclic_bound,
    form_minimum,
    fourier_split,
    hks_bound,
    inverse,
    inverse_cartan_bound,
    k0_semidirect,
    kw_bound,
    neg_residue_index,
    rank_check,
    subsection_k0_bound,
    subsection_k_bound,
    verify_gram_identity,
    verify_orthogonality,
    wada_weight,
)
from blockbounds.gendec import height_zero_valuation_check
from blockbounds.lattice import _form_minimum_cached
from blockbounds.ntheory import unit_of_order
from blockbounds.fixtures import agl18_cartan, agl18_form_triples, a4xa4_cartan

from conftest import (
    box_minimum,
    commutator_subgroup_order,
    conjugacy_class_count,
    entry_of,
    perm_matrix,
    random_pd_int_matrix,
    random_unimodular,
    reference_fourier_split,
    row_of,
    semidirect_c9_by_inversion,
)

N_CASES = 10_000


def test_criterion_1_agl18_example():
    c = CartanData(agl18_cartan(), 2, 3)
    _form_minimum_cached.cache_clear()
    t0 = time.monotonic()
    brauer = inverse_cartan_bound(c)
    kw = kw_bound(c, agl18_form_triples())
    wada = {r.name: r for r in classical_bounds(c)}["Wada bound"]
    elapsed = time.monotonic() - t0
    assert brauer.value == 10
    assert kw.value == 8
    assert wada.value == 10
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"\nACCEPTANCE 1 (agl18: 10 / 8 / 10 in {elapsed:.3f}s): PASS")


def test_criterion_2_a4xa4_example():
    c = CartanData(a4xa4_cartan(), 2, 4)
    _form_minimum_cached.cache_clear()
    t0 = time.monotonic()
    minimum = form_minimum(inverse(c.matrix))
    brauer = inverse_cartan_bound(c)
    elapsed = time.monotonic() - t0
    assert minimum.value == Fraction(9, 16)
    assert brauer.value == 16
    assert elapsed < 5.0, f"took {elapsed:.3f}s"
    print(f"ACCEPTANCE 2 (a4xa4: 9/16 and 16 in {elapsed:.3f}s): PASS")


def test_criterion_3_s3_subsection_fixture():
    spec = SubsectionSpec(3, 3, (2,), PermutationAction(1, [(0,)]))
    one = CyclotomicInteger.from_int(3, 1)
    data = fourier_split([[one], [one], [-1 * one]], spec)
    c_bar = CartanData(RationalMatrix([[1]]), 3)

    assert verify_orthogonality(data, c_bar).ok
    assert verify_gram_identity(data, c_bar).ok
    assert rank_check(data).ok
    assert all(
        height_zero_valuation_check(row_of(data, r), c_bar) for r in range(data.k)
    )

    rep = subsection_k_bound(c_bar, spec, wada_weight(1))
    assert rep.value == 3  # known k(B) for this block: equality case
    assert dict(rep.strict)["second_strict"] is False  # n = q - 1 = 2
    print("ACCEPTANCE 3 (q=3 subsection: verifiers pass, bound = k(B) = 3): PASS")


def test_criterion_4_k0_semidirect_table():
    assert k0_semidirect(SubsectionSpec(3, 9, (8,))) == 6
    assert k0_semidirect(SubsectionSpec(2, 8, (5,))) == 8
    assert k0_semidirect(SubsectionSpec(2, 8, (7,))) == 4

    # cross-validation of the first entry against a character-degree oracle
    elems, mul = semidirect_c9_by_inversion()
    k = conjugacy_class_count(elems, mul)
    linear = len(elems) // commutator_subgroup_order(elems, mul)
    nonlinear = k - linear
    # the remaining degrees are >= 2 with squares summing to |G| - linear,
    # which forces all of them to equal 2 exactly
    assert nonlinear * 4 == len(elems) - linear
    degrees = [1] * linear + [2] * nonlinear
    assert sum(1 for d in degrees if d % 3) == 6
    print("ACCEPTANCE 4 (k0 table 6/8/4, dihedral oracle agrees): PASS")


def test_criterion_5a_minimum_agrees_with_brute_force():
    rng = random.Random(501)
    for _ in range(N_CASES):
        g = random_pd_int_matrix(rng, rng.randint(1, 4))
        assert form_minimum(g).value == box_minimum(g)[0]
    print(f"ACCEPTANCE 5a (form minimum vs box oracle, {N_CASES} cases): PASS")


def test_criterion_5b_trace_pairing_basic_set_invariance():
    rng = random.Random(502)
    for _ in range(N_CASES):
        dim = rng.randint(1, 4)
        c = random_pd_int_matrix(rng, dim)
        w = random_pd_int_matrix(rng, dim)
        s = random_unimodular(rng, dim)
        sinv = inverse(s)
        lhs = ((sinv @ w @ sinv.transpose()) @ (s.transpose() @ c @ s)).trace()
        assert lhs == (w @ c).trace()
    print(f"ACCEPTANCE 5b (basic-set trace invariance, {N_CASES} cases): PASS")


def test_criterion_5c_permutation_trace_inequality():
    rng = random.Random(503)
    strict_seen = 0
    for _ in range(N_CASES):
        n = rng.randint(2, 3)
        perm = list(range(n))
        rng.shuffle(perm)
        p = perm_matrix(perm)
        base = random_pd_int_matrix(rng, n, spread=1)
        a = RationalMatrix.zeros(n, n)
        power = RationalMatrix.identity(n)
        while True:
            a = a + power @ base @ power.transpose()
            power = power @ p
            if power == RationalMatrix.identity(n):
                break
        b = random_pd_int_matrix(rng, n, spread=1)
        lhs = (a @ b @ p).trace()
        rhs = (a @ b).trace()
        if tuple(perm) == tuple(range(n)):
            assert lhs == rhs
        else:
            assert lhs < rhs
            strict_seen += 1
    assert strict_seen > N_CASES // 2
    print(f"ACCEPTANCE 5c (trace permutation inequality, {N_CASES} cases): PASS")


def test_criterion_5d_blowup_certificates():
    rng = random.Random(504)
    path_weights = [wada_weight(1), wada_weight(2), wada_weight(3)]
    for _ in range(N_CASES):
        if rng.random() < 0.5:
            # path weights commute with the order reversal
            w = rng.choice(path_weights).matrix
            n = w.rows
            perm = list(range(n))
            if rng.random() < 0.5:
                perm.reverse()
        else:
            # identity weights commute with every permutation
            n = rng.randint(1, 3)
            w = RationalMatrix.identity(n)
            perm = list(range(n))
            rng.shuffle(perm)
        m = rng.randint(1, 3)
        big = block_tridiagonal_weight(w, perm, m)
        assert big.certificate.value >= 1
    print(f"ACCEPTANCE 5d (blow-up certificates >= 1, {N_CASES} cases): PASS")


def test_criterion_5e_fourier_reassembly():
    rng = random.Random(505)
    conductors = (3, 4, 8, 9)
    for _ in range(N_CASES):
        q = rng.choice(conductors)
        p = 2 if q in (4, 8) else 3
        spec = SubsectionSpec(p, q)
        phi = q - q // p
        k, l = rng.randint(1, 3), rng.randint(1, 2)
        entries = [
            [
                CyclotomicInteger(q, [rng.randint(-3, 3) for _ in range(phi)])
                for _ in range(l)
            ]
            for _ in range(k)
        ]
        data = fourier_split(entries, spec)
        assert data.stack == reference_fourier_split(entries)
        for r in range(k):
            for c in range(l):
                assert entry_of(data, r, c) == entries[r][c]
    print(f"ACCEPTANCE 5e (fourier reassembly, {N_CASES} cases): PASS")


def test_criterion_5f_index_range_identity():
    checked = 0
    for q in (4, 8, 9, 16, 25, 27):
        p = next(f for f in range(2, q + 1) if q % f == 0)
        phi = q - q // p
        for i in range(1, phi + 1):
            ip = neg_residue_index(i, q, p)
            assert q // p <= i + ip <= phi
            checked += 1
    print(f"ACCEPTANCE 5f (index range identity, exhaustive {checked} cases): PASS")


def test_criterion_6_hks_consistency_with_k0_bound():
    rng = random.Random(6)
    tuples = []
    for p in (3, 5, 7, 11):
        for k in (1, 2, 3):
            q = p**k
            for s in range(min(k, 2)):
                for r in (x for x in (1, 2, 3, 4, 6) if (p - 1) % x == 0):
                    tuples.append((p, q, s, r, k + rng.randint(0, 2)))
    tuples = tuples[:24]
    assert len(tuples) >= 20
    for p, q, s, r, d in tuples:
        n = p**s * r
        g = unit_of_order(q, n)
        spec = SubsectionSpec(p, q, (g,))
        c_bar = CartanData(RationalMatrix([[p**d // q]]), p)
        via_theorem = subsection_k0_bound(c_bar, spec, wada_weight(1))
        assert via_theorem.value == hks_bound(p, q, s, r, d).value
    print(f"ACCEPTANCE 6 (normalizer-quotient bound consistency, {len(tuples)} tuples): PASS")


def test_criterion_7_cyclic_quotient_bound():
    from blockbounds.ntheory import prime_power_decomposition

    # trace identity for the cyclic-defect Cartan shape, all l <= 6, m <= 10
    for l in range(1, 7):
        for m in range(0, 11):
            cmat = RationalMatrix.filled(l, l, m) + RationalMatrix.identity(l)
            assert (wada_weight(l).matrix @ cmat).trace() == l + m

    # realizable parameter sweep: m l + 1 must be a power of a prime p, and
    # the inertial order a divides p - 1
    instances = 0
    for l in range(1, 7):
        for m in range(0 if l == 1 else 1, 11):
            quot = m * l + 1
            if quot == 1:
                p = 3  # defect group equals <u>
            else:
                try:
                    p, _ = prime_power_decomposition(quot)
                except ValueError:
                    continue
            u_order = p
            d_order = u_order * quot
            for a in range(1, p):
                if (p - 1) % a:
                    continue
                rep = dade_cyclic_bound(d_order, u_order, a, l)
                assert rep.value <= d_order
                cmat = RationalMatrix.filled(l, l, m) + RationalMatrix.identity(l)
                spec = SubsectionSpec(p, u_order, (unit_of_order(u_order, a),))
                cross = subsection_k_bound(
                    CartanData(cmat, p), spec, wada_weight(l)
                )
                assert rep.value == cross.value
                instances += 1
    assert instances >= 40
    print(f"ACCEPTANCE 7 (cyclic quotient bound, {instances} instances): PASS")
