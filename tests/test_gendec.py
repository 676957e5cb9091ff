import random

import pytest

from blockbounds import (
    CartanData,
    CyclotomicInteger,
    DomainError,
    PermutationAction,
    RationalMatrix,
    SubsectionSpec,
    cyc_reduce,
    fourier_split,
    height_zero_valuation_check,
    neg_residue_index,
    rank,
    rank_check,
    verify_all,
    verify_gram_identity,
    verify_orthogonality,
)
from blockbounds.gendec import GenDecData, _vanishes
from blockbounds.ntheory import prime_and_phi, units_mod
from conftest import (
    DECOMPOSITION_D,
    data_from_cells,
    dense_gram_blocks,
    dihedral_cells,
    entry_of,
    field_trace,
    gendec_record,
    orbit_cells,
    q_matrix_of,
    reference_fourier_split,
    reference_gram_identity,
    reference_c_tilde,
    reference_height_zero,
    reference_orthogonality,
    reference_verify_all,
    row_of,
    zeta_power,
)


# ---------------------------------------------------------------------------
# independent polynomial oracle for the basis reduction


def cyclotomic_poly(q):
    """Coefficients of the prime-power cyclotomic polynomial, low to high."""
    p = next(f for f in range(2, q + 1) if q % f == 0)
    qp = q // p
    coeffs = [0] * (q - qp + 1)
    for j in range(p):
        coeffs[j * qp] = 1
    return coeffs


def poly_remainder(e, q):
    """x^e reduced modulo the cyclotomic polynomial, by long division."""
    mod = cyclotomic_poly(q)
    deg = len(mod) - 1
    work = [0] * max(e + 1, deg)
    work[e] = 1
    for top in range(e, deg - 1, -1):
        c = work[top]
        if c:
            for i, m in enumerate(mod):
                work[top - deg + i] -= c * m
    return work[:deg]


def to_power_basis(x: CyclotomicInteger):
    """Convert from the shifted basis zeta^1..zeta^phi to powers 0..phi-1."""
    q = x.q
    p = x.p
    phi = len(x.coeffs)
    qp = q // p
    out = [0] * phi
    for i, c in enumerate(x.coeffs, start=1):
        if i < phi:
            out[i] += c
        else:
            for j in range(p - 1):
                out[j * qp] -= c
    return out


def test_reduce_matches_polynomial_division():
    for q in (3, 4, 8, 9, 25, 27):
        for e in range(0, 2 * q):
            x = cyc_reduce({e % q: 1}, q)
            assert to_power_basis(x) == poly_remainder(e % q, q)


def test_reduce_examples():
    assert cyc_reduce({0: 1}, 3).coeffs == (-1, -1)
    assert cyc_reduce({0: 1}, 4).coeffs == (0, -1)
    assert cyc_reduce({7: 1}, 9).coeffs == (-1, 0, 0, -1, 0, 0)


def test_reduce_rejects_composite_conductor():
    with pytest.raises(DomainError):
        cyc_reduce({0: 1}, 6)
    with pytest.raises(DomainError, match="not a prime power"):
        CyclotomicInteger(12, [0] * 4)


def test_conductor_too_large_to_decide_is_not_called_composite():
    # the Mersenne prime 2^89 - 1 lies above the Miller-Rabin limit: the
    # primality test's own refusal comes through, not "not a prime power"
    with pytest.raises(DomainError, match="too large to test for primality"):
        CyclotomicInteger(2**89 - 1, [0])


def test_vanishing_test_matches_reduction():
    # coset-constant vectors (the kernel of Z[x]/(x^q - 1) -> Z[zeta_q]),
    # half of them perturbed in one coordinate
    rng = random.Random(7211)
    for q in (1, 2, 3, 4, 8, 9, 25, 27, 32):
        p = next((f for f in range(2, q + 1) if q % f == 0), 2)
        qp = q // p if q > 1 else 1
        seen = set()
        for _ in range(300):
            levels = [rng.randint(-3, 3) for _ in range(qp)]
            raw = [levels[e % qp] for e in range(q)]
            if rng.random() < 0.5:
                raw[rng.randrange(q)] += rng.choice((-2, -1, 1, 2))
            zero = cyc_reduce(raw, q).is_zero()
            # the test reads only the terms, so a dict without the zero
            # coefficients decides the same
            assert _vanishes(dict(enumerate(raw)), q, p) == zero, (q, raw)
            assert _vanishes({e: x for e, x in enumerate(raw) if x}, q, p) == zero, (q, raw)
            seen.add(zero)
        assert seen == {True, False}, q


def test_non_integer_coefficients_are_rejected():
    # coefficients must be ints; exponent keys may still be integer strings
    for make in (
        lambda: CyclotomicInteger(3, [1.5, 2.7]),
        lambda: CyclotomicInteger(3, [True, 0]),
        lambda: cyc_reduce({0: "2"}, 3),
        lambda: cyc_reduce([1.5], 3),
        lambda: cyc_reduce({0: 1.5}, 1),
    ):
        with pytest.raises(DomainError, match="must be integers"):
            make()
    assert cyc_reduce({"4": 1}, 3) == zeta_power(3, 1)


def test_integer_embedding():
    # the residue map zeta -> 1 identifies integers only modulo p
    for q, p in ((2, 2), (3, 3), (4, 2), (9, 3)):
        for n in (-3, 0, 1, 7):
            x = CyclotomicInteger.from_int(q, n)
            assert x.residue_at_one() % p == n % p
            assert x + CyclotomicInteger.from_int(q, -n) == CyclotomicInteger.zero(q)
            assert -x == CyclotomicInteger.from_int(q, -n) == x * -1
            assert hash(x) == hash(CyclotomicInteger.from_int(q, n))
    assert CyclotomicInteger.from_int(1, 5).coeffs == (5,)
    assert CyclotomicInteger.from_int(1, 5).residue_at_one() == 5


def test_galois_examples():
    x = zeta_power(3, 1)
    assert x.galois(1) == x
    assert x.galois(2) == zeta_power(3, 2)
    y = zeta_power(9, 1) + zeta_power(9, 3)
    image = y.galois(2)
    expected = zeta_power(9, 2) + cyc_reduce({6: 1}, 9)
    assert image == expected
    with pytest.raises(DomainError):
        x.galois(3)


def test_galois_is_a_ring_homomorphism():
    rng = random.Random(41)
    for q in (3, 4, 8, 9):
        units = units_mod(q)
        phi = prime_and_phi(q)[1]
        for _ in range(40):
            a = CyclotomicInteger(q, [rng.randint(-3, 3) for _ in range(phi)])
            b = CyclotomicInteger(q, [rng.randint(-3, 3) for _ in range(phi)])
            g = rng.choice(units)
            h = rng.choice(units)
            assert (a + b).galois(g) == a.galois(g) + b.galois(g)
            assert (a * b).galois(g) == a.galois(g) * b.galois(g)
            assert a.galois(h).galois(g) == a.galois(g * h % q)


def test_field_trace_values():
    assert field_trace(CyclotomicInteger.from_int(9, 1)) == 6
    assert field_trace(zeta_power(9, 3)) == -3
    assert field_trace(zeta_power(9, 1)) == 0


def test_field_trace_agrees_with_galois_sum():
    rng = random.Random(42)
    for q in (2, 3, 4, 8, 9, 27):
        phi = prime_and_phi(q)[1]
        for _ in range(25):
            x = CyclotomicInteger(q, [rng.randint(-4, 4) for _ in range(phi)])
            total = CyclotomicInteger.zero(q)
            for g in units_mod(q):
                total = total + x.galois(g)
            assert total == CyclotomicInteger.from_int(q, field_trace(x))


def test_neg_residue_index_examples():
    assert neg_residue_index(1, 9, 3) == 2
    assert neg_residue_index(3, 9, 3) == 0
    assert neg_residue_index(1, 4, 2) == 1
    assert neg_residue_index(2, 4, 2) == 0
    assert neg_residue_index(1, 1, 2) == 0
    with pytest.raises(DomainError):
        neg_residue_index(7, 9, 3)


def test_neg_residue_index_range_exhaustive():
    for q in (4, 8, 9, 16, 25, 27):
        p = next(f for f in range(2, q + 1) if q % f == 0)
        phi = q - q // p
        for i in range(1, phi + 1):
            ip = neg_residue_index(i, q, p)
            assert 0 <= ip < q // p
            assert (ip + i) % (q // p) == 0
            assert q // p <= i + ip <= phi


def s3_spec():
    return SubsectionSpec(3, 3, (2,), PermutationAction(1, [(0,)]))


def s3_data():
    one = CyclotomicInteger.from_int(3, 1)
    return fourier_split([[one], [one], [-1 * one]], s3_spec())


def test_fourier_split_s3_column():
    data = s3_data()
    expected = RationalMatrix([[-1], [-1], [1]])
    assert RationalMatrix(data.stack[0]) == expected
    assert RationalMatrix(data.stack[1]) == expected


def test_fourier_split_integer_matrix_reassembles():
    rng = random.Random(43)
    for q in (2, 3, 4, 9):
        spec = SubsectionSpec(2 if q in (1, 2, 4) else 3, q)
        entries = [
            [CyclotomicInteger.from_int(q, rng.randint(-5, 5)) for _ in range(2)]
            for _ in range(3)
        ]
        data = fourier_split(entries, spec)
        assert data.stack == reference_fourier_split(entries)
        for r in range(3):
            for c in range(2):
                assert entry_of(data, r, c) == entries[r][c]


def test_fourier_split_q4_column():
    i = zeta_power(4, 1)
    one = CyclotomicInteger.from_int(4, 1)
    data = fourier_split([[one], [i], [-1 * one]], SubsectionSpec(2, 4))
    assert RationalMatrix(data.stack[0]) == RationalMatrix([[0], [1], [0]])
    assert RationalMatrix(data.stack[1]) == RationalMatrix([[-1], [0], [1]])


def test_fourier_split_q1_is_identity():
    spec = SubsectionSpec(2, 1)
    entries = [[CyclotomicInteger.from_int(1, 3)], [CyclotomicInteger.from_int(1, -2)]]
    data = fourier_split(entries, spec)
    assert RationalMatrix(data.stack[0]) == RationalMatrix([[3], [-2]])


def cbar1(p):
    return CartanData(RationalMatrix([[1]]), p)


def test_verify_orthogonality_s3():
    report = verify_orthogonality(s3_data(), cbar1(3))
    assert report.ok


def test_verify_orthogonality_ordinary_decomposition():
    # q = 1: reduces to Q^t Q = C for the ordinary decomposition matrix
    spec = SubsectionSpec(2, 1)
    one = CyclotomicInteger.from_int(1, 1)
    zero = CyclotomicInteger.zero(1)
    # S4-style toy: 2x2 Cartan from a 3x2 decomposition matrix
    entries = [[one, zero], [one, one], [zero, one]]
    data = fourier_split(entries, spec)
    c = CartanData(RationalMatrix([[2, 1], [1, 2]]), 2)
    assert verify_orthogonality(data, c).ok


def test_verify_orthogonality_detects_sign_flip():
    data = s3_data()
    broken = GenDecData(
        (data.stack[0], RationalMatrix([[-1], [1], [1]])), data.spec
    )
    report = verify_orthogonality(broken, cbar1(3))
    assert not report.ok
    failing = report.failures()
    assert failing
    assert "entry" in failing[0].detail


def test_verify_gram_identity_s3():
    report = verify_gram_identity(s3_data(), cbar1(3))
    assert report.ok
    # q = p with full fusion quotient: every product equals C (P_N + P_{j^-1 i}),
    # which is the scalar 3 here
    data = s3_data()
    for i in (0, 1):
        for j in (0, 1):
            a_i, a_j = RationalMatrix(data.stack[i]), RationalMatrix(data.stack[j])
            prod = a_i.transpose() @ a_j
            assert prod == RationalMatrix([[3]])


def test_rank_check_s3():
    assert rank_check(s3_data()).ok  # rank 1 = l*phi/n


def c4_data():
    # the cyclic group of order 4: one subsection column (1, i, -1, -i)
    spec = SubsectionSpec(2, 4)
    entries = [
        [CyclotomicInteger.from_int(4, 1)],
        [zeta_power(4, 1)],
        [CyclotomicInteger.from_int(4, -1)],
        [zeta_power(4, 3)],
    ]
    return fourier_split(entries, spec)


def test_rank_check_c4():
    data = c4_data()
    assert data.k == 4
    assert rank_check(data).ok  # rank 2 = l*phi(4)/1


def test_rank_check_matches_rational_rank():
    # reference: exactmat.rank of A_1 .. A_phi side by side as a RationalMatrix
    rng = random.Random(109)
    for _ in range(60):
        q = rng.choice((1, 3, 4, 5, 9))
        spec = SubsectionSpec(2 if q in (1, 4) else 5 if q == 5 else 3, q)
        phi, k, l = prime_and_phi(q)[1], rng.randint(1, 6), rng.randint(1, 3)
        basis = [[rng.randint(-2, 2) for _ in range(l * phi)]
                 for _ in range(rng.randint(1, 3))]
        rows = [[sum(rng.randint(-1, 1) * v[c] for v in basis) for c in range(l * phi)]
                for _ in range(k)]
        stack = [[row[i * l:(i + 1) * l] for row in rows] for i in range(phi)]
        check = rank_check(GenDecData(stack, spec)).checks[0]
        want = rank(RationalMatrix(rows))
        assert check.detail.startswith(f"rank {want}, ")
        assert check.passed == (want == l * phi)


def test_verify_all_c4():
    report = verify_all(c4_data(), cbar1(2), heights=[0, 0, 0, 0])
    assert report.ok


def test_verify_q2_column():
    # cyclic group of order 2: decomposition column (1, -1), so Q^t Q = 2C
    spec = SubsectionSpec(2, 2)
    one = CyclotomicInteger.from_int(2, 1)
    data = fourier_split([[one], [-1 * one]], spec)
    assert verify_all(data, cbar1(2), heights=[0, 0]).ok


def test_height_zero_valuation_examples():
    one = CyclotomicInteger.from_int(3, 1)
    assert height_zero_valuation_check([one], cbar1(3))
    assert not height_zero_valuation_check([CyclotomicInteger.zero(3)], cbar1(3))
    assert height_zero_valuation_check([-1 * one], cbar1(3))
    # C_bar's own inverse rows: 3 C_bar^{-1} = [[2, -1], [-1, 2]], and p = 3
    c_bar = CartanData(RationalMatrix([[2, 1], [1, 2]]), 3)
    assert height_zero_valuation_check([one, 0], c_bar)
    assert height_zero_valuation_check([1, 1], c_bar)  # 2 - 1 - 1 + 2 = 2
    assert not height_zero_valuation_check([one, -1], c_bar)  # 2 + 1 + 1 + 2 = 6


def test_valuation_zero_rows_are_nonzero():
    data = s3_data()
    for r in range(data.k):
        if height_zero_valuation_check(row_of(data, r), cbar1(3)):
            assert any(not x.is_zero() for x in row_of(data, r))


def c9_c3_data():
    """Subsection data for the nonabelian group of order 27 with a cyclic
    subgroup of order 9: nine linear rows taking values 1, z^3, z^6 and two
    vanishing degree-3 rows; fusion quotient of order 3 generated by 4."""
    spec = SubsectionSpec(3, 9, (4,), PermutationAction(1, [(0,)]))
    rows = []
    for e in (0, 3, 6):
        for _ in range(3):
            rows.append([zeta_power(9, e)])
    rows.append([CyclotomicInteger.zero(9)])
    rows.append([CyclotomicInteger.zero(9)])
    return fourier_split(rows, spec)


def test_c9_c3_full_verification():
    data = c9_c3_data()
    cbar = cbar1(3)
    heights = [0] * 9 + [1, 1]
    report = verify_all(data, cbar, heights=heights)
    assert report.ok
    names = {c.name for c in report.checks}
    assert "p-index block vanishing" in names
    assert "sylow block vanishing" in names  # n_p = 3 here


def test_c9_c3_rank_and_heights():
    data = c9_c3_data()
    assert rank_check(data).ok  # rank 2 = 1*6/3
    # positive-height rows vanish, so they fail the valuation-zero test
    assert not height_zero_valuation_check(row_of(data, 9), cbar1(3))
    assert height_zero_valuation_check(row_of(data, 0), cbar1(3))


def swap_action_data():
    """Synthetic q = 3 data with l = 2 whose conjugation action swaps the two
    columns: Q = [[z, z^2], [z^2, z], [1, 1]].  Conjugating maps each entry to
    its swap-partner, so P_2 is the transposition, and Q^t conj(Q) = 3 I."""
    z = zeta_power(3, 1)
    z2 = zeta_power(3, 2)
    one = CyclotomicInteger.from_int(3, 1)
    spec = SubsectionSpec(3, 3, (2,), PermutationAction(2, [(1, 0)]))
    return fourier_split([[z, z2], [z2, z], [one, one]], spec)


def test_swap_action_verifies_with_nontrivial_permutation():
    data = swap_action_data()
    c_bar = CartanData(RationalMatrix.identity(2), 3)
    assert data.spec.acts_nontrivially
    report = verify_all(data, c_bar, heights=[0, 0, 0])
    assert report.ok
    # the Galois-twisted product at (1, 2) really is 3 * swap, not diagonal
    q = q_matrix_of(data)
    prod_01 = sum(
        (q[r][0] * q[r][1] for r in range(3)), CyclotomicInteger.zero(3)
    )
    assert prod_01 == CyclotomicInteger.from_int(3, 3)


def test_swap_action_fails_with_wrong_permutation():
    # declaring the action trivial breaks the Galois orthogonality check
    z = zeta_power(3, 1)
    z2 = zeta_power(3, 2)
    one = CyclotomicInteger.from_int(3, 1)
    spec = SubsectionSpec(3, 3, (2,), PermutationAction(2, [(0, 1)]))
    data = fourier_split([[z, z2], [z2, z], [one, one]], spec)
    c_bar = CartanData(RationalMatrix.identity(2), 3)
    report = verify_orthogonality(data, c_bar)
    assert not report.ok
    assert any(c.name == "galois-orthogonality" for c in report.failures())


def dihedral8_data():
    """Subsection of order 4 in the dihedral group of order 8: the reflection
    inverts u, the five character values at u are (1, 1, -1, -1, 0), and the
    zeta-coefficient block A_1 vanishes entirely."""
    spec = SubsectionSpec(2, 4, (3,), PermutationAction(1, [(0,)]))
    one = CyclotomicInteger.from_int(4, 1)
    zero = CyclotomicInteger.zero(4)
    rows = [[one], [one], [-1 * one], [-1 * one], [zero]]
    return fourier_split(rows, spec)


def test_dihedral8_subsection_verifies():
    data = dihedral8_data()
    c_bar = cbar1(2)
    assert RationalMatrix(data.stack[0]) == RationalMatrix([[0], [0], [0], [0], [0]])
    report = verify_all(data, c_bar, heights=[0, 0, 0, 0, 1])
    assert report.ok
    assert rank_check(data).ok  # rank 1 = 1*2/2


def test_direct_square_subsection_with_larger_cartan():
    # diagonal subsection in a direct square: C_bar = (3), q = 3, all nine
    # rows integral with values from the tensor square of (1, 1, -1)
    spec = SubsectionSpec(3, 3, (2,), PermutationAction(1, [(0,)]))
    vals = [1, 1, -1]
    rows = [
        [CyclotomicInteger.from_int(3, a * b)] for a in vals for b in vals
    ]
    data = fourier_split(rows, spec)
    c_bar = CartanData(RationalMatrix([[3]]), 3)
    report = verify_all(data, c_bar, heights=[0] * 9)
    assert report.ok


def test_gendec_data_validation():
    spec = SubsectionSpec(3, 3, (2,))
    with pytest.raises(DomainError):
        GenDecData((RationalMatrix([[1]]),), spec)  # needs phi(3) = 2 matrices
    with pytest.raises(DomainError):
        GenDecData((RationalMatrix([[1]]), RationalMatrix([[1], [2]])), spec)
    with pytest.raises(DomainError, match="coefficient matrices must be integral"):
        GenDecData((RationalMatrix([[1]]), RationalMatrix([["1/2"]])), spec)
    with pytest.raises(DomainError, match="at least 1x1"):
        GenDecData(([[]], [[]]), spec)  # 0 wide
    # Fractions and strings that are integers become the same int stack
    data = GenDecData((RationalMatrix([["4/2"]]), [["-3"]]), spec)
    assert data.stack == (((2,),), ((-3,),))
    assert all(type(x) is int for m in data.stack for row in m for x in row)


# ---------------------------------------------------------------------------
# the integer verifiers against the phi(q)^2-pair reference loops


def oracle_cases():
    """(label, data, C_bar, corrupt?) over seeded dihedral data, some of it
    Kronecker-expanded, the swap-action data, and corrupted copies: one
    entry doubled, one entry replaced, a wrong permutation action."""
    rng = random.Random(9041)
    for q in (3, 4, 5, 7, 8, 9, 16, 25, 27):
        for expand in (False, True) if q in (3, 4, 8, 9) else (False,):
            cells, cbar, _ = dihedral_cells(q, expand)
            rng.shuffle(cells)
            label = f"q={q}" + (" expanded" if expand else "")
            yield label, *data_from_cells(q, cells, cbar), False
            spots = [(r, c) for r, row in enumerate(cells) for c, x in enumerate(row)
                     if not cyc_reduce(x, q).is_zero()]
            r, c = rng.choice(spots)
            doubled = [[dict(x) for x in row] for row in cells]
            doubled[r][c] = {e: 2 * a for e, a in cells[r][c].items()}
            yield label + " doubled", *data_from_cells(q, doubled, cbar), True
            replaced = [[dict(x) for x in row] for row in cells]
            replaced[r][c] = {rng.randrange(q): rng.choice((-2, -1, 1, 2)),
                              rng.randrange(q): rng.choice((-1, 1))}
            yield label + " replaced", *data_from_cells(q, replaced, cbar), None
            if len(cbar) > 1:
                swap = (1, 0) + tuple(range(2, len(cbar)))
                yield (label + " wrong action",
                       *data_from_cells(q, cells, cbar, perm=swap), True)
    # a larger fusion quotient, with the Sylow block check (n_p = 3)
    cells, cbar, _ = dihedral_cells(9)
    yield "q=9 N=<4>", *data_from_cells(9, cells, cbar, gens=(4,)), None
    cells, cbar, _ = dihedral_cells(25)
    yield "q=25 N=<7>", *data_from_cells(25, cells, cbar, gens=(7,)), None
    swap = swap_action_data()
    identity = CartanData(RationalMatrix.identity(2), 3)
    yield "swap action", swap, identity, False
    wrong = GenDecData(swap.stack, SubsectionSpec(3, 3, (2,), PermutationAction(2, [(0, 1)])))
    yield "swap action, wrong action", wrong, identity, True
    doubled = GenDecData(
        (RationalMatrix(swap.stack[0]).scale(2), swap.stack[1]), swap.spec
    )
    yield "swap action, doubled", doubled, identity, True


def test_integer_verifiers_match_pair_loop_reference():
    # the non-involutive actions whose pair loop stays small (phi(q) <= 8)
    orbits = [(label, data, c_bar, label.endswith("inverse"))
              for label, data, c_bar, _ in non_involutive_cases()
              if prime_and_phi(data.q)[1] <= 8]
    for label, data, c_bar, corrupt in [*oracle_cases(), *orbits]:
        pairs = len(units_mod(data.q)) ** 2
        ortho = verify_orthogonality(data, c_bar).checks
        ref_ortho, failing = reference_orthogonality(data, c_bar)
        assert [c.name for c in ortho] == [c.name for c in ref_ortho.checks], label
        for new, old in zip(ortho, ref_ortho.checks):
            assert new.passed == old.passed, (label, new.name)
            if new.name == "galois-orthogonality" and failing:
                # the first failing pair and entry, now after the count
                assert new.detail == (
                    f"{failing} of {pairs} Galois pairs fail; first "
                    + old.detail.removeprefix("pair ")
                ), label
            else:
                assert new.detail == old.detail, (label, new.name)

        gram = verify_gram_identity(data, c_bar).checks
        ref_gram = reference_gram_identity(data, c_bar).checks
        ref_failing = [(c.name, c.detail) for c in ref_gram
                       if c.name.startswith("gram(") and not c.passed]
        new_gram = [c for c in gram if c.name.startswith("gram")]
        if ref_failing:
            assert not any(c.passed for c in new_gram), label
            assert [(c.name, c.detail) for c in new_gram] == ref_failing, label
        else:
            assert [(c.name, c.passed) for c in new_gram] == [("gram", True)], label
            assert new_gram[0].detail == f"all {pairs} products A_i^t A_j match"
        others = [(c.name, c.passed, c.detail) for c in gram if not c.name.startswith("gram")]
        assert others == [(c.name, c.passed, c.detail) for c in ref_gram
                          if not c.name.startswith("gram")], label

        ok = all(c.passed for c in ortho + gram)
        if corrupt is not None:
            assert ok == (not corrupt), label
        ct = reference_c_tilde(c_bar)
        for r in range(data.k):
            row = row_of(data, r)
            assert height_zero_valuation_check(row, c_bar) == \
                reference_height_zero(row, ct, data.p, data.q), (label, r)


# ---------------------------------------------------------------------------
# verify_all against its reduce-and-compare reference, and the one Gram pass


def q1_data(m, d, p):
    """q = 1 data: the stack (m,) against C = d^t d, valid when m = d."""
    cbar = [[sum(x[i] * x[j] for x in d) for j in range(len(d[0]))]
            for i in range(len(d[0]))]
    return GenDecData([m], SubsectionSpec(p, 1)), CartanData(RationalMatrix(cbar), p)


def reference_cases():
    """(label, data, C_bar, heights): seeded dihedral data for q in
    {2, 4, 8, 9, 27, 32}, plain and Kronecker-expanded with the decomposition
    matrix of S3 or A4, and the ordinary decomposition matrices at q = 1;
    each valid, with one nonzero entry doubled and with one entry replaced.
    The heights are seeded, so height-zero rows both pass and fail."""
    rng = random.Random(6113)
    for p, d in sorted(DECOMPOSITION_D.items()):
        for label, m in ((f"q=1 p={p}", d),
                         (f"q=1 p={p} doubled", [[2 * x for x in d[0]]] + d[1:])):
            data, c_bar = q1_data(m, d, p)
            yield label, data, c_bar, [rng.randint(0, 1) for _ in m]
    for q in (2, 4, 8, 9, 27, 32):
        for expand in (False, True):
            cells, cbar, _ = dihedral_cells(q, expand)
            rng.shuffle(cells)
            spots = [(r, c) for r, row in enumerate(cells) for c, x in enumerate(row)
                     if not cyc_reduce(x, q).is_zero()]
            r, c = rng.choice(spots)
            doubled = [[dict(x) for x in row] for row in cells]
            doubled[r][c] = {e: 2 * a for e, a in cells[r][c].items()}
            replaced = [[dict(x) for x in row] for row in cells]
            replaced[r][c] = {rng.randrange(q): rng.choice((-2, -1, 1, 2)),
                              rng.randrange(q): rng.choice((-1, 1))}
            base = f"q={q}" + (" expanded" if expand else "")
            for label, variant in ((base, cells), (base + " doubled", doubled),
                                   (base + " replaced", replaced)):
                heights = [rng.randint(0, 1) for _ in variant]
                yield label, *data_from_cells(q, variant, cbar), heights


def test_verify_all_matches_reduce_and_compare_reference():
    outcomes = set()
    for label, data, c_bar, heights in reference_cases():
        for hs in (heights, None):
            report = verify_all(data, c_bar, hs)
            assert report.checks == reference_verify_all(data, c_bar, hs).checks, label
            outcomes.update((c.name, c.passed) for c in report.checks)
            if data.q == 1:
                outcomes.add(("q=1 orthogonality", report.checks[0].passed))
    # every check the zero test and the residue sums decide went both ways,
    # at q = 1 as well
    for name in ("orthogonality", "galois-orthogonality", "height-zero valuations",
                 "q=1 orthogonality"):
        assert {(name, True), (name, False)} <= outcomes, name


def test_orthogonality_reduces_only_the_reported_entries(monkeypatch):
    # a failing gamma keeps only the position of its first failing entry;
    # the two entries the details show (gamma = 1 and the least delta) are
    # the only ones reduced, each with its expected integer (from_int)
    import blockbounds.gendec as gendec

    reduced = []
    cyc_reduce = gendec.cyc_reduce

    def counted(raw, q):
        reduced.append(q)
        return cyc_reduce(raw, q)

    monkeypatch.setattr(gendec, "cyc_reduce", counted)
    most_failing = 0
    for label, data, c_bar, _ in reference_cases():
        reduced.clear()
        checks = verify_orthogonality(data, c_bar).checks
        assert len(reduced) <= (0 if checks[1].passed else 4), label
        assert checks == reference_verify_all(data, c_bar).checks[:3], label
        galois = checks[1]
        if not galois.passed:
            failing = int(galois.detail.split()[0]) // len(units_mod(data.q))
            most_failing = max(most_failing, failing)
    assert most_failing > 2  # so one reduction per failing gamma would show


def test_gram_blocks_are_built_once_per_data(monkeypatch):
    import blockbounds.gendec as gendec

    built = []
    gram_blocks = gendec._gram_blocks
    monkeypatch.setattr(
        gendec, "_gram_blocks", lambda data: built.append(data) or gram_blocks(data)
    )
    cells, cbar, heights = dihedral_cells(9, expand=True)
    doubled = [[dict(x) for x in row] for row in cells]
    doubled[2][0] = {e: 2 * a for e, a in cells[2][0].items()}
    for variant in (cells, doubled):
        built.clear()
        data, c_bar = data_from_cells(9, variant, cbar)
        report = verify_all(data, c_bar, heights)
        assert built == [data]
        # each verifier on fresh data, called alone, gives the same rows
        ortho = verify_orthogonality(data_from_cells(9, variant, cbar)[0], c_bar).checks
        gram = verify_gram_identity(data_from_cells(9, variant, cbar)[0], c_bar).checks
        assert report.checks[: len(ortho) + len(gram)] == ortho + gram
        assert len(built) == 3
    assert not report.ok


# ---------------------------------------------------------------------------
# the one stack producer, and the expected data shared by the verifiers


def test_split_cells_reduces_every_cell_into_the_stack():
    import blockbounds.gendec as gendec

    rng = random.Random(2207)
    for q in (2, 4, 8, 9, 25, 27, 32):
        for expand in (False, True) if q in (4, 8, 9, 27) else (False,):
            cells, cbar, _ = dihedral_cells(q, expand)
            # exponents shifted by multiples of q reduce alike
            shifted = [[{e + q * rng.randint(-2, 2): c for e, c in cell.items()}
                        for cell in row] for row in cells]
            spec = data_from_cells(q, cells, cbar)[0].spec
            data = gendec._split_cells([[list(c.items()) for c in row] for row in shifted],
                                       spec)
            assert data.stack == data_from_cells(q, cells, cbar)[0].stack
            entries = [[cyc_reduce(cell, q) for cell in row] for row in cells]
            assert fourier_split(entries, spec).stack == data.stack
            assert data.stack == reference_fourier_split(entries)
            # the independent oracle: polynomial division, cell by cell
            for r, row in enumerate(cells):
                for c, cell in enumerate(row):
                    got = CyclotomicInteger(q, [m[r][c] for m in data.stack])
                    want = [0] * len(data.stack)
                    for e, x in cell.items():
                        want = [a + x * b for a, b in zip(want, poly_remainder(e % q, q))]
                    assert to_power_basis(got) == want, (q, r, c)
    with pytest.raises(DomainError, match="one length"):
        gendec._split_cells([[[(0, 1)]], []], SubsectionSpec(3, 3))
    with pytest.raises(DomainError, match="at least 1x1"):
        gendec._split_cells([], SubsectionSpec(3, 3))


def random_powers(rng: random.Random, q: int, k: int, l: int) -> list:
    """k x l cells of (exponent, coefficient) pairs with exponents from -2q
    to 3q, most of them at or past phi(q), and terms that cancel: by a shift
    of q, or over a whole coset e + (q/p)Z.  About one row in four is such
    a cancellation alone, a zero row with nonzero input."""
    p = next(f for f in range(2, q + 1) if q % f == 0)
    cells = []
    for _ in range(k):
        zero_row = rng.random() < 0.25
        row = []
        for _ in range(l):
            e, c = rng.randint(-2 * q, 3 * q), rng.randint(1, 3)
            pairs = [] if zero_row else [(rng.randint(-2 * q, 3 * q), rng.randint(-3, 3))
                                         for _ in range(rng.randint(0, 4))]
            pairs += rng.choice(([], [(e, c), (e + q, -c)],
                                 [(e + j * q // p, c) for j in range(p)]))
            rng.shuffle(pairs)
            row.append(pairs)
        cells.append(row)
    return cells


def test_rows_round_trip_and_match_the_dense_oracles():
    import blockbounds.gendec as gendec

    rng = random.Random(4409)
    cancelled = 0
    for q in (2, 4, 8, 3, 9, 27, 5, 25):
        p = next(f for f in range(2, q + 1) if q % f == 0)
        phi = prime_and_phi(q)[1]
        for _ in range(8):
            k, l = rng.randint(1, 6), rng.randint(1, 3)
            spec = SubsectionSpec(p, q, (q - 1,), PermutationAction(l, [tuple(range(l))]))
            cells = random_powers(rng, q, k, l)
            data = gendec._split_cells(cells, spec)
            # the dense stack entry by entry, each checked by polynomial division
            entries = []
            for row in cells:
                entries.append([])
                for pairs in row:
                    raw, want = [0] * q, [0] * phi
                    for e, x in pairs:
                        raw[e % q] += x
                        want = [a + x * b for a, b in zip(want, poly_remainder(e % q, q))]
                    entries[-1].append(cyc_reduce(raw, q))
                    assert to_power_basis(entries[-1][-1]) == want
            stack = tuple(tuple(tuple(x.coeffs[i] for x in row) for row in entries)
                          for i in range(phi))
            # powers and stack input give equal data; stack -> rows -> stack
            from_stack = GenDecData(stack, spec)
            assert (from_stack.rows, from_stack.k, from_stack.l) == (data.rows, k, l)
            assert data.stack == from_stack.stack == stack
            assert GenDecData(data.stack, spec).rows == data.rows
            assert all(x for terms in data.rows for _, _, x in terms)
            assert data.gram_blocks == dense_gram_blocks(data)
            c_bar = CartanData(RationalMatrix([[int(a == b) for b in range(l)]
                                               for a in range(l)]), p)
            heights = [rng.randint(0, 1) for _ in range(k)]
            assert (verify_all(data, c_bar, heights).checks
                    == reference_verify_all(data, c_bar, heights).checks), (q, cells)
            cancelled += sum(1 for row, terms in zip(cells, data.rows)
                             if any(row) and not terms)
    assert cancelled > 5
    # rows zeta + zeta^2 and zeta - zeta^2: A_1^t A_2 sums to zero and keeps its key
    data = gendec._split_cells([[[(1, 1), (2, 1)]], [[(1, 1), (2, -1)]]], SubsectionSpec(5, 5))
    assert data.gram_blocks == dense_gram_blocks(data)
    assert data.gram_blocks[1, 2] == [[0]]


def test_verify_all_never_builds_the_dense_stack(monkeypatch):
    from blockbounds.cli import _load_gendec
    from blockbounds.fixtures import s3_subsection

    built = []
    dense = GenDecData.stack
    monkeypatch.setattr(GenDecData, "stack",
                        property(lambda data: built.append(data) or dense.fget(data)))
    cells, cbar, heights = dihedral_cells(2187)
    data, c_bar, hs = _load_gendec(gendec_record(2187, cells, cbar, heights), "d2187.json")
    assert verify_all(data, c_bar, hs).ok
    assert built == []
    # the S3 column at q = 3^9: almost every product A_i^t A_j fails
    rec = s3_subsection()
    rec["q"] = rec["spec"]["q"] = 3**9
    rec["spec"]["n_generators"] = [3**9 - 1]
    data, c_bar, hs = _load_gendec(rec, "s3.json")
    report = verify_all(data, c_bar, hs)
    assert not report.ok and len(report.failures()) > 50000
    assert len(built) <= 1


def non_commuting_cases():
    """(label, data, C_bar, heights): Kronecker-expanded dihedral data, N = <-1>
    acting by a column swap, with a C_bar that the swap does not fix (so R
    itself fails the commutation row) and with the data's own C_bar."""
    for q, cbar in ((9, [[3, 1], [1, 2]]), (8, [[3, 1, 1], [1, 2, 1], [1, 1, 2]])):
        cells, own, heights = dihedral_cells(q, expand=True)
        swap = (1, 0) + tuple(range(2, len(own)))
        for label, c in (("foreign", cbar), ("own", own)):
            yield (f"q={q} swap {label}",
                   *data_from_cells(q, cells, c, perm=swap), heights)


def non_involutive_cases():
    """(label, data, C_bar, heights): the q linear characters of C_q at an
    N-orbit of zeta (``orbit_cells``) with N = <2> of order 3 at q = 7, <5>
    of order 4 at 13, <3> of order 4 at 16 (p = 2, a unit group that is not
    cyclic) and <7> of order 4 at 25, each acting on the columns by its
    natural cycle (valid data) and by the inverse cycle.  All-zero heights
    fail the valuation row when p divides n, so q = 16 has none."""
    for q, gen in ((7, 2), (13, 5), (16, 3), (25, 7)):
        cells, identity, shift = orbit_cells(q, gen)
        inverse = tuple(shift.index(i) for i in range(len(shift)))
        heights = None if q == 16 else [0] * q
        for label, perm in (("natural", shift), ("inverse", inverse)):
            yield (f"q={q} N=<{gen}>, {label}",
                   *data_from_cells(q, cells, identity, gens=(gen,), perm=perm), heights)


def unit_multiple_cases():
    """(label, data, C_bar, heights): dihedral data with one row multiplied
    by zeta or -zeta^2.  Q^t conj(Q) does not change, so plain
    orthogonality still holds while the Gram and Galois checks fail."""
    for q in (8, 9, 27):
        for expand in (False, True) if q < 27 else (False,):
            cells, cbar, heights = dihedral_cells(q, expand)
            for label, e0, c0 in (("zeta", 1, 1), ("-zeta^2", 2, -1)):
                moved = [[dict(x) for x in row] for row in cells]
                moved[0] = [{(e + e0) % q: c0 * c for e, c in x.items()} for x in cells[0]]
                yield (f"q={q}" + (" expanded" if expand else "") + f", row 0 times {label}",
                       *data_from_cells(q, moved, cbar), heights)


def test_verify_all_with_one_expected_matches_the_reference(monkeypatch):
    import blockbounds.gendec as gendec

    built = []
    expected = gendec._Expected

    def counted(*args):
        built.append(args)
        return expected(*args)

    monkeypatch.setattr(gendec, "_Expected", counted)
    cases = [*reference_cases(), *non_commuting_cases(), *non_involutive_cases(),
             *unit_multiple_cases()]
    for label, data, c_bar, hs in cases:
        ref = reference_verify_all(data, c_bar, hs).checks
        bare = ref if hs is None else ref[:-1]  # without the height row
        built.clear()
        # the two verifiers share one _Expected, and nothing outlives the call
        for _ in range(2):
            assert verify_all(data, c_bar, hs).checks == ref, label
            assert verify_all(data, c_bar, None).checks == bare, label
        assert len(built) == 4, label
        # each verifier called alone builds its own and gives the same rows
        ortho = verify_orthogonality(data, c_bar).checks
        gram = verify_gram_identity(data, c_bar).checks
        assert ref[: len(ortho) + len(gram)] == ortho + gram, label
        if " swap " in label:
            # the commutation row follows C_bar, not the data
            assert ortho[2].passed == label.endswith("own"), label


# ---------------------------------------------------------------------------
# verify_all's shortcut: the rows that the Gram comparison decides


def shortcut_cases():
    """Every (label, data, C_bar, heights) case of this file, and valid
    dihedral data at q = 81 and 243, plain and Kronecker-expanded."""
    yield from reference_cases()
    for label, data, c_bar, _ in oracle_cases():
        yield label, data, c_bar, None
    yield from non_commuting_cases()
    yield from non_involutive_cases()
    yield from unit_multiple_cases()
    for q in (81, 243):
        for expand in (False, True):
            cells, cbar, heights = dihedral_cells(q, expand)
            yield (f"q={q}" + (" expanded" if expand else ""),
                   *data_from_cells(q, cells, cbar), heights)


def test_derived_rows_equal_the_computed_rows():
    seen = set()
    for label, data, c_bar, heights in shortcut_cases():
        report = {c.name: c for c in verify_all(data, c_bar, heights).checks}
        computed = verify_orthogonality(data, c_bar).checks + rank_check(data).checks
        assert [report[c.name] for c in computed] == list(computed), label
        gram = next(c for c in report.values() if c.name.startswith("gram"))
        seen.add((gram.passed, *(c.passed for c in computed)))
        # no case passes the Gram rows and fails a row they decide
        assert not gram.passed or all(c.passed for c in computed), label
    # plain orthogonality passes with the Gram and Galois checks failing (a
    # unit multiple, an inverse action)
    assert (False, True, False, True, True) in seen
    assert (True, True, True, True, True) in seen


def test_valid_data_skips_the_coset_test_and_the_elimination(monkeypatch):
    # counted at the names verify_orthogonality and rank_check call
    import blockbounds.gendec as gendec

    calls = {"_vanishes": 0, "_bareiss": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(gendec, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(gendec, name, counted)
    derived = computed = 0
    for label, data, c_bar, heights in shortcut_cases():
        gram_holds = verify_gram_identity(data, c_bar).checks[0].passed
        calls.update(dict.fromkeys(calls, 0))
        verify_all(data, c_bar, heights)
        if gram_holds:
            assert calls == {"_vanishes": 0, "_bareiss": 0}, label
            derived += 1
        else:
            assert calls["_vanishes"] and calls["_bareiss"], label
            computed += 1
    assert derived > 10 and computed > 10


def test_non_involutive_actions_have_one_convention():
    # the natural action passes every row (through the shortcut, which the
    # test above checks); the inverse fails both the Gram and the Galois check
    for label, data, c_bar, heights in non_involutive_cases():
        assert data.spec.n > 2, label
        failing = [c.name for c in verify_all(data, c_bar, heights).failures()]
        if label.endswith("natural"):
            assert failing == [], label
        else:
            assert "galois-orthogonality" in failing, label
            assert any(name.startswith("gram(") for name in failing), label


def test_gram_formula_is_the_preimage_of_the_galois_pairs():
    # the lemma behind the shortcut, for C_bar that need not be symmetric nor
    # commute with the action: the image sum_{e,f} R_ef zeta^(g e - d f) of
    # the expected blocks R_ef = C_bar sum_x w(e, f, x) P_x is q C_bar P_{d/g}
    import blockbounds.gendec as gendec

    rng = random.Random(3307)
    for q, gen, perm in ((4, 3, (1, 0, 2)), (7, 2, (1, 2, 0)), (8, 3, (0, 2, 1)),
                         (9, 4, (2, 0, 1)), (9, 8, (1, 0, 2)), (25, 7, (1, 0, 2))):
        p = next(f for f in range(2, q + 1) if q % f == 0)
        spec = SubsectionSpec(p, q, (gen,), PermutationAction(3, [perm]))
        cm = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        perms = {x: spec.perm_of(x, 3) for x in spec.elements}
        phi = prime_and_phi(q)[1]
        want = {
            ef: [[sum(w * cm[a][perms[x][b]] for x, w in cell.items()) for b in range(3)]
                 for a in range(3)]
            for ef, cell in gendec._indicator_weights(spec, phi).items()
        }
        for g in units_mod(q):
            for d in units_mod(q):
                ratio = d * pow(g, -1, q) % q
                for a in range(3):
                    for b in range(3):
                        raw = [0] * q
                        for (e, f), blk in want.items():
                            raw[(g * e - d * f) % q] += blk[a][b]
                        image = q * cm[a][perms[ratio][b]] if ratio in perms else 0
                        assert cyc_reduce(raw, q) == CyclotomicInteger.from_int(q, image)

