import random
from fractions import Fraction
from math import lcm

import pytest

from blockbounds import (
    CartanData,
    DomainError,
    PermutationAction,
    RationalMatrix,
    ShapeError,
    SingularMatrixError,
    determinant,
    inverse,
    is_positive_definite,
    kron,
    matrix_from_record,
    matrix_to_record,
    rank,
)
from blockbounds.exactmat import _inverse_rows, _rows_repr, trace_pairing
from blockbounds.fixtures import a4xa4_cartan, agl18_cartan
from blockbounds.ntheory import valuation

from conftest import (
    cofactor_determinant,
    largest_elementary_divisor,
    minor_gcd_divisors,
    perm_matrix,
    random_unimodular,
    reference_inverse,
    reference_trace_pairing,
)


def ones_plus_identity(n):
    return RationalMatrix([[2 if i == j else 1 for j in range(n)] for i in range(n)])


def test_rows_repr_is_the_matrix_repr():
    # the one format of a matrix in report text, for int and Fraction rows
    rng = random.Random(41)
    for _ in range(20):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        ints = [[rng.randint(-30, 30) for _ in range(c)] for _ in range(r)]
        fracs = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in ints]
        for rows in (ints, fracs):
            assert _rows_repr(rows) == repr(RationalMatrix(rows))
    assert _rows_repr([[1, 0], [-2, 3]]) == "RationalMatrix(2x2: 1 0; -2 3)"
    assert repr(RationalMatrix([[Fraction(-1, 2), 4]])) == "RationalMatrix(1x2: -1/2 4)"


def test_trace_of_kron_is_product():
    a = RationalMatrix([[2, 1], [1, 2]])
    b = RationalMatrix([[3]])
    assert kron(a, b).trace() == a.trace() * b.trace() == 12


def test_kron_gives_the_nine_by_nine_cartan():
    c = kron(ones_plus_identity(3), ones_plus_identity(3))
    assert c == a4xa4_cartan()
    # entry formula (1 + delta_ac)(1 + delta_bd) under row-major indexing
    for a in range(3):
        for b in range(3):
            for cc in range(3):
                for d in range(3):
                    expected = (2 if a == cc else 1) * (2 if b == d else 1)
                    assert c[a * 3 + b, cc * 3 + d] == expected


def test_functional_op_aliases():
    a = RationalMatrix([[1, 2], [3, 4]])
    assert a + a == a.scale(2)
    assert a @ RationalMatrix.identity(2) == a
    assert a.transpose().transpose() == a


def test_shape_errors():
    with pytest.raises(ShapeError):
        RationalMatrix([[1, 2], [3]])
    with pytest.raises(ShapeError):
        RationalMatrix([[1]]) + RationalMatrix([[1, 2]])
    with pytest.raises(ShapeError):
        RationalMatrix([[1, 2]]) @ RationalMatrix([[1, 2]])


def test_inverse_identity():
    i3 = RationalMatrix.identity(3)
    assert inverse(i3) == i3


def test_inverse_of_ones_plus_identity():
    c = ones_plus_identity(3)
    inv = inverse(c)
    expected = RationalMatrix(
        [
            [Fraction(3, 4), Fraction(-1, 4), Fraction(-1, 4)],
            [Fraction(-1, 4), Fraction(3, 4), Fraction(-1, 4)],
            [Fraction(-1, 4), Fraction(-1, 4), Fraction(3, 4)],
        ]
    )
    assert inv == expected
    assert c @ inv == RationalMatrix.identity(3)


def test_inverse_singular():
    with pytest.raises(SingularMatrixError):
        inverse(RationalMatrix([[1, 1], [1, 1]]))


def test_determinant_examples():
    assert determinant(RationalMatrix.identity(4)) == 1
    assert determinant(RationalMatrix([[2, 1], [1, 2]])) == 3
    c = ones_plus_identity(3)
    assert determinant(c) == cofactor_determinant(c) == 4


def test_positive_definite_examples():
    assert is_positive_definite(RationalMatrix.identity(2))
    assert not is_positive_definite(RationalMatrix([[1, 2], [2, 1]]))
    n = 5
    u5 = RationalMatrix(
        [
            [
                Fraction(1) if i == j else (Fraction(-1, 2) if abs(i - j) == 1 else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
    )
    assert is_positive_definite(u5)


def test_positive_definite_needs_symmetry():
    assert not is_positive_definite(RationalMatrix([[1, 1], [0, 1]]))


def test_cartan_data_validation():
    CartanData(agl18_cartan(), 2, 3)  # defect 3: largest divisor 8
    with pytest.raises(DomainError, match=r"^largest elementary divisor 8 is not p\^defect = 2\^2$"):
        CartanData(agl18_cartan(), 2, 2)
    with pytest.raises(DomainError, match="^Cartan matrix must be positive definite$"):
        CartanData(RationalMatrix([[1, 2], [2, 1]]), 2)
    with pytest.raises(DomainError, match="^Cartan matrix entries must be nonnegative$"):
        CartanData(RationalMatrix([[1, -1], [-1, 2]]), 2)
    with pytest.raises(DomainError, match="^Cartan matrix must be symmetric$"):
        CartanData(RationalMatrix([[1, 1], [0, 1]]), 2)
    with pytest.raises(DomainError, match="^4 is not a prime$"):
        CartanData(RationalMatrix([[1]]), 4)
    with pytest.raises(DomainError, match="^Cartan matrix must be square$"):
        CartanData(RationalMatrix([[1, 0]]), 2)
    with pytest.raises(DomainError, match="^Cartan matrix must have integer entries$"):
        CartanData(RationalMatrix([["1/2"]]), 2)
    with pytest.raises(DomainError, match="^defect must be nonnegative$"):
        CartanData(RationalMatrix([[1]]), 2, -1)


def test_cartan_data_refusal_order():
    # an input failing several checks gets the message of the first:
    # prime, square, integral, nonnegative, symmetric, positive definite, defect
    cases = [
        ([[1, 3], [1, 1]], 2, None, "Cartan matrix must be symmetric"),  # and not PD
        ([["1/2", -1], [-1, 2]], 2, None, "Cartan matrix must have integer entries"),
        ([[1, -1], [0, 1]], 2, None, "Cartan matrix entries must be nonnegative"),
        ([[1, 2], [2, 1]], 2, 1, "Cartan matrix must be positive definite"),
        ([[1, 3], [1, 1]], 4, -1, "4 is not a prime"),
        ([[2, 1], [1, 2]], 2, -1, "defect must be nonnegative"),
    ]
    for rows, p, defect, message in cases:
        with pytest.raises(DomainError) as err:
            CartanData(RationalMatrix(rows), p, defect)
        assert str(err.value) == message


def test_cartan_defect_is_the_oracle_largest_elementary_divisor():
    # CartanData(m, p, defect) accepts exactly when the oracle's d_n is
    # p^defect.  m = S^t diag(p^e_i) S with S nonnegative unimodular has
    # d_n = p^max(e_i); A^t A + I with A >= 0 mostly has no p-power d_n
    rng = random.Random(43)
    accepted = refused = 0
    for trial in range(64):
        n, p = 1 + trial % 8, rng.choice((2, 3, 5))
        if trial % 4:
            s = random_unimodular(rng, n, ops=n + 2, coeffs=(1, 2))
            d = RationalMatrix([[p ** rng.randint(0, 2) if r == c else 0 for c in range(n)]
                                for r in range(n)])
            m = s.transpose() @ d @ s
        else:
            a = RationalMatrix([[rng.randint(0, 2) for _ in range(n)] for _ in range(n)])
            m = a.transpose() @ a + RationalMatrix.identity(n)
        m = m.scale(p ** rng.randint(0, 2))
        top = largest_elementary_divisor(m)
        v = valuation(top, p)
        for defect in {max(v - 1, 0), v, v + 1}:
            if top == p**defect:
                assert CartanData(m, p, defect).defect == defect
                accepted += 1
            else:
                with pytest.raises(DomainError, match=r"is not p\^defect"):
                    CartanData(m, p, defect)
                refused += 1
        # decided from bit lengths: p^(2^89 - 1) is never formed
        with pytest.raises(DomainError, match=rf"is not p\^defect = {p}\^{2**89 - 1}$"):
            CartanData(m, p, 2**89 - 1)
    assert accepted >= 40 and refused >= 100, (accepted, refused)
    with pytest.raises(DomainError) as exc:
        CartanData(ones_plus_identity(3), 2, 1)
    assert str(exc.value) == "largest elementary divisor 4 is not p^defect = 2^1"


def test_record_round_trip_is_bit_exact():
    m = RationalMatrix([[Fraction(1, 2), 3], [Fraction(-7, 3), 0]])
    rec = matrix_to_record(m)
    assert rec["entries"] == [["1/2", "3"], ["-7/3", "0"]]
    assert matrix_from_record(rec) == m
    assert matrix_to_record(matrix_from_record(rec)) == rec


def test_record_round_trip_randomized():
    rng = random.Random(19)
    for _ in range(200):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = RationalMatrix(
            [
                [
                    Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
                    for _ in range(c)
                ]
                for _ in range(r)
            ]
        )
        rec = matrix_to_record(m)
        assert matrix_from_record(rec) == m
        assert matrix_to_record(matrix_from_record(rec)) == rec


def test_inverse_is_involution_on_random_matrices():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 4)
        while True:
            m = RationalMatrix(
                [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            )
            if determinant(m) != 0:
                break
        assert inverse(inverse(m)) == m
        assert m @ inverse(m) == RationalMatrix.identity(n)


def test_integer_inverse_matches_fraction_back_substitution():
    rng = random.Random(2029)
    seen = {"negative determinant": 0, "pivot swap": 0, "singular": 0}
    for trial in range(150):
        n = 1 + trial % 10
        den = rng.choice((1, 2, 3, 6))
        rows = [[Fraction(rng.randint(-6, 6), den) for _ in range(n)] for _ in range(n)]
        if n > 1 and trial % 3 == 0:
            # a zero leading minor of order 1 or 2 forces a row swap
            k = rng.randint(0, 1) if n > 2 else 0
            if k == 0:
                rows[0][0] = Fraction(0)
            else:
                rows[1][:2] = [2 * x for x in rows[0][:2]]
        if n > 1 and trial % 7 == 0:
            rows[-1] = [x + y for x, y in zip(rows[0], rows[1])]
        a = RationalMatrix(rows)
        det = determinant(a)
        if det == 0:
            seen["singular"] += 1
            for invert in (inverse, reference_inverse):
                with pytest.raises(SingularMatrixError):
                    invert(a)
            continue
        seen["negative determinant"] += det < 0
        seen["pivot swap"] += any(
            determinant(RationalMatrix([r[:k] for r in rows[:k]])) == 0
            for k in (1, 2) if k < n
        )
        inv = inverse(a)
        assert inv == reference_inverse(a)
        assert a @ inv == RationalMatrix.identity(n)
        ints, d = _inverse_rows(a)
        assert d > 0 and d == lcm(*(x.denominator for row in inv for x in row))
        assert RationalMatrix(ints).scale(Fraction(1, d)) == inv
    assert min(seen.values()) >= 5, seen


def test_inverse_denominator_is_the_largest_elementary_divisor():
    rng = random.Random(31)
    for trial in range(60):
        n = 1 + trial % 6
        a = RationalMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        if determinant(a) == 0:
            continue
        rows, den = _inverse_rows(a)
        assert den == lcm(*(x.denominator for row in inverse(a) for x in row))
        assert den == largest_elementary_divisor(a)
        assert all(isinstance(v, int) for row in rows for v in row)
    c = agl18_cartan()
    assert _inverse_rows(c)[1] == largest_elementary_divisor(c) == 8


def test_determinant_is_multiplicative():
    rng = random.Random(12)
    for _ in range(120):
        n = rng.randint(1, 4)
        a = RationalMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        b = RationalMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        assert determinant(a @ b) == determinant(a) * determinant(b)


def test_trace_identities_on_random_matrices():
    rng = random.Random(15)
    for _ in range(60):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        a = RationalMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        b = RationalMatrix([[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)])
        assert kron(a, b).trace() == a.trace() * b.trace()


def test_permuted_and_trace_pairing_match_matrix_products():
    # oracles: P M P^t with an explicit permutation matrix, and tr(a @ b)
    rng = random.Random(19)

    def rational(rows, cols):
        return RationalMatrix(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(cols)]
             for _ in range(rows)]
        )

    for _ in range(300):
        n = rng.randint(1, 6)
        perm = list(range(n))
        rng.shuffle(perm)
        m = rational(n, n)
        p = perm_matrix(perm)
        assert m.permuted(perm) == p @ m @ p.transpose()
        assert m.permuted(tuple(perm)) == m.permuted(perm)
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        a, b = rational(r, c), rational(c, r)
        assert trace_pairing(a, b) == (a @ b).trace()
    for (r1, c1), (r2, c2) in [((2, 3), (2, 3)), ((2, 3), (3, 3)), ((2, 2), (3, 3)),
                               ((1, 4), (1, 4))]:
        with pytest.raises(ShapeError):
            trace_pairing(rational(r1, c1), rational(r2, c2))
    with pytest.raises(ShapeError):
        rational(2, 3).permuted([0, 1])
    for bad in [(0, 0), (1, 2), (0,), (0, 1, 2)]:
        with pytest.raises(DomainError):
            rational(2, 2).permuted(bad)


def test_trace_pairing_matches_the_fraction_sum_on_weight_shapes():
    # oracle: the Fraction sum the integer dot product replaced, on the
    # weights the library builds, each paired with an integral C_bar of
    # size 1-18 in both orders, and on random rationals of every shape
    rng = random.Random(2002)
    half = Fraction(1, 2)
    for trial in range(36):
        l = trial % 18 + 1
        # symmetric, nonnegative and diagonally dominant, so nonsingular
        c = [[0] * l for _ in range(l)]
        for i in range(l):
            for j in range(i):
                c[i][j] = c[j][i] = rng.randint(0, 3)
        for i in range(l):
            c[i][i] = sum(c[i]) + rng.randint(1, 4)
        c = RationalMatrix(c)
        order = list(range(l))
        rng.shuffle(order)
        path = RationalMatrix(
            [[1 if i == j else (-half if abs(i - j) == 1 else 0) for j in range(l)]
             for i in range(l)]
        ).permuted(order)
        form = [[0] * l for _ in range(l)]
        for i in range(l):
            form[i][i] = rng.randint(1, 4)
            for j in range(i):
                form[i][j] = form[j][i] = Fraction(rng.randint(-3, 3), 2)
        form = RationalMatrix(form)
        # (1/2n) sum_g P_g (W + W^t) P_g^t over the cyclic group of a shuffle
        action = PermutationAction(l, [order])
        averaged = RationalMatrix.zeros(l, l)
        for g in action.elements:
            averaged = averaged + (path + path.transpose()).permuted(g)
        averaged = averaged.scale(Fraction(1, 2 * action.order))
        m = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled_inverse = inverse(c).scale(1 / m)
        for w in (path, form, averaged, scaled_inverse):
            assert trace_pairing(w, c) == reference_trace_pairing(w, c)
            assert trace_pairing(c, w) == reference_trace_pairing(c, w)
        assert trace_pairing(scaled_inverse, c) == Fraction(l) / m

    def rational(rows, cols):
        return RationalMatrix(
            [[Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(cols)]
             for _ in range(rows)]
        )

    for _ in range(200):
        r, k = rng.randint(1, 7), rng.randint(1, 7)
        a, b = rational(r, k), rational(k, r)
        got = trace_pairing(a, b)
        assert type(got) is Fraction and got == reference_trace_pairing(a, b)
    with pytest.raises(ShapeError, match=r"^cannot pair 2x3 with 2x3$"):
        trace_pairing(rational(2, 3), rational(2, 3))


def test_cleared_int_rows_matches_fraction_oracle():
    # integer-only clearing against int(x * s), s the lcm of the denominators
    from blockbounds.exactmat import _cleared_int_rows

    rng = random.Random(203)
    for trial in range(120):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        dens = [1] if trial % 4 == 0 else range(1, 13)  # every 4th all integral
        a = RationalMatrix(
            [[Fraction(rng.randint(-40, 40), rng.choice(dens)) for _ in range(c)]
             for _ in range(r)]
        )
        s = lcm(*(x.denominator for row in a for x in row))
        ints, got_s = _cleared_int_rows(a)
        assert got_s == s and (s == 1) == a.is_integral()
        assert ints == [[int(x * s) for x in row] for row in a]
        assert all(type(v) is int for row in ints for v in row)
    ints, s = _cleared_int_rows(RationalMatrix([["-7/12", "-5"], ["1/11", "0"]]))
    assert s == 132 and ints == [[-77, -660], [12, 0]]


def test_leading_minors_match_cofactor_oracle():
    # _ldl_rows on cleared rows s*A: minors D_k = s^k det(A_k) up to and
    # including the first one <= 0, and on positive definite input the
    # L D L^t rebuilt from (minors, a) is s*A again
    from blockbounds.exactmat import _cleared_int_rows, _ldl_rows

    rng = random.Random(18)

    def entry():
        return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 6]))

    pd = indefinite = 0
    for trial in range(160):
        n = rng.randint(1, 5)
        if trial % 2:  # symmetric, mostly not positive definite
            upper = [[entry() for _ in range(n)] for _ in range(n)]
            sym = RationalMatrix(
                [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
            )
        else:
            a = RationalMatrix([[entry() for _ in range(n)] for _ in range(n)])
            sym = a @ a.transpose() + RationalMatrix.identity(n)
        ints, s = _cleared_int_rows(sym)
        minors, a = _ldl_rows([list(row) for row in ints])
        oracle = [
            cofactor_determinant(
                RationalMatrix([[sym[i, j] for j in range(k)] for i in range(k)])
            )
            for k in range(1, n + 1)
        ]
        stop = next((k for k, d in enumerate(oracle, start=1) if d <= 0), n)
        assert len(minors) == stop + 1
        assert minors[0] == 1
        for k in range(1, stop + 1):
            assert minors[k] == s**k * oracle[k - 1]
        if minors[-1] <= 0:
            indefinite += 1
            assert not is_positive_definite(sym)
            continue
        pd += 1
        assert is_positive_definite(sym)
        d = [Fraction(minors[i + 1], minors[i]) for i in range(n)]
        lo = [
            [Fraction(a[j][i], minors[i + 1]) if j > i else Fraction(int(i == j))
             for i in range(n)]
            for j in range(n)
        ]
        rebuilt = [
            [sum(lo[i][k] * d[k] * lo[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert rebuilt == ints
    assert pd >= 80 and indefinite >= 40


def test_transpose_and_conjugation_by_unimodular():
    rng = random.Random(16)
    c = ones_plus_identity(3)
    for _ in range(20):
        s = random_unimodular(rng, 3)
        assert abs(determinant(s)) == 1
        conj = s.transpose() @ c @ s
        assert determinant(conj) == determinant(c)
        assert minor_gcd_divisors(conj) == [1, 1, 4]


def test_elimination_kernel_matches_sympy():
    # determinant, inverse and rank share one fraction-free kernel; sympy is
    # an independent oracle on singular, rank-deficient and non-square input
    sympy = pytest.importorskip("sympy")

    def as_fraction(x):
        return Fraction(int(x.p), int(x.q))

    rng = random.Random(31)

    def entry():
        return Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3, 7]))

    for _ in range(300):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.5:
            c = r
        if rng.random() < 0.4:  # product of thin factors: rank at most k
            k = rng.randint(0, min(r, c))
            left = [[entry() for _ in range(k)] for _ in range(r)]
            right = [[entry() for _ in range(c)] for _ in range(k)]
            rows = [
                [sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0))
                 for j in range(c)]
                for i in range(r)
            ]
        else:
            rows = [[entry() for _ in range(c)] for _ in range(r)]
        a = RationalMatrix(rows)
        ref = sympy.Matrix(r, c, lambda i, j: sympy.Rational(rows[i][j].numerator,
                                                              rows[i][j].denominator))
        assert rank(a) == ref.rank()
        if r != c:
            with pytest.raises(ShapeError):
                determinant(a)
            continue
        det = ref.det()
        assert determinant(a) == as_fraction(det)
        if det == 0:
            with pytest.raises(SingularMatrixError):
                inverse(a)
        else:
            inv = ref.inv()
            assert inverse(a) == RationalMatrix(
                [[as_fraction(inv[i, j]) for j in range(c)] for i in range(r)]
            )
