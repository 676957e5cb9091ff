import random
from fractions import Fraction
from math import isqrt

import pytest

from blockbounds import (
    CartanData,
    CertificationError,
    DomainError,
    GramForm,
    LatticeMinimum,
    PermutationAction,
    RationalMatrix,
    certified_weight,
    determinant,
    form_minimum,
    is_positive_definite,
    inverse,
    kron,
    lll_reduce,
    symmetrize,
    wada_weight,
)
from blockbounds.exactmat import _cleared_int_rows
from blockbounds.fixtures import a4xa4_cartan, agl18_cartan
from blockbounds.lattice import _gram_form

from conftest import (
    box_minimum,
    cofactor_determinant,
    gram_schmidt,
    largest_elementary_divisor,
    random_pd_int_matrix,
    random_unimodular,
    reference_form_minimum,
)


def test_gram_form_rejects_indefinite():
    with pytest.raises(DomainError, match="^Gram matrix must be positive definite$"):
        GramForm(RationalMatrix([[1, 2], [2, 1]]))
    with pytest.raises(DomainError, match="^Gram matrix must be symmetric$"):
        GramForm(RationalMatrix([[1, 1], [0, 1]]))
    # asymmetric and not positive definite: the symmetry message comes first
    with pytest.raises(DomainError, match="^Gram matrix must be symmetric$"):
        GramForm(RationalMatrix([[1, 3], [1, 1]]))


def test_lll_identity_is_fixed():
    t, r = lll_reduce(RationalMatrix.identity(3))
    assert t == RationalMatrix.identity(3)
    assert r == RationalMatrix.identity(3)


def test_lll_scaled_diagonal_is_fixed():
    g = RationalMatrix.identity(2).scale(4)
    t, r = lll_reduce(g)
    assert t == RationalMatrix.identity(2)
    assert r == g


def test_lll_reduces_skew_form():
    g = RationalMatrix([[5, 4], [4, 5]])
    t, r = lll_reduce(g)
    assert abs(determinant(t)) == 1
    assert r == t.transpose() @ g @ t
    assert min(r[0, 0], r[1, 1]) == 2  # achieved by the basis change (1, -1)


def test_lll_reduced_gram_matches_the_transform_product():
    # lll_reduce returns the LLL's own integer Gram rows over the form's
    # scale; the product T^t G T it replaces is the oracle, on rational
    # disguised forms and on forms built from cleared rows with no matrix
    rng = random.Random(119)
    for _ in range(40):
        n = rng.randint(1, 6)
        g = random_pd_int_matrix(rng, n, 3).scale(Fraction(1, rng.randint(1, 12)))
        s = random_unimodular(rng, n, ops=4 * n)
        g = s.transpose() @ g @ s
        t, r = lll_reduce(g)
        assert r == t.transpose() @ g @ t
        assert lll_reduce(_gram_form(*_cleared_int_rows(g))) == (t, r)


def _root_gram(kind: str, n: int) -> RationalMatrix:
    """Gram matrix of the simple roots of A_n, of D_n (n >= 4), whose last
    node hangs off node n - 3, or of E_8, whose last node hangs off node 4 of
    a 7-node path."""
    g = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
         for i in range(n)]
    if kind in "DE":
        g[n - 1][n - 2] = g[n - 2][n - 1] = 0
        t = n - 3 if kind == "D" else 4
        g[n - 1][t] = g[t][n - 1] = -1
    return RationalMatrix(g)


def test_lll_output_is_exactly_reduced():
    # unimodular T with reduced = T^t G T, |mu_ij| <= 1/2 and the Lovasz
    # condition at 3/4, all read off an independent Fraction Gram-Schmidt
    rng = random.Random(107)
    forms = [_root_gram("A", n) for n in (3, 6)] + [_root_gram("D", n) for n in (4, 6)]
    forms += [random_pd_int_matrix(rng, rng.randint(1, 6), 3) for _ in range(24)]
    forms += [inverse(random_pd_int_matrix(rng, rng.randint(2, 5))) for _ in range(8)]
    disguised = []
    for g in forms:
        s = random_unimodular(rng, g.rows, ops=4 * g.rows)
        disguised.append(s.transpose() @ g @ s)
    for g in forms + disguised:
        t, r = lll_reduce(g)
        assert t.is_integral() and abs(cofactor_determinant(t)) == 1
        assert r == t.transpose() @ g @ t
        mu, b = gram_schmidt(r)
        n = r.rows
        assert all(abs(mu[i][j]) <= Fraction(1, 2) for i in range(n) for j in range(i))
        assert all(
            b[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * b[k - 1] for k in range(1, n)
        )


def test_integer_search_matches_fraction_reference():
    # value, witness and minimizer count against the Fraction descent on
    # integral A^t A + D, the same forms over a denominator of 2, 3 or 6,
    # disguised root lattices and (I + J)^-1; the box oracle too up to dim 5
    rng = random.Random(108)
    cases = []
    for dim in range(1, 13):
        for _ in range(3):
            a = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
            g = RationalMatrix([
                [sum(r[i] * r[j] for r in a) + (rng.randint(1, 3) if i == j else 0)
                 for j in range(dim)]
                for i in range(dim)
            ])
            # g >= I, so a minimizer x has |x|^2 <= min_i g_ii
            box = isqrt(min(int(g[i, i]) for i in range(dim))) if dim <= 5 else None
            cases.append((g, box))
            cases.append((g.scale(Fraction(1, rng.choice((2, 3, 6)))), box))
    pairs = {("A", 3): 6, ("A", 6): 21, ("D", 4): 12, ("D", 5): 20, ("E", 8): 120}
    for (kind, n), count in pairs.items():
        root = _root_gram(kind, n)
        assert cofactor_determinant(root) == {"A": n + 1, "D": 4, "E": 1}[kind]
        s = random_unimodular(rng, n, ops=4 * n)
        disguised = s.transpose() @ root @ s
        found = form_minimum(disguised)
        assert (found.value, found.num_minimizers) == (2, count)
        cases.append((disguised, None))
    for n in (2, 5, 9):
        ij = inverse(RationalMatrix([[1 + (i == j) for j in range(n)] for i in range(n)]))
        s = random_unimodular(rng, n, ops=3 * n)
        cases += [(ij, None), (s.transpose() @ ij @ s, None)]
    for g, box in cases:
        found = form_minimum(g)
        assert found == reference_form_minimum(g)
        if box is not None:
            assert found.value == box_minimum(g, bound=box)[0]


def test_minimum_search_keeps_the_benchmark_hooks():
    # the benchmark reads the cache statistics of _form_minimum_cached and
    # times __wrapped__ on the rational matrix lll_reduce returns
    from blockbounds.lattice import _form_minimum_cached

    assert _form_minimum_cached.cache_parameters()["maxsize"] == 128
    assert hasattr(_form_minimum_cached.cache_info(), "hits")
    n = 6
    ij = inverse(RationalMatrix([[1 + (i == j) for j in range(n)] for i in range(n)]))
    s = random_unimodular(random.Random(109), n, ops=3 * n)
    g = s.transpose() @ ij @ s
    _, reduced = lll_reduce(g)
    # the search itself still takes a matrix that is not a primitive integer form
    assert not reduced.is_integral()
    assert _form_minimum_cached.__wrapped__(reduced).value == form_minimum(g).value


def scaling_cases():
    """Seeded positive definite forms, integral and not, of dimension 1..6."""
    rng = random.Random(115)
    for dim in range(1, 7):
        g = random_pd_int_matrix(rng, dim)
        yield g
        yield inverse(g)


def test_multiples_of_a_form_share_its_minimum():
    # min(c G) = c min(G), attained by the same vectors
    for g in scaling_cases():
        m = reference_form_minimum(g)
        for c in (2, Fraction(3, 2), Fraction(1, 7), 10**6):
            assert form_minimum(g.scale(c)) == LatticeMinimum(
                value=c * m.value, witness=m.witness, num_minimizers=m.num_minimizers
            ), (g, c)


def test_a_multiple_after_its_form_is_a_cache_hit():
    from blockbounds.lattice import _form_minimum_cached

    _form_minimum_cached.cache_clear()
    for g in scaling_cases():
        form_minimum(g)
        for c in (2, Fraction(3, 2), Fraction(1, 7), 10**6):
            before = _form_minimum_cached.cache_info()
            form_minimum(g.scale(c))
            after = _form_minimum_cached.cache_info()
            assert (after.hits, after.misses) == (before.hits + 1, before.misses), (g, c)


def test_minimum_of_identity():
    res = form_minimum(RationalMatrix.identity(4))
    assert res.value == 1
    assert res.witness == (1, 0, 0, 0)
    assert res.num_minimizers == 4


def test_minimum_of_ones_plus_identity_inverse():
    c = RationalMatrix([[2 if i == j else 1 for j in range(3)] for i in range(3)])
    res = form_minimum(inverse(c))
    assert res.value == Fraction(3, 4)
    assert res.witness == (1, 0, 0)
    oracle_value, _ = box_minimum(inverse(c), bound=3)
    assert oracle_value == Fraction(3, 4)
    # (1,1,1) also achieves the minimum
    v = RationalMatrix([[1, 1, 1]])
    assert (v @ inverse(c) @ v.transpose())[0, 0] == Fraction(3, 4)


def test_minimum_of_agl18_inverse_cartan():
    res = form_minimum(inverse(agl18_cartan()))
    assert res.value == Fraction(1, 2)


def test_minimum_matches_box_oracle_on_random_forms():
    rng = random.Random(101)
    for _ in range(300):
        g = random_pd_int_matrix(rng, rng.randint(1, 4))
        res = form_minimum(g)
        oracle_value, _ = box_minimum(g)
        assert res.value == oracle_value


def test_minimum_matches_box_oracle_in_dimension_five():
    rng = random.Random(105)
    for _ in range(25):
        g = random_pd_int_matrix(rng, 5)
        assert form_minimum(g).value == box_minimum(g)[0]


def test_minimum_is_a_lattice_invariant():
    rng = random.Random(102)
    for _ in range(100):
        dim = rng.randint(1, 4)
        g = random_pd_int_matrix(rng, dim)
        s = random_unimodular(rng, dim)
        conj = s.transpose() @ g @ s
        assert form_minimum(conj).value == form_minimum(g).value


def test_kron_minimum_is_at_most_product():
    rng = random.Random(103)
    for _ in range(25):
        a = random_pd_int_matrix(rng, rng.randint(1, 2))
        b = random_pd_int_matrix(rng, rng.randint(1, 2))
        prod = form_minimum(a).value * form_minimum(b).value
        assert form_minimum(kron(a, b)).value <= prod


def test_inverse_cartan_minimum_at_least_inverse_defect_power():
    c = CartanData(agl18_cartan(), 2, 3)
    m = form_minimum(inverse(c.matrix)).value
    assert m >= Fraction(1, 2**3)
    top = largest_elementary_divisor(c.matrix)
    assert (inverse(c.matrix).scale(top)).is_integral()


def test_inverse_rows_form_matches_the_fraction_inverse():
    # C^-1 reaches the search as CartanData.inverse_rows, with no symmetry or
    # positive-definiteness check of its own: on seeded Cartan data of
    # dimensions 1-8, their C/2 (which inherits the inverse) and the built-in
    # fixtures, value, witness and minimizer count equal the Fraction search
    # on inverse(c)
    from blockbounds.lattice import _gram_form

    rng = random.Random(117)
    datas = [CartanData(agl18_cartan(), 2, 3), CartanData(a4xa4_cartan(), 2, 4)]
    for dim in range(1, 9):
        for _ in range(3):
            g = random_pd_int_matrix(rng, dim)
            # entries made nonnegative and the diagonal raised to dominate
            # its row: still positive definite, and a Cartan matrix's shape
            rows = [[abs(int(x)) for x in row] for row in g]
            for i, row in enumerate(rows):
                row[i] += sum(row) - row[i]
            c = CartanData(RationalMatrix(rows).scale(2), 2)
            inv, den = c.inverse_rows  # read before C/2 is made, so C/2 inherits it
            bar = c._divided(2)
            assert bar._inverse == (inv, den // 2)
            datas += [c, bar]
    for c in datas:
        found = form_minimum(_gram_form(*c.inverse_rows))
        assert found == reference_form_minimum(inverse(c)), c.matrix


def test_certify_wada_weight():
    w = certified_weight(wada_weight(4).matrix, "wada")
    assert w.certificate.value == 1
    assert w.certificate.witness == (1, 0, 0, 0)
    oracle_value, _ = box_minimum(w.matrix, bound=3)
    assert oracle_value == 1


def test_certify_identity():
    w = certified_weight(RationalMatrix.identity(3), "identity")
    assert w.certificate.value == 1


def test_certify_rejects_small_form():
    # the refusal names the search's witness and its value
    with pytest.raises(CertificationError) as info:
        certified_weight(RationalMatrix.identity(2).scale(Fraction(1, 2)), "half")
    assert str(info.value) == "half: integer vector (1, 0) has form value 1/2 < 1"


def test_certify_rejects_indefinite_with_vector_witness():
    # a negative second minor, semidefinite forms (a zero leading minor) and
    # rational indefinite ones: the named vector must reach the named value,
    # which is <= 0, and the named minor must be the first nonpositive
    # leading principal minor
    import re

    rng = random.Random(105)

    def entry():
        return Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))

    forms = [
        RationalMatrix([[1, 2], [2, 1]]),
        RationalMatrix([[1, 1], [1, 1]]),
        RationalMatrix([[0]]),
    ]
    while len(forms) < 60:
        n = rng.randint(1, 4)
        if rng.random() < 0.3:  # thin Gram product: semidefinite, singular
            k = rng.randint(1, n)
            b = RationalMatrix([[entry() for _ in range(k)] for _ in range(n)])
            w = b @ b.transpose()
        else:
            upper = [[entry() for _ in range(n)] for _ in range(n)]
            w = RationalMatrix(
                [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
            )
        if not is_positive_definite(w):
            forms.append(w)
    shape = re.compile(
        r"w: not positive definite: integer vector \(([^)]*)\) has form value "
        r"(\S+) <= 0 \(leading principal minor (\d+) fails\)"
    )
    for w in forms:
        with pytest.raises(CertificationError) as info:
            certified_weight(w, "w")
        vec, value, k = shape.fullmatch(str(info.value)).groups()
        vm = RationalMatrix([[int(t) for t in vec.split(",") if t.strip()]])
        assert any(vm.row(0))
        assert (vm @ w @ vm.transpose())[0, 0] == Fraction(value) <= 0
        minors = [
            cofactor_determinant(
                RationalMatrix([[w[i, j] for j in range(t)] for i in range(t)])
            )
            for t in range(1, w.rows + 1)
        ]
        assert int(k) == next(t for t, d in enumerate(minors, start=1) if d <= 0)


def test_certify_decides_positive_definiteness_once(monkeypatch):
    # a repeated certification is served by the form-minimum cache, so the
    # one elimination left is the certifier's own
    from blockbounds import exactmat, lattice, weights

    w = RationalMatrix([[3, 1, 0], [1, 4, 1], [0, 1, 5]])
    first = certified_weight(w, "w")
    calls = []
    original = exactmat._ldl_rows

    def counted(m):
        calls.append(len(m))
        return original(m)

    for module in (exactmat, lattice, weights):
        monkeypatch.setattr(module, "_ldl_rows", counted)
    hits = lattice._form_minimum_cached.cache_info().hits
    second = certified_weight(w, "w")
    assert lattice._form_minimum_cached.cache_info().hits == hits + 1
    assert calls == [3]
    assert first == second


def test_certify_symmetrizes_and_reports():
    # a raw asymmetric matrix is certified as (W + W^t)/2, which has its
    # quadratic form: [[2, 1], [0, 2]] passes as [[2, 1/2], [1/2, 2]], and
    # [[1, 4], [0, 1]] is refused as [[1, 2], [2, 1]]
    swap = PermutationAction(2, [(1, 0)])
    half = Fraction(1, 2)
    out = symmetrize(RationalMatrix([[2, 1], [0, 2]]), swap)
    assert out.matrix == RationalMatrix([[2, half], [half, 2]])
    assert out.provenance == "symmetrized"
    with pytest.raises(CertificationError) as info:
        symmetrize(RationalMatrix([[1, 4], [0, 1]]), swap)
    with pytest.raises(CertificationError) as sym:
        certified_weight(RationalMatrix([[1, 2], [2, 1]]), "symmetrize input")
    assert str(info.value) == str(sym.value) == (
        "symmetrize input: not positive definite: integer vector (-2, 1) has form "
        "value -3 <= 0 (leading principal minor 2 fails)"
    )


def test_every_certified_matrix_is_positive_definite():
    # integral positive definite implies positive definite
    rng = random.Random(104)
    for _ in range(50):
        g = random_pd_int_matrix(rng, rng.randint(1, 3))
        try:
            certified_weight(g, "g")
        except CertificationError:
            continue
        assert is_positive_definite(g)


def test_dimension_cap():
    big = RationalMatrix.identity(25)
    with pytest.raises(DomainError):
        form_minimum(big)
    res = form_minimum(big, max_dim=25)
    assert res.value == 1


def test_concurrent_minimum_calls_are_consistent():
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(106)
    mats = [random_pd_int_matrix(rng, rng.randint(1, 4)) for _ in range(24)]
    expected = [form_minimum(m) for m in mats]
    with ThreadPoolExecutor(max_workers=8) as pool:
        for _ in range(4):
            results = list(pool.map(form_minimum, mats))
            assert results == expected
