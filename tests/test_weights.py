import random
from fractions import Fraction

import pytest

from blockbounds import (
    CartanData,
    CertificationError,
    DomainError,
    PermutationAction,
    RationalMatrix,
    block_tridiagonal_weight,
    certified_weight,
    from_quadratic_form,
    inverse,
    kron,
    symmetrize,
    wada_weight,
    weight_candidates,
)
from blockbounds.weights import commutes_with
from blockbounds.fixtures import agl18_cartan, agl18_form_triples

from conftest import (
    box_minimum,
    perm_matrix,
    random_pd_int_matrix,
    random_unimodular,
    reference_form_minimum,
    reference_group_average,
)


def half(x):
    return Fraction(x, 2)


def test_wada_weight_small_cases():
    assert wada_weight(1).matrix == RationalMatrix([[1]])
    assert wada_weight(2).matrix == RationalMatrix(
        [[1, half(-1)], [half(-1), 1]]
    )
    w5 = wada_weight(5)
    assert w5.certificate.value == 1
    oracle, _ = box_minimum(w5.matrix, bound=3)
    assert oracle == 1


def test_wada_weight_rejects_zero_size():
    with pytest.raises(DomainError):
        wada_weight(0)


def test_blowup_of_scalar_is_wada_weight():
    for m in (1, 2, 4, 6):
        big = block_tridiagonal_weight(RationalMatrix([[1]]), (0,), m)
        assert big.matrix == wada_weight(m).matrix


def test_blowup_swap_example():
    big = block_tridiagonal_weight(RationalMatrix.identity(2), (1, 0), 2)
    expected = RationalMatrix(
        [
            [1, 0, 0, half(-1)],
            [0, 1, half(-1), 0],
            [0, half(-1), 1, 0],
            [half(-1), 0, 0, 1],
        ]
    )
    assert big.matrix == expected
    assert big.certificate.value >= 1


def test_blowup_m_one_returns_weight_unchanged():
    w = wada_weight(3)
    out = block_tridiagonal_weight(w, (0, 1, 2), 1)
    assert out.matrix == w.matrix


def test_blowup_requires_commuting_permutation():
    w = RationalMatrix([[2, 1], [1, 1]])  # does not commute with the swap
    with pytest.raises(DomainError):
        block_tridiagonal_weight(w, (1, 0), 2)


def test_blowup_matches_blockwise_formula():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        perm = list(range(n))
        rng.shuffle(perm)
        p = perm_matrix(perm)
        base = random_pd_int_matrix(rng, n)
        # average over the cyclic group of p so the weight commutes with it
        w = RationalMatrix.zeros(n, n)
        power = RationalMatrix.identity(n)
        seen = []
        while True:
            seen.append(power)
            power = power @ p
            if power == RationalMatrix.identity(n):
                break
        for s in seen:
            w = w + (s @ base @ s.transpose())
        assert commutes_with(w, perm)
        big = block_tridiagonal_weight(w, perm, m).matrix
        pw = p @ w
        ptw = p.transpose() @ w
        # the Kronecker construction that the direct rows replaced
        shift = RationalMatrix([[int(j == i + 1) for j in range(m)] for i in range(m)])
        assert big == (kron(RationalMatrix.identity(m), w) - kron(shift, pw.scale(half(1)))
                       - kron(shift.transpose(), ptw.scale(half(1))))
        for bi in range(m):
            for bj in range(m):
                for r in range(n):
                    for c in range(n):
                        got = big[bi * n + r, bj * n + c]
                        if bi == bj:
                            assert got == w[r, c]
                        elif bj == bi + 1:
                            assert got == -half(1) * pw[r, c]
                        elif bj == bi - 1:
                            assert got == -half(1) * ptw[r, c]
                        else:
                            assert got == 0


def test_symmetrize_trivial_action_keeps_symmetric_input():
    # a weight that commutes with every generator comes back as the same object
    w = certified_weight(RationalMatrix([[2, 1], [1, 2]]), "w")
    for gens in ([(0, 1)], [], [(1, 0)], [(1, 0), (1, 0)]):
        assert symmetrize(w, PermutationAction(2, gens)) is w


def test_symmetrize_two_element_example():
    action = PermutationAction(2, [(1, 0)])
    w = certified_weight(RationalMatrix([[1, 0], [0, 2]]), "diag(1,2)")
    out = symmetrize(w, action)
    assert out.matrix == RationalMatrix([[half(3), 0], [0, half(3)]])
    assert out.provenance == "symmetrized"


def test_symmetrize_preserves_trace_pairing():
    action = PermutationAction(2, [(1, 0)])
    w = certified_weight(RationalMatrix([[1, half(1)], [half(1), 2]]), "w")
    c = RationalMatrix([[2, 1], [1, 2]])  # commutes with the swap
    assert (symmetrize(w, action).matrix @ c).trace() == (w.matrix @ c).trace()


def test_symmetrize_output_commutes_with_action():
    rng = random.Random(22)
    action = PermutationAction(3, [(1, 2, 0)])
    for _ in range(10):
        w = certified_weight(random_pd_int_matrix(rng, 3), "w")
        out = symmetrize(w, action)
        for g in action.generators:
            assert commutes_with(out.matrix, g)


def _seeded_generators(rng, l: int, kind: int) -> list:
    """Generators of degree l: the identity, none, an intransitive pair, one
    permutation repeated, S_l as a relabelled transposition and l-cycle, or
    one or two random permutations."""
    def shuffled():
        perm = list(range(l))
        rng.shuffle(perm)
        return tuple(perm)

    if kind == 0:
        return [tuple(range(l))]
    if kind == 1:
        return []
    if kind == 2:  # each preserves {0..cut-1} and {cut..l-1}
        cut = rng.randint(1, l)
        gens = []
        for _ in range(2):
            low, high = list(range(cut)), list(range(cut, l))
            rng.shuffle(low)
            rng.shuffle(high)
            gens.append(tuple(low + high))
        return gens
    if kind == 3:
        return [shuffled()] * rng.randint(2, 3)
    if kind == 4:
        relabel = shuffled()
        swap = tuple(1 if i == 0 else 0 if i == 1 else i for i in range(l)) if l > 1 else (0,)
        cycle = tuple((i + 1) % l for i in range(l))
        # g relabelled: relabel(i) -> relabel(g(i))
        return [tuple(relabel[g[relabel.index(i)]] for i in range(l)) for g in (swap, cycle)]
    return [shuffled() for _ in range(rng.randint(1, 2))]


def test_symmetrize_is_the_average_over_the_listed_group():
    # orbit means against (1/2|G|) sum_g P_g (W + W^t) P_g^t over every
    # listed element of G, with the certificate of that average; a weight
    # that commutes with the generators comes back as the same object
    rng = random.Random(34)
    kept = averaged = 0
    for trial in range(144):
        l = trial % 6 + 1
        gens = _seeded_generators(rng, l, trial // 6 % 6)
        if trial % 2:
            w = certified_weight(random_pd_int_matrix(rng, l, spread=1), "w")
        else:
            w = certified_weight(wada_weight(l).matrix.permuted(
                rng.sample(range(l), l)), "w")
        expected = reference_group_average(w.matrix, gens)
        out = symmetrize(w, PermutationAction(l, gens))
        if all(commutes_with(w.matrix, g) for g in gens):
            assert out is w and expected == w.matrix
            kept += 1
        else:
            assert out.matrix == expected and out.provenance == "symmetrized"
            assert out.certificate == certified_weight(expected, "average").certificate
            averaged += 1
    assert kept > 20 and averaged > 20


def test_from_quadratic_form_unit_form():
    w = from_quadratic_form({(i, i): 1 for i in range(1, 4)})
    assert w.matrix == RationalMatrix.identity(3)


def test_from_quadratic_form_wada_form():
    l = 4
    coeffs = {(i, i): 1 for i in range(1, l + 1)}
    coeffs.update({(i, i + 1): -1 for i in range(1, l)})
    assert from_quadratic_form(coeffs).matrix == wada_weight(l).matrix


def test_from_quadratic_form_agl18():
    w = from_quadratic_form(agl18_form_triples())
    expected = RationalMatrix(
        [
            [1, half(1), 0, 0, half(-1)],
            [half(1), 1, 0, 0, half(-1)],
            [0, 0, 1, 0, half(-1)],
            [0, 0, 0, 1, half(-1)],
            [half(-1), half(-1), half(-1), half(-1), 1],
        ]
    )
    assert w.matrix == expected
    # x W x^t evaluates the form itself
    rng = random.Random(23)
    for _ in range(50):
        x = [rng.randint(-3, 3) for _ in range(5)]
        direct = (
            sum(v * v for v in x)
            + x[0] * x[1]
            - x[0] * x[4]
            - x[1] * x[4]
            - x[2] * x[4]
            - x[3] * x[4]
        )
        xm = RationalMatrix([x])
        assert (xm @ w.matrix @ xm.transpose())[0, 0] == direct


def test_from_quadratic_form_rejects_indefinite():
    with pytest.raises(CertificationError) as err:
        from_quadratic_form({(1, 1): 1, (2, 2): 1, (1, 2): -3})
    assert "vector" in str(err.value)


def test_certified_weight_refusals():
    with pytest.raises(CertificationError, match="^path: constructed matrix is not symmetric$"):
        certified_weight(RationalMatrix([[1, 1], [0, 1]]), "path")
    # asymmetric and not positive definite: the symmetry message comes first
    with pytest.raises(CertificationError, match="^path: constructed matrix is not symmetric$"):
        certified_weight(RationalMatrix([[1, 3], [1, 1]]), "path")
    with pytest.raises(CertificationError) as err:
        certified_weight(RationalMatrix([[1, 2], [2, 1]]), "path")
    assert str(err.value) == (
        "path: not positive definite: integer vector (-2, 1) has form value -3 <= 0 "
        "(leading principal minor 2 fails)"
    )
    with pytest.raises(CertificationError) as err:
        certified_weight(RationalMatrix([["1/2"]]), "half")
    assert str(err.value) == "half: integer vector (1,) has form value 1/2 < 1"


def test_weight_candidates_scalar_cartan():
    c = CartanData(RationalMatrix([[3]]), 3)
    ranked = weight_candidates(c)
    best, tr = ranked[0]
    assert tr == 3
    assert {w.provenance for w, _ in ranked} >= {"identity", "wada-path", "inverse-cartan"}


def test_weight_candidates_agl18():
    c = CartanData(agl18_cartan(), 2, 3)
    ranked = weight_candidates(c)
    by_tag = {w.provenance: t for w, t in ranked}
    assert by_tag["inverse-cartan"] == 10  # l/m with m = 1/2
    best_trace = ranked[0][1]
    assert best_trace <= 10
    for w, t in ranked:
        assert w.certificate.value >= 1
        assert (w.matrix @ c.matrix).trace() == t
    traces = [t for _, t in ranked]
    assert traces == sorted(traces)


def test_weight_candidates_kronecker_inverse_cartan():
    from blockbounds.fixtures import a4xa4_cartan

    c = CartanData(a4xa4_cartan(), 2, 4)
    ranked = weight_candidates(c)
    by_tag = {w.provenance: t for w, t in ranked}
    assert by_tag["inverse-cartan"] == 16  # l/m = 9/(9/16)


def test_inverse_cartan_candidate_is_certified_by_the_inverse_search():
    # C^-1/m is built from C's inverse rows and takes its certificate from
    # the search for m, with no search of its own: that certificate must be
    # the minimum 1 of the built matrix, with its witness and minimizer count
    from blockbounds.fixtures import a4xa4_cartan

    rng = random.Random(29)
    cartans = [CartanData(agl18_cartan(), 2, 3), CartanData(a4xa4_cartan(), 2, 4)]
    for dim in (1, 2, 3, 4) * 3:  # A^t A + I with A >= 0: a Cartan-shaped matrix
        a = RationalMatrix([[rng.randint(0, 2) for _ in range(dim)] for _ in range(dim)])
        cartans.append(CartanData(a.transpose() @ a + RationalMatrix.identity(dim), 2))
    for c in cartans:
        [w] = [w for w, _ in weight_candidates(c) if w.provenance == "inverse-cartan"]
        assert w.certificate == reference_form_minimum(w.matrix), c.matrix
        assert w.certificate.value == 1
        m = reference_form_minimum(inverse(c)).value
        assert w.matrix == inverse(c).scale(1 / m)


def test_trace_permutation_inequality():
    # tr(A B P) <= tr(A B) for PSD A, B with A P = P A; equality iff P = 1
    rng = random.Random(24)
    checked_strict = 0
    for _ in range(60):
        n = rng.randint(2, 4)
        perm = list(range(n))
        rng.shuffle(perm)
        p = perm_matrix(perm)
        base = random_pd_int_matrix(rng, n)
        a = RationalMatrix.zeros(n, n)
        power = RationalMatrix.identity(n)
        while True:
            a = a + power @ base @ power.transpose()
            power = power @ p
            if power == RationalMatrix.identity(n):
                break
        assert a @ p == p @ a
        b = random_pd_int_matrix(rng, n)
        lhs = (a @ b @ p).trace()
        rhs = (a @ b).trace()
        assert lhs <= rhs
        if tuple(perm) != tuple(range(n)):
            assert lhs < rhs
            checked_strict += 1
        else:
            assert lhs == rhs
    assert checked_strict > 20


def test_trace_pairing_is_basic_set_invariant():
    rng = random.Random(25)
    c = agl18_cartan()
    w = wada_weight(5).matrix
    base = (w @ c).trace()
    for _ in range(20):
        s = random_unimodular(rng, 5)
        new_c = s.transpose() @ c @ s
        new_w = inverse(s) @ w @ inverse(s.transpose())
        assert (new_w @ new_c).trace() == base
        assert certified_weight(new_w, "basis change").certificate.value == 1


def test_permutation_action_keeps_validated_generators():
    act = PermutationAction(3, [[1, 2, 0], (0, 1, 2)])
    assert (act.degree, act.generators) == (3, ((1, 2, 0), (0, 1, 2)))
    assert not hasattr(act, "elements")
    assert PermutationAction(3, []).generators == ()
    with pytest.raises(DomainError):
        PermutationAction(3, [(0, 0, 1)])
