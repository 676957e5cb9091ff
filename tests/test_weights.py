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
    action = PermutationAction(2, [(0, 1)])
    w = RationalMatrix([[2, 1], [1, 2]])
    assert symmetrize(w, action).matrix == w


def test_symmetrize_two_element_example():
    action = PermutationAction(2, [(1, 0)])
    w = RationalMatrix([[1, 1], [0, 1]])
    out = symmetrize(w, action)
    assert out.matrix == RationalMatrix([[1, half(1)], [half(1), 1]])


def test_symmetrize_preserves_trace_pairing():
    action = PermutationAction(2, [(1, 0)])
    w = RationalMatrix([[1, 1], [0, 1]])
    c = RationalMatrix([[2, 1], [1, 2]])  # commutes with the swap
    assert (symmetrize(w, action).matrix @ c).trace() == (w @ c).trace()


def test_symmetrize_output_commutes_with_action():
    rng = random.Random(22)
    action = PermutationAction(3, [(1, 2, 0)])
    for _ in range(10):
        w = random_pd_int_matrix(rng, 3)
        out = symmetrize(w, action)
        for g in action.elements:
            assert commutes_with(out.matrix, g)


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


def test_permutation_action_enumeration():
    act = PermutationAction(3, [(1, 2, 0)])
    assert act.order == 3
    assert act.is_trivial is False
    assert PermutationAction(3, []).is_trivial
    with pytest.raises(DomainError):
        PermutationAction(3, [(0, 0, 1)])
