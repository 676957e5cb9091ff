"""Verify the structural identities of a generalized decomposition column.

The data: a subsection of order q = 3 whose centralizer block has a single
Brauer character, decomposition column (1, 1, -1) over Z[zeta_3], and a
fusion quotient of order 2.  The demo splits the column into its integer
coefficient stack, runs every identity check, and evaluates the k(B) bound,
which is attained (k(B) = 3 here).

Run:  python demos/subsection_verification.py
"""

from blockbounds import (
    CartanData,
    CyclotomicInteger,
    PermutationAction,
    RationalMatrix,
    SubsectionSpec,
    fourier_split,
    subsection_k_bound,
    verify_all,
    wada_weight,
)

spec = SubsectionSpec(p=3, q=3, n_generators=(2,), ibr_action=PermutationAction(1, [(0,)]))
one = CyclotomicInteger.from_int(3, 1)
column = [[one], [one], [-1 * one]]

data = fourier_split(column, spec)
print("coefficient stack A_1, A_2 (columns of the Fourier split):")
for i, mat in enumerate(data.stack, start=1):
    print(f"  A_{i} =", [row[0] for row in mat])

c_bar = CartanData(RationalMatrix([[1]]), p=3)
report = verify_all(data, c_bar, heights=[0, 0, 0])
print("\nverification:")
for check in report.checks:
    print(f"  {'PASS' if check.passed else 'FAIL'} {check.name}"
          + (f": {check.detail}" if check.detail else ""))
assert report.ok

bound = subsection_k_bound(c_bar, spec, wada_weight(1))
print(f"\nk(B) <= (n + (q-1)/n) tr(WC) = {bound.value}  (attained: k(B) = 3)")
print("strictness flags:", dict(bound.strict))
