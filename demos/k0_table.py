"""Height-zero character counts of semidirect products <u> x| N.

For a cyclic p-group <u> of order q and N a group of units acting on it,
the count k0(<u> x| N) is what multiplies tr(WC) in the height-zero bound.
For odd p it is n + (q - n_p)/n_p'; for p = 2 it is the abelianization order.
The table sweeps small cases; a few are cross-checked against hand values.

Run:  python demos/k0_table.py
"""

from blockbounds import SubsectionSpec, k0_semidirect
from blockbounds.ntheory import units_mod

print(f"{'p':>3} {'q':>4} {'generators':>14} {'n':>4} {'k0':>5}")
for p, q in ((2, 2), (2, 4), (2, 8), (2, 16), (3, 3), (3, 9), (3, 27), (5, 25)):
    seen = set()
    for g in units_mod(q):
        spec = SubsectionSpec(p, q, (g,))
        key = tuple(spec.elements)
        if key in seen:
            continue
        seen.add(key)
        print(f"{p:>3} {q:>4} {str((g,)):>14} {spec.n:>4} {k0_semidirect(spec):>5}")

# hand-checked values
assert k0_semidirect(SubsectionSpec(3, 9, (8,))) == 6   # order-18 dihedral-type group
assert k0_semidirect(SubsectionSpec(2, 8, (5,))) == 8   # abelianization of order 8
assert k0_semidirect(SubsectionSpec(2, 8, (7,))) == 4   # inversion action
print("\nhand-checked: (3,9,<-1>) -> 6, (2,8,<5>) -> 8, (2,8,<-1>) -> 4")
