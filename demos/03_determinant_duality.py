"""The h/e determinant duality, cross-checked three ways.

For a skew shape and a row selection, the determinant of the h-side matrix
equals the determinant of the complementary e-side matrix whenever the
parallelogram condition holds.  Both also equal the brute-force weighted
count of vertex-disjoint connectors on the matching lattice.

Run with:  python demos/03_determinant_duality.py
"""

from skewlgv import (
    IndexSelection,
    build_e_matrix,
    build_full_E,
    build_full_H,
    build_h_matrix,
    make_skew,
    matmul,
    run_sweep,
    verify_main,
)

print("== worked four-row example ==")
shape = make_skew([1, 1, 0, 0], [4, 3, 3, 2])
sel = IndexSelection.make(4, [0, 1, 2], [1, 3, 4])
h = build_h_matrix(shape, sel)
print("h-side matrix (rows A, columns B):")
for row in h:
    print("  ", [str(x) for x in row])
e = build_e_matrix(shape, sel)
print("e-side matrix (rows outside A, columns outside B):")
for row in e:
    print("  ", [str(x) for x in row])
rep = verify_main(shape, sel, with_brute=True)
print("det_h =", rep.det_h)
print("det_e =", rep.det_e)
print("brute-force connector sums agree:", rep.brute_blue == rep.det_h == rep.brute_red)
print()

print("== why the classical minor-complement route falls short ==")
probe = make_skew([2, 0, 0], [3, 3, 1])
prod = matmul(build_full_E(probe), build_full_H(probe))
print("(E*H)[0,2] =", prod[0][2], " (nonzero, so E and H are not inverse)")
rep = verify_main(probe, IndexSelection.make(3, [0, 1, 2], [1, 2, 3]))
print("yet the duality still holds:", rep.det_h, "=", rep.det_e)
print()

print("== sweep: the condition is sufficient, not necessary ==")
summary = run_sweep(3, 3)
print(f"cases checked: {summary.total}")
print(f"  condition holds, determinants equal:   {summary.holds_equal}")
print(f"  condition fails, determinants equal:   {summary.fails_equal}")
print(f"  condition fails, determinants differ:  {summary.fails_unequal}")
print(f"  condition holds, determinants differ:  {summary.holds_unequal}  <- must stay 0")
