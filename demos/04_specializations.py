"""The classical identities recovered from special shapes.

Staircase shapes give the binomial determinant duality and its q-analog;
rectangles give the symmetric-function duality in any number of variables.

Run with:  python demos/04_specializations.py
"""

from skewlgv import IndexSelection, verify_aitken, verify_binomial, verify_qbinomial, verify_sympoly_binomial

sel = IndexSelection.make(4, [0, 1, 2], [1, 3, 4])

print("== integer binomial determinants ==")
rep = verify_binomial(4, sel)
print(f"det(C(b,a)) over A x B = {rep.lhs}")
print(f"det(C(a',b')) over the complements = {rep.rhs}")
print()

print("== q-binomial lift ==")
qrep = verify_qbinomial(4, sel)
print("lhs det =", qrep.det_lhs)
print("rhs det =", qrep.det_rhs)
print("equal as polynomials in q:", qrep.equal)
print()

print("== initial-segment symmetric polynomials, two derivations ==")
sel3 = IndexSelection.make(3, [0, 1], [2, 3])
srep = verify_sympoly_binomial(3, sel3)
print("direct det_h        =", srep.det_h)
print("via staircase shape =", srep.det_h_staircase)
print("routes agree:", srep.routes_agree)
print()

print("== rectangle duality for growing variable counts ==")
sel2 = IndexSelection.make(2, [0], [2])
for m in (1, 2, 3, 4):
    arep = verify_aitken(m, 2, sel2)
    print(f"m = {m}: det_h = {arep.det_h}  equal: {arep.equal}")
