"""Tour of the exact polynomial layer.

Run with:  python demos/01_symmetric_polynomials.py
"""

from skewlgv import Polynomial, e_poly, h_poly, newton_residual, qbinom

x1, x2, x3 = (Polynomial.variable(i) for i in (1, 2, 3))
q = Polynomial.q()

print("== exact sparse arithmetic ==")
p = (x1 + x2) * (x1 - x2)
print("(x1 + x2)(x1 - x2) =", p)
print("cancellation is exact:", x1 + x2 - x2 - x1, "(the zero polynomial)")
print()

print("== complete homogeneous and elementary polynomials ==")
print("h_2(x2, x3)     =", h_poly(2, 2, 3))
print("e_2(x1, x2, x3) =", e_poly(2, 1, 3))
print("h_3 over no variables =", h_poly(3, 1, 0), "   h_0 =", h_poly(0, 1, 0))
print()

print("== Gaussian binomial coefficients ==")
for n, k in [(2, 1), (4, 2), (5, 3)]:
    g = qbinom(n, k)
    print(f"[{n} choose {k}]_q = {g}")
    print(f"   at q = 1: {g.substitute({0: 1})}")
print()

print("== Newton's identity: sum (-1)^i e_i h_(d-i) = 0 ==")
for d in (1, 3, 5):
    print(f"d = {d}, 4 variables ->", newton_residual(d, 4))
