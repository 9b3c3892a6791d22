"""Build the two weighted lattices of a skew diagram and walk them.

Run with:  python demos/02_lattice_paths.py
"""

from skewlgv import (
    IndexSelection,
    Node,
    Polynomial,
    build_L,
    build_R,
    enumerate_paths,
    iter_connectors,
    make_skew,
    render,
    weighted_path_count,
)

shape = make_skew([1, 1, 0, 0], [4, 3, 3, 2])
sel = IndexSelection.make(4, [0, 1, 2], [1, 3, 4])

print("skew diagram: alpha =", list(shape.alpha), " beta =", list(shape.beta))
print("selection: A =", list(sel.a_set), " B =", list(sel.b_set))
print()

left = build_L(shape, sel)
print("left lattice (rightward + weighted descents); o = source, x = sink")
print(render(left))
print()

right = build_R(shape, sel)
print("right lattice (leftward + weighted diagonals)")
print(render(right))
print()

print("== single-pair path counting ==")
src, snk = Node(1, 1), Node(3, 3)
paths = enumerate_paths(left, src, snk)
print(f"paths {tuple(src)} -> {tuple(snk)}:")
for p in paths:
    print("  ", " -> ".join(f"({u.i},{u.j})" for u in p.nodes), " weight", p.weight)
print("weighted count:", weighted_path_count(left, src, snk), "  (= h_2(x2, x3))")
print()

print("== vertex-disjoint connectors ==")
blues = list(iter_connectors(left, disjoint_only=True))
print(f"{len(blues)} disjoint blue connectors; the first:")
for k, p in enumerate(blues[0].paths, start=1):
    print(f"  path {k}:", " -> ".join(f"({u.i},{u.j})" for u in p.nodes))
print("total disjoint weight:", sum((c.weight for c in blues), start=Polynomial.zero()))
