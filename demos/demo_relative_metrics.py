"""A walk through the exact relative metrics.

The relative Cayley graph adds one edge for every nontrivial element of every
peripheral subgroup.  On the whitelisted families those metrics have exact
normal-form formulas, demonstrated here on the two standard fixtures.

Run: python3 demos/demo_relative_metrics.py
"""

from relhyp import (
    FreeAbelian,
    FreeGroup,
    FreeProduct,
    PeripheralSpec,
    RelHyp,
    word_to_elem,
)
from relhyp.cayley import build_ball, relative_view


def show(view, word):
    G = view.group.base
    g = word_to_elem(word, G)
    path = view.geodesic(G.identity(), g)
    labels = []
    for lab in path.labels:
        if lab[0] == "x":
            labels.append(G.elem_str(lab[1]))
        else:
            labels.append("[H%d: %s]" % (lab[1], G.elem_str(lab[2])))
    print("  d(1, %-14s) = %d   geodesic: %s" % (word, len(path), "  ".join(labels) or "(empty)"))


def main():
    print("F(a,b) relative to the cyclic subgroup <a>")
    print("  every maximal a-run collapses to one peripheral edge:")
    F = FreeGroup(("a", "b"))
    fab = relative_view(RelHyp(F, (PeripheralSpec(0, "cyclic-generator", "a"),)))
    for word in ("a a a a a", "a a a b a a", "b a b a b", "a b^-1 a^-1 b^-1"):
        show(fab, word)

    print()
    print("Z^2 * Z relative to both free factors")
    print("  every peripheral syllable costs exactly one edge:")
    Z2Z = FreeProduct((FreeAbelian(("x", "y")), FreeAbelian(("t",))))
    z2z = relative_view(
        RelHyp(Z2Z, (PeripheralSpec(0, "free-factor", 0), PeripheralSpec(1, "free-factor", 1)))
    )
    for word in ("x x x y", "x t", "x y t x", "t t t x y x"):
        show(z2z, word)

    print()
    print("word-metric balls stay exact and budgeted:")
    for r in range(4):
        print("  |ball(F(a,b), %d)| = %d" % (r, len(build_ball(F, r))))


if __name__ == "__main__":
    main()
