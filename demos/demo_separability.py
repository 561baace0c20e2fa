"""The profinite engine in action.

Folded subgroup graphs decide membership; saturated product automata decide
membership in products of subgroups; permutation quotients certify
non-membership; and the amalgam criterion settles double cosets in
Z/4 *_{Z/2} Z/6.

Run: python3 demos/demo_separability.py
"""

from relhyp import Amalgam, FreeGroup, cyclic_group, word_to_elem
from relhyp.separability import (
    RationalSubset,
    amalgam_product_member,
    find_separating_quotient,
    minx_quotient_harness,
    product_member,
    subgroup_graph,
    verify_separation,
)

F = FreeGroup(("a", "b"))
w = lambda s: word_to_elem(s, F)


def main():
    print("Stallings graph of <a^2, b> and a few membership queries:")
    H = subgroup_graph((w("a a"), w("b")), F)
    print("  vertices: %d" % len(H))
    for word in ("a", "a a", "a a b^-1 a^-1 a^-1", "b a b"):
        print("  %-18s in <a^2,b>: %s" % (word, H.accepts(w(word))))

    print()
    print("product membership with cancellation, <a><b>:")
    for word in ("a b", "b a", "a b a b", "a a a b"):
        print(
            "  %-8s in <a><b>: %s"
            % (word, product_member(w(word), [(w("a"),), (w("b"),)], F))
        )

    print()
    print("separating b a from <a><b> by a finite quotient:")
    target = RationalSubset(F, (), ((w("a"),), (w("b"),)))
    q = find_separating_quotient(w("b a"), target)
    print("  degree %d, images a -> %s, b -> %s" % (q.degree, q.gen_images[0], q.gen_images[1]))
    print("  re-verified by direct image computation: %s" % verify_separation(q, w("b a"), target))

    print()
    print("kernel with minx(ZN \\ Z) >= C for Z = <a>:")
    Z = RationalSubset(F, (), ((w("a"),),))
    for C in (1, 2, 3):
        res = minx_quotient_harness(Z, C)
        print(
            "  C = %d: verified %s, achieved min %s, quotient degree %d"
            % (C, res.verified, res.achieved_min, res.quotient.degree)
        )

    print()
    print("the amalgam Z/4 *_{Z/2} Z/6 (b^2 = c^3):")
    A = Amalgam(cyclic_group(4, "b"), cyclic_group(6, "c"), ((0, 0), (2, 3)))
    A.spot_check()
    wa = lambda s: word_to_elem(s, A)
    for word in ("b b c c c", "b c", "c b", "c b c"):
        g = wa(word)
        print(
            "  %-10s reduces to %-8s (length %d), in BC: %s"
            % (
                word,
                A.elem_str(g) or "1",
                len(g),
                amalgam_product_member(g, "BC", A),
            )
        )


if __name__ == "__main__":
    main()
