"""Measured hyperbolicity constants and minimal path-representative types.

Thinness is always measured on a stated ball, never assumed: free groups
measure 0 on every ball, the integer lattice grows linearly.  The derived
constants feed the concatenation bound, and the type machinery picks
lexicographically minimal factorizations through a pair of subgroups.

Run: python3 demos/demo_geometry_and_types.py
"""

from fractions import Fraction

from relhyp import (
    FreeAbelian,
    FreeGroup,
    PeripheralSpec,
    RelHyp,
    word_to_elem,
)
from relhyp.cayley import BrokenLine, build_ball, relative_view, word_metric_view
from relhyp.geometry import (
    ConstantsProfile,
    check_concat_lemma,
    gromov_product,
    measure_delta,
    thin_triangle_delta,
)
from relhyp.pathrep import SearchBudget, minimize_type

F = FreeGroup(("a", "b"))
Z2 = FreeAbelian(("x", "y"))


def main():
    wf = lambda s: word_to_elem(s, F)
    wz = lambda s: word_to_elem(s, Z2)

    print("tripod thinness, measured exhaustively over ball triples:")
    for G, r in ((F, 3), (Z2, 2), (Z2, 3)):
        m = measure_delta(build_ball(G, r))
        print(
            "  %-8s radius %d: delta = %-3s (%d triples)"
            % (type(G).__name__, r, m.delta, m.triples)
        )
    view2 = word_metric_view(Z2)
    print(
        "  one lattice triangle (0, x^3, y^3): thinness %s"
        % thin_triangle_delta(Z2.identity(), wz("x x x"), wz("y y y"), view2)
    )

    print()
    print("Gromov products are exact half-integers:")
    viewf = word_metric_view(F)
    for x, y in (("a a b", "a a"), ("a", "b"), ("a b a", "a b^-1")):
        print(
            "  <%s, %s>_1 = %s"
            % (x, y, gromov_product(wf(x), wf(y), F.identity(), viewf))
        )

    print()
    print("the concatenation bound at delta = 0, c0 = 0 (c1=1, c2=10, c3=20):")
    profile = ConstantsProfile(delta=Fraction(0), c0=Fraction(0))
    good = BrokenLine.from_nodes(viewf, [F.identity(), wf("a a"), wf("a a b b")])
    bad = BrokenLine.from_nodes(viewf, [F.identity(), wf("a a"), F.identity()])
    for name, bl in (("no cancellation", good), ("full cancellation", bad)):
        rep = check_concat_lemma(bl, 0, profile)
        print(
            "  %-17s hypotheses: %-5s  (4,c3)-quasigeodesic: %-5s  violation: %s"
            % (name, rep.hypotheses_hold, rep.conclusion_c3.ok, rep.violation)
        )

    print()
    print("minimal types of factorizations through Q' = <a^2>, R' = <b^2>:")
    rel = relative_view(RelHyp(F, (PeripheralSpec(0, "cyclic-generator", "a"),)))
    qp = (wf("a a"),)
    rp = (wf("b b"),)
    for word in ("a a b b", "b b a a b b", "a", ""):
        g = wf(word)
        res = minimize_type(g, qp, rp, rel, SearchBudget(4, 6))
        if res.rep is None:
            print("  %-14s -> not found (%s)" % (word or "1", res.caveat))
        else:
            print(
                "  %-14s -> type %s, roles %s"
                % (word or "1", tuple(res.rep_type), " ".join(res.rep.roles))
            )


if __name__ == "__main__":
    main()
