"""Checking the metric conditions on the standard free-group fixture.

Q = <a>, R = <b>, Q' = <a^k>, R' = <b^k>, P = <a>.  The checkers are
semi-decision procedures: a failure comes with a short absolute witness, a
pass is stamped with the enumeration radius.

Run: python3 demos/demo_conditions.py
"""

from relhyp import FreeGroup, PeripheralSpec, RelHyp, SubgroupSpec, word_to_elem
from relhyp.cayley import relative_view
from relhyp.conditions import ConditionContext, check_condition, quasiconvexity_epsilon

F = FreeGroup(("a", "b"))
VIEW = relative_view(RelHyp(F, (PeripheralSpec(0, "cyclic-generator", "a"),)))
w = lambda s: word_to_elem(s, F)


def context(k, B, C, radius=7):
    return ConditionContext(
        view=VIEW,
        Q=SubgroupSpec((w("a"),)),
        R=SubgroupSpec((w("b"),)),
        Qp=SubgroupSpec((F.pow(w("a"), k),)),
        Rp=SubgroupSpec((F.pow(w("b"), k),)),
        P_list=(SubgroupSpec((w("a"),)),),
        B=B,
        C=C,
        A=B,
        radius=radius,
    )


def main():
    print("sweeping k with thresholds B = C = 3, radius 7:")
    print("  k | C1 / C2 / C3 / C4 / C5 / P2")
    for k in (1, 2, 3, 4):
        ctx = context(k, 3, 3)
        cells = []
        for cid in ("C1", "C2", "C3", "C4", "C5", "P2"):
            rep = check_condition(cid, ctx)
            cell = rep.verdict
            if rep.verdict == "fails":
                cell += "(witness %s)" % F.elem_str(rep.witness)
            elif rep.measured not in (None,) and cid in ("C2", "C3", "P2"):
                cell += "(min %s)" % rep.measured
            cells.append(cell)
        print("  %d | %s" % (k, "  ".join("%-22s" % c for c in cells)))

    print()
    print("relative quasiconvexity of the join <a^2, b^2>, measured:")
    join = SubgroupSpec((w("a a"), w("b b")))
    for r in (4, 6):
        eps, caveat = quasiconvexity_epsilon(join, VIEW, r)
        print("  radius %d: epsilon = %d (%s)" % (r, eps, caveat))


if __name__ == "__main__":
    main()
