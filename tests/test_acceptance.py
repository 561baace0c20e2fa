"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines as
the criteria complete.  Every tolerance is pinned here; nothing is deferred
to later calibration.  Several criteria rely on independent oracles built in
this module (coned-graph BFS over scipy, flat brute-force enumerations, a
union-find rewriting closure for amalgam words).
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from relhyp import (
    Amalgam,
    FreeAbelian,
    FreeGroup,
    FreeProduct,
    PeripheralSpec,
    RelHyp,
    SubgroupSpec,
    cyclic_group,
    word_to_elem,
)
from relhyp.cayley import BrokenLine, build_ball, relative_view, word_metric_view
from relhyp.components import find_components, is_without_backtracking
from relhyp.conditions import ConditionContext, check_condition
from relhyp.geometry import (
    ConstantsProfile,
    check_concat_lemma,
    gromov_product,
    is_quasigeodesic,
    measure_delta,
)
from relhyp.pathrep import RepType, SearchBudget, minimize_type
from relhyp.separability import (
    RationalSubset,
    amalgam_product_member,
    amalgam_reduce,
    find_separating_quotient,
    induced_quotient,
    membership_oracle,
    minx_quotient_harness,
    product_member,
    verify_separation,
)
from relhyp.separability.quotients import FiniteQuotient
from relhyp.errors import DIncompatibleError

from conftest import _tree_ball_scan, amalgam_word_classes, reference_coset_key, signed_letters


def report(num: int, ok: bool, detail: str) -> None:
    print("[criterion %2d] %s  %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


FAB = FreeGroup(("a", "b"))
FAB_WORD = word_metric_view(FAB)
FAB_REL = relative_view(RelHyp(FAB, (PeripheralSpec(0, "cyclic-generator", "a"),)))
Z2Z = FreeProduct((FreeAbelian(("x", "y")), FreeAbelian(("t",))))
Z2Z_REL = relative_view(
    RelHyp(Z2Z, (PeripheralSpec(0, "free-factor", 0), PeripheralSpec(1, "free-factor", 1)))
)


def w(word):
    return word_to_elem(word, FAB)


# -- criterion 1: metric core -------------------------------------------------


def test_criterion_01_metric_core():
    """All radius-5 triangles 0-thin, by the exhaustive tree scan, and
    measure_delta agrees with it; Gromov identity on 1e4 triples;
    geodesics exhaustively (1,0)-quasigeodesic."""
    ball5 = build_ball(FAB, 5)
    delta, witness, triples = _tree_ball_scan(ball5.elements)
    m = measure_delta(ball5)
    thin_ok = delta == 0 and (m.delta, m.witness, m.triples) == (delta, witness, triples)

    rng = random.Random(101)
    elems = ball5.elements
    ident_ok = True
    for _ in range(10_000):
        x, y, z = (rng.choice(elems) for _ in range(3))
        if FAB_WORD.dist(x, y) != gromov_product(y, z, x, FAB_WORD) + gromov_product(
            x, z, y, FAB_WORD
        ):
            ident_ok = False
            break

    geo_ok = True
    ball3 = build_ball(FAB, 3)
    for u in ball3.elements:
        for v in ball3.elements:
            path = FAB_WORD.geodesic(u, v)
            if not is_quasigeodesic(path, 1, 0).ok:
                geo_ok = False
                break
        if not geo_ok:
            break

    report(
        1,
        thin_ok and ident_ok and geo_ok,
        "delta=%s over %d triples (measure_delta: %s); identity on 1e4 triples: %s; "
        "%d^2 geodesics (1,0): %s" % (delta, triples, m.delta, ident_ok, len(ball3), geo_ok),
    )


# -- criteria 2 and 3: relative metric against the coned oracle ---------------


_ORACLE_CACHE = {}


def _coned_oracle(view, domain_radius):
    """Vertices: the X-ball.  Edges: X-edges plus all peripheral edges
    between domain vertices (the infinite peripheral families truncated to
    the domain)."""
    key = (id(view), domain_radius)
    if key in _ORACLE_CACHE:
        return _ORACLE_CACHE[key]
    G = view.group
    ball = build_ball(G.base, domain_radius)
    elems = list(ball.elements)
    index = {g: i for i, g in enumerate(elems)}
    rows, cols = [], []
    letters = [g for _, g in G.base.generator_elems()]
    letters += [G.base.inv(g) for g in letters]
    for g in elems:
        gi = index[g]
        for l in letters:
            hi = index.get(G.base.mul(g, l))
            if hi is not None:
                rows.append(gi)
                cols.append(hi)
    for p in G.peripherals:
        cosets = {}
        for g in elems:
            cosets.setdefault(reference_coset_key(G, p.nu, g), []).append(index[g])
        for members in cosets.values():
            for i in members:
                for j in members:
                    if i != j:
                        rows.append(i)
                        cols.append(j)
    mat = csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)),
        shape=(len(elems), len(elems)),
    )
    _ORACLE_CACHE[key] = (elems, index, mat)
    return elems, index, mat


def _pair_agreement(view, domain_radius=6, rel_radius=4):
    elems, index, mat = _coned_oracle(view, domain_radius)
    from_identity = shortest_path(mat, method="D", unweighted=True, indices=[0])[0]
    ball_idx = [i for i in range(len(elems)) if from_identity[i] <= rel_radius]
    mismatches = 0
    checked = 0
    dist = view.dist
    chunk = 512
    for c0 in range(0, len(ball_idx), chunk):
        sources = ball_idx[c0 : c0 + chunk]
        rows = shortest_path(mat, method="D", unweighted=True, indices=sources)
        for local, i in enumerate(sources):
            u = elems[i]
            row = rows[local]
            for j in ball_idx:
                if j < i:
                    continue
                if dist(u, elems[j]) != int(row[j]):
                    mismatches += 1
                checked += 1
    return len(ball_idx), checked, mismatches, ball_idx, elems


def _rel_ball(view, domain_radius, rel_radius):
    elems, index, mat = _coned_oracle(view, domain_radius)
    from_identity = shortest_path(mat, method="D", unweighted=True, indices=[0])[0]
    return [elems[i] for i in range(len(elems)) if from_identity[i] <= rel_radius]


def test_criterion_02_relative_metric_oracle():
    """RelGraphView.dist == truncated coned-graph BFS on all pairs of the relative
    4-ball, for F(a,b) rel <a> and Z^2 * Z rel factors."""
    size_f, checked_f, bad_f, _, _ = _pair_agreement(FAB_REL)
    size_z, checked_z, bad_z, _, _ = _pair_agreement(Z2Z_REL)
    report(
        2,
        bad_f == 0 and bad_z == 0,
        "F(a,b): %d vertices, %d pairs, %d mismatches; Z2*Z: %d vertices, %d pairs, %d mismatches"
        % (size_f, checked_f, bad_f, size_z, checked_z, bad_z),
    )


def test_criterion_03_geodesic_components():
    """Every geodesic produced over the criterion-2 balls has single-edge
    components and no backtracking (relative 4-ball pairs for F(a,b),
    relative 2-ball pairs for Z^2 * Z, plus identity-to-g for both 4-balls)."""
    violations = 0
    produced = 0

    def check(view, u, v):
        nonlocal violations, produced
        path = view.geodesic(u, v)
        produced += 1
        assert len(path) == view.dist(u, v)
        if any(c.edge_count() != 1 for c in find_components(path)):
            violations += 1
        elif not is_without_backtracking(path):
            violations += 1

    b4_f = _rel_ball(FAB_REL, 6, 4)
    for i, u in enumerate(b4_f):
        for v in b4_f[i:]:
            check(FAB_REL, u, v)
    b2_z = _rel_ball(Z2Z_REL, 6, 2)
    for i, u in enumerate(b2_z):
        for v in b2_z[i:]:
            check(Z2Z_REL, u, v)
    b4_z = _rel_ball(Z2Z_REL, 6, 4)
    e = Z2Z.identity()
    for v in b4_z:
        check(Z2Z_REL, e, v)
    report(
        3,
        violations == 0,
        "%d geodesics checked (F 4-ball pairs: %d; Z2*Z 2-ball: %d, 4-ball from 1: %d), %d violations"
        % (produced, len(b4_f), len(b2_z), len(b4_z), violations),
    )


# -- criterion 4: shortcutting fuzz -------------------------------------------


def _random_broken_line(rng, view, ball, max_nodes=5):
    n = rng.randint(1, max_nodes)
    G = view.group.base
    nodes = [G.identity()]
    for _ in range(n):
        step = rng.choice(ball.elements)
        if rng.random() < 0.4:
            # bias towards peripheral travel so chains actually appear
            a_run = rng.choice((w("a"), w("a^-1"))) * rng.randint(1, 9)
            step = G.mul(step, a_run)
        nodes.append(G.mul(nodes[-1], step))
    return BrokenLine.from_nodes(view, nodes)


def test_criterion_04_shortcut_invariants():
    """1e4-item fuzz corpus: every ShortcutResult invariant holds; the two
    hand-traced fixtures match their V-sets exactly."""
    from relhyp.shortcut import shortcut

    rng = random.Random(2024)
    ball = build_ball(FAB, 4)
    failures = 0
    for _ in range(10_000):
        bl = _random_broken_line(rng, FAB_REL, ball)
        theta = rng.randint(1, 8)
        res = shortcut(bl, theta)
        try:
            res.check_invariants()
        except AssertionError:
            failures += 1
    a5 = w("a a a a a")
    a10 = FAB.mul(a5, a5)
    fixture = BrokenLine.from_nodes(FAB_REL, [FAB.identity(), a5, a10])
    v5 = shortcut(fixture, 5).V
    v6 = shortcut(fixture, 6).V
    fixtures_ok = v5 == ((0, 0), (2, 2)) and v6 == ((0, 2),)
    report(
        4,
        failures == 0 and fixtures_ok,
        "10000 fuzz inputs, %d invariant failures; fixtures V(5)=%s V(6)=%s"
        % (failures, v5, v6),
    )


# -- criterion 5: shortcutting quasigeodesicity harness -----------------------


def _tamable_corpus(rng, count=1200):
    """Broken lines with long interior segments and engineered backtracking."""
    out = []
    for _ in range(count):
        n = rng.randint(2, 4)
        nodes = [FAB.identity()]
        for _ in range(n):
            a_run = w("a") * rng.randint(5, 12) if rng.random() < 0.8 else ()
            b_run = rng.choice((w("b"), w("b^-1"))) * rng.randint(3, 8)
            tail = rng.choice((w("a"), w("a^-1"))) * rng.randint(0, 9)
            step = FAB.mul(FAB.mul(a_run, b_run), tail)
            if rng.random() < 0.3:
                step = FAB.inv(step)
            nodes.append(FAB.mul(nodes[-1], step))
        out.append(BrokenLine.from_nodes(FAB_REL, nodes))
    return out


def test_criterion_05_shortcut_quasigeodesicity():
    """On the tamable sub-corpus (swept B, c0, zeta, theta), some pair
    (lambda <= 8, c <= 50) makes 100% of shortcuttings (lambda, c)-
    quasigeodesic without backtracking.  Any counterexample fails hard."""
    from relhyp.shortcut import is_tamable, verify_shortcut_proposition

    rng = random.Random(77)
    corpus = _tamable_corpus(rng)
    sweeps = [
        (5, 1, 5, 5),
        (8, 1, 4, 4),
        (12, 2, 6, 6),
        (21, 2, 5, 5),
    ]  # (B, c0, zeta, theta)
    tamable_inputs = []
    for bl in corpus:
        for (B, c0, zeta, theta) in sweeps:
            if is_tamable(bl, B, c0, zeta, theta):
                tamable_inputs.append((bl, theta))
                break
    assert len(tamable_inputs) >= 300, "corpus too thin: %d" % len(tamable_inputs)

    winner = None
    for lam, c in ((1, 4), (2, 8), (4, 20), (8, 50)):
        ok = True
        for bl, theta in tamable_inputs:
            rep = verify_shortcut_proposition(bl, theta, lam, c, 0)
            if not (rep.quasigeodesic.ok and rep.without_backtracking):
                ok = False
                break
        if ok:
            winner = (lam, c)
            break
    report(
        5,
        winner is not None and winner[0] <= 8 and winner[1] <= 50,
        "%d tamable inputs; 100%% pass at (lambda, c) = %s" % (len(tamable_inputs), winner),
    )


# -- criterion 6: concatenation bound -----------------------------------------


def test_criterion_06_concat_lemma():
    """delta = 0, c0 = 0 (c1 = 1, c2 = 10, c3 = 10(0+2) = 20): every broken
    line with <= 4 segments of length <= 4 meeting the hypotheses passes
    (4, c2) resp. (4, c3).

    Scale note: hypothesis-satisfying lines are exactly the no-cancellation
    chains.  Up to 3 segments they are checked one by one (reduced
    concatenation, production x_length); chains with 2 segments and a 1e4
    random sample of longer ones additionally run the full quasigeodesicity
    checker.  For 4 segments the count (~2.7e8) is certified by the verified
    local-to-global step: no cancellation at each node makes the whole label
    reduced, hence geodesic, hence (4, c) for every c >= 0."""
    profile = ConstantsProfile(delta=Fraction(0), c0=Fraction(0))
    assert (profile.c1, profile.c2, profile.c3) == (1, 10, 20)

    words = []  # nonempty reduced words of length <= 4, as tuples
    for n in range(1, 5):
        for letters in itertools.product(signed_letters(2), repeat=n):
            red = []
            ok = True
            for x in letters:
                if red and red[-1] == -x:
                    ok = False
                    break
                red.append(x)
            if ok:
                words.append(tuple(letters))
    assert len(words) == 4 + 12 + 36 + 108

    def no_cancel(u, v):
        return u[-1] != -v[0]

    # pair table, exhaustively verified with the production normal form
    pair_ok = {}
    for u in words:
        for v in words:
            pair_ok[(u, v)] = no_cancel(u, v)
            assert (len(FAB.mul(u, v)) == len(u) + len(v)) == pair_ok[(u, v)]

    # chains of <= 3 segments: exhaustive reduced-concatenation check
    checked = 0
    bad = 0
    for u in words:
        if len(FAB.mul((), u)) != len(u):
            bad += 1
        checked += 1
    for u in words:
        for v in words:
            if not pair_ok[(u, v)]:
                continue
            checked += 1
            if len(FAB.mul(u, v)) != len(u) + len(v):
                bad += 1
    sample_traces = []
    for u in words:
        for v in words:
            if not pair_ok[(u, v)]:
                continue
            uv = FAB.mul(u, v)
            for t in words:
                if not pair_ok[(v, t)]:
                    continue
                checked += 1
                if len(FAB.mul(uv, t)) != len(u) + len(v) + len(t):
                    bad += 1

    # full production checker on all 2-segment chains (ends may be short,
    # so both the (4, c2) and the (4, c3) forms are exercised) ...
    direct_bad = 0
    direct = 0
    for u in words:
        for v in words:
            if not pair_ok[(u, v)]:
                continue
            nodes = [FAB.identity(), u, FAB.mul(u, v)]
            bl = BrokenLine.from_nodes(FAB_WORD, nodes)
            rep = check_concat_lemma(bl, 0, profile)
            direct += 1
            if rep.hypotheses_hold and not rep.conclusion_c3.ok:
                direct_bad += 1
            if rep.strong_hypotheses and not rep.conclusion_c2.ok:
                direct_bad += 1
    # ... and on a 1e4 random sample of 3- and 4-segment chains, including
    # chains with trivial end segments (the c3-only case)
    rng = random.Random(6)
    for _ in range(10_000):
        n = rng.choice((3, 4))
        seq = [rng.choice(words)]
        ok = True
        for _ in range(n - 1):
            nxt = [v for v in rng.sample(words, 40) if pair_ok[(seq[-1], v)]]
            if not nxt:
                ok = False
                break
            seq.append(nxt[0])
        if not ok:
            continue
        nodes = [FAB.identity()]
        for word_ in seq:
            nodes.append(FAB.mul(nodes[-1], word_))
        if rng.random() < 0.2:
            nodes.insert(0, nodes[0])  # trivial first segment
        bl = BrokenLine.from_nodes(FAB_WORD, nodes)
        rep = check_concat_lemma(bl, 0, profile)
        direct += 1
        if rep.hypotheses_hold and not rep.conclusion_c3.ok:
            direct_bad += 1
        if rep.strong_hypotheses and rep.conclusion_c2 and not rep.conclusion_c2.ok:
            direct_bad += 1

    # certified population of 4-segment chains: count them by the transfer
    # matrix of the exhaustively verified pair table; the local-to-global
    # step (verified on every shorter chain above) covers each of them
    succ_counts = {}
    for u in words:
        succ_counts[u] = sum(1 for v in words if pair_ok[(u, v)])
    two_chain_ends = {}
    for u in words:
        two_chain_ends[u] = sum(succ_counts[v] for v in words if pair_ok[(u, v)])
    four_chains = sum(
        two_chain_ends[v] for u in words for v in words if pair_ok[(u, v)]
    )

    report(
        6,
        bad == 0 and direct_bad == 0,
        "%d reduced-concatenation checks (n<=3 exhaustive), %d full checker runs, "
        "%d four-segment chains certified by the verified pair table; failures %d/%d"
        % (checked, direct, four_chains, bad, direct_bad),
    )


# -- criterion 7: path representatives ----------------------------------------


def _flat_min_type(g, qp, rp, view, budget):
    G = view.group.base
    if g == G.identity():
        return (1, 0, 0)  # single trivial segment, by the identity convention
    ball = build_ball(G, budget.max_len)
    in_q = membership_oracle(G, qp.gens)
    in_r = membership_oracle(G, rp.gens)
    cands = [x for x in ball.elements if x != G.identity() and (in_q(x) or in_r(x))]
    best = None
    for n in range(1, budget.max_factors + 1):
        for combo in itertools.product(cands, repeat=n):
            prod = G.identity()
            for y in combo:
                prod = G.mul(prod, y)
            if prod != g:
                continue
            nodes = [G.identity()]
            for y in combo:
                nodes.append(G.mul(nodes[-1], y))
            line = BrokenLine.from_nodes(view, nodes)
            comp = sum(
                c.x_length for seg in line.segments for c in find_components(seg)
            )
            t = (n, line.length(), comp)
            if best is None or t < best:
                best = t
    return best


def _min_kind2_width(g, q_spec, r_spec, qp, rp, view, budget):
    """Brute-force minimal kind-II representative width, or None."""
    G = view.group.base
    ball = build_ball(G, budget.max_len)
    in_specs = {
        name: membership_oracle(G, spec.gens)
        for name, spec in (("Q", q_spec), ("R", r_spec), ("Q'", qp), ("R'", rp))
    }
    qs = [x for x in ball.elements if in_specs["Q"](x)]
    rs = [x for x in ball.elements if in_specs["R"](x)]
    cands = [
        x
        for x in ball.elements
        if x != G.identity() and (in_specs["Q'"](x) or in_specs["R'"](x))
    ]
    best = None
    for q in qs:
        for n in range(0, budget.max_factors + 1):
            for combo in itertools.product(cands, repeat=n):
                prod = q
                for y in combo:
                    prod = G.mul(prod, y)
                r = G.mul(G.inv(prod), g)
                if not in_specs["R"](r):
                    continue
                if G.x_length(r) > budget.max_len:
                    continue
                nodes = [G.identity(), q]
                for y in combo:
                    nodes.append(G.mul(nodes[-1], y))
                nodes.append(g)
                line = BrokenLine.from_nodes(view, nodes)
                comp = sum(
                    c.x_length for seg in line.segments for c in find_components(seg)
                )
                t = (n, line.length(), comp)
                if best is None or t < best:
                    best = t
    return best


def test_criterion_07_path_representatives():
    """minimize_type equals the flat brute-force minimum on 100 instances
    (budget: factors <= 4, length <= 6); minimal kind-II widths are even
    whenever g lies outside QR."""
    rng = random.Random(301)
    budget = SearchBudget(4, 6)
    pairs = [
        ("a a", "b b"),
        ("a a a", "b b b"),
        ("a a", "b a b^-1"),
    ]
    ball = build_ball(FAB, 4)
    agree = 0
    for i in range(100):
        qg, rg = pairs[i % len(pairs)]
        qp = SubgroupSpec((w(qg),))
        rp = SubgroupSpec((w(rg),))
        if rng.random() < 0.7:
            # a genuine product, so the searches usually succeed
            k = rng.randint(1, 3)
            g = FAB.identity()
            for _ in range(k):
                g = FAB.mul(g, rng.choice([w(qg), FAB.inv(w(qg)), w(rg), FAB.inv(w(rg))]))
        else:
            g = rng.choice(ball.elements)
        res = minimize_type(g, qp, rp, FAB_REL, budget)
        oracle = _flat_min_type(g, qp, rp, FAB_REL, budget)
        mine = None if res.rep_type is None else tuple(res.rep_type)
        if mine == oracle:
            agree += 1
    assert agree == 100

    # kind-II widths on found minimal representatives
    q_spec = SubgroupSpec((w("a"),))
    r_spec = SubgroupSpec((w("b"),))
    qp = SubgroupSpec((w("a a"),))
    rp = SubgroupSpec((w("b b"),))
    qr = RationalSubset(FAB, (), (q_spec.gens, r_spec.gens))
    width_budget = SearchBudget(4, 4)
    checked = 0
    even_ok = True
    for g_word in ("b b a a", "a b b a a", "b b a a a a", "a a a b b a a b b a a"):
        g = w(g_word)
        if qr.contains(g):
            continue
        best = _min_kind2_width(g, q_spec, r_spec, qp, rp, FAB_REL, width_budget)
        if best is None:
            continue
        checked += 1
        if best[0] % 2 != 0:
            even_ok = False
    report(
        7,
        agree == 100 and even_ok and checked >= 2,
        "100/100 brute-force agreements; %d kind-II minimal widths all even: %s"
        % (checked, even_ok),
    )


# -- criterion 8: conditions fixture ------------------------------------------


def test_criterion_08_conditions():
    """Q=<a>, R=<b>, Q'=<a^k>, R'=<b^k>, P=<a>: C1 holds for all k; C4
    follows from C1 with abelian P; C2/C3 verdicts at radius 8 are monotone
    in k at fixed B and C."""
    c1_ok = True
    c4_ok = True
    c2_verdicts = []
    c3_verdicts = []
    for k in (1, 2, 3, 4, 5):
        ctx = ConditionContext(
            view=FAB_REL,
            Q=SubgroupSpec((w("a"),)),
            R=SubgroupSpec((w("b"),)),
            Qp=SubgroupSpec((FAB.pow(w("a"), k),)),
            Rp=SubgroupSpec((FAB.pow(w("b"), k),)),
            P_list=(SubgroupSpec((w("a"),)),),
            B=3,
            C=3,
            radius=8,
        )
        r1 = check_condition("C1", ctx)
        if r1.verdict != "holds":
            c1_ok = False
        r4 = check_condition("C4", ctx)
        if r1.ok and r4.verdict not in ("holds", "vacuous"):
            c4_ok = False
        c5 = check_condition("C5", ctx)
        assert c5.verdict == "vacuous"  # abelian peripheral
        c2_verdicts.append(check_condition("C2", ctx).ok)
        c3_verdicts.append(check_condition("C3", ctx).ok)
    mono = all(
        later or not earlier
        for earlier, later in zip(c2_verdicts, c2_verdicts[1:])
    ) and all(
        later or not earlier
        for earlier, later in zip(c3_verdicts, c3_verdicts[1:])
    )
    report(
        8,
        c1_ok and c4_ok and mono,
        "C1 all k: %s; C4-from-C1: %s; C2 verdicts %s, C3 verdicts %s (monotone: %s)"
        % (c1_ok, c4_ok, c2_verdicts, c3_verdicts, mono),
    )


# -- criterion 9: separability engine ------------------------------------------


def _brute_product(g, oracles, ball):
    max_len = ball.radius
    lists = [[x for x in ball.elements if o(x)] for o in oracles]

    def rec(i, value):
        if i == len(lists):
            return value == g
        gap = FAB.x_length(FAB.mul(FAB.inv(value), g))
        if gap > (len(lists) - i) * max_len:
            return False
        return any(rec(i + 1, FAB.mul(value, y)) for y in lists[i])

    return rec(0, FAB.identity())


def test_criterion_09_separability_engine():
    """product_member vs brute force on 500 random instances (s <= 3,
    lengths <= 8); separation with degree <= 6 for every non-member, every
    certificate re-verified by direct image computation."""
    rng = random.Random(909)
    gen_words = ["a", "b", "a a", "b b", "a b", "a b^-1", "a a a", "b b b"]
    ball5 = build_ball(FAB, 5)
    oracle_balls = {}  # radius -> ball, each built once

    def oracle_ball(r):
        if r not in oracle_balls:
            oracle_balls[r] = build_ball(FAB, r)
        return oracle_balls[r]

    mismatches = 0
    nonmembers = []
    for _ in range(500):
        s = rng.randint(1, 3)
        factors = [
            tuple(w(x) for x in rng.sample(gen_words, rng.randint(1, 2)))
            for _ in range(s)
        ]
        g = rng.choice(ball5.elements)
        fast = product_member(g, factors, FAB)
        oracles = [membership_oracle(FAB, f) for f in factors]
        slow = _brute_product(g, oracles, oracle_ball(8))
        if fast and not slow:
            slow = _brute_product(g, oracles, oracle_ball(12))
            assert slow, "no witness found for a claimed member: %s" % (g,)
        if fast != slow:
            mismatches += 1
        if not fast:
            nonmembers.append((g, factors))
    sep_fail = 0
    verified = 0
    for g, factors in nonmembers:
        target = RationalSubset(FAB, (), tuple(factors))
        q = find_separating_quotient(g, target, n_max=6)
        if q is None or q.degree > 6:
            sep_fail += 1
            continue
        if verify_separation(q, g, target):
            verified += 1
        else:
            sep_fail += 1
    report(
        9,
        mismatches == 0 and sep_fail == 0 and verified == len(nonmembers),
        "500 membership instances, %d mismatches; %d non-members separated and re-verified, %d failures"
        % (mismatches, verified, sep_fail),
    )


# -- criterion 10: minx-quotient harness ---------------------------------------


def test_criterion_10_minx_harness():
    """Z = <a> in F(a,b): for C in {1,2,3} a verified quotient with
    minx(ZN \\ Z) >= C, ball-checked at radius C+2."""
    Z = RationalSubset(FAB, (), ((w("a"),),))
    results = []
    for C in (1, 2, 3):
        res = minx_quotient_harness(Z, C)
        results.append((C, res.verified, res.achieved_min, res.quotient.degree if res.quotient else None))
        assert res.verified and res.achieved_min >= C
    report(10, True, "results (C, verified, min, degree): %s" % (results,))


# -- criterion 11: amalgam engine -----------------------------------------------


def test_criterion_11_amalgam_engine():
    """Z/4 *_{Z/2} Z/6: reduce vs the rewriting-closure oracle on all words
    of syllable length <= 6; BC membership vs ball enumeration; induced
    quotients reject exactly the D-incompatible pairs of a 50-pair corpus."""
    A = Amalgam(cyclic_group(4, "b"), cyclic_group(6, "c"), ((0, 0), (2, 3)))
    A.spot_check()

    words, index, find = amalgam_word_classes(A, 6)
    by_class = {}
    nf_to_class = {}
    reduce_ok = True
    for word in words:
        nf = amalgam_reduce(word, A).syllables
        root = find(index[word])
        if by_class.setdefault(root, nf) != nf:
            reduce_ok = False
        if nf_to_class.setdefault(nf, root) != root:
            reduce_ok = False

    bc_set = set()
    for b in range(4):
        for c in range(6):
            bc_set.add(A.mul(A.embed(0, b), A.embed(1, c)))
    ball6 = build_ball(A, 6)
    bc_ok = all(
        amalgam_product_member(g, "BC", A) == (g in bc_set) for g in ball6.elements
    )

    rng = random.Random(4646)
    degrees = [1, 2, 3, 4, 6]
    pair_count = 0
    iq_ok = True
    while pair_count < 50:
        nb, nc = rng.choice(degrees), rng.choice(degrees)
        pb_img = _power_perm(rng, nb, 4)
        pc_img = _power_perm(rng, nc, 6)
        if pb_img is None or pc_img is None:
            continue
        pb = FiniteQuotient(A.left, nb, (pb_img,))
        pc = FiniteQuotient(A.right, nc, (pc_img,))
        compat = True
        fwd, rev = {}, {}
        for dl, dr in A.edge:
            l, r = pb.image_of(dl), pc.image_of(dr)
            if fwd.setdefault(l, r) != r or rev.setdefault(r, l) != l:
                compat = False
        raised = False
        try:
            induced_quotient(pb, pc, A)
        except DIncompatibleError:
            raised = True
        if raised == compat:
            iq_ok = False
        pair_count += 1

    report(
        11,
        reduce_ok and bc_ok and iq_ok,
        "%d words vs rewriting oracle: %s; BC on %d-element ball: %s; 50 quotient pairs: %s"
        % (len(words), reduce_ok, len(ball6), bc_ok, iq_ok),
    )


def _power_perm(rng, n, order_divides):
    from relhyp.separability import perm_mul

    for _ in range(40):
        pool = list(range(n))
        rng.shuffle(pool)
        p = tuple(pool)
        cur = p
        order = 1
        while cur != tuple(range(n)):
            cur = perm_mul(cur, p)
            order += 1
            if order > 12:
                break
        if order <= 12 and order_divides % order == 0:
            return p
    return None
