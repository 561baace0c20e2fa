import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relhyp import (
    FreeGroup,
    FreeProduct,
    RelHyp,
    cyclic_group,
    geometry,
    word_to_elem,
)
from relhyp.cayley import (
    BrokenLine,
    EdgePath,
    RelGraphView,
    build_ball,
    relative_view,
    word_metric_view,
)
from relhyp.geometry import (
    ConstantsProfile,
    check_concat_lemma,
    gromov_product,
    is_quasigeodesic,
    measure_delta,
    thin_triangle_delta,
    _ScanTable,
)
from relhyp.groups import common_prefix

from conftest import (
    _realized_dist,
    _side_point,
    _tree_ball_scan,
    _tree_triple_points,
    reference_thin_triangle_delta,
)
from test_cayley import METRIC_SHAPES

w = word_to_elem


class TestGromovProduct:
    def test_base_point(self, fab, fab_word):
        x = w("a b a", fab)
        y = w("b b", fab)
        assert gromov_product(x, y, x, fab_word) == 0

    def test_common_prefix(self, fab, fab_word):
        assert gromov_product(w("a a b", fab), w("a a", fab), fab.identity(), fab_word) == 2
        assert gromov_product(w("a", fab), w("b", fab), fab.identity(), fab_word) == 0

    def test_identity_decomposition(self, fab, fab_word):
        # d(x,y) = <y,z>_x + <x,z>_y on random triples
        rng = random.Random(7)
        ball = build_ball(fab, 4)
        for _ in range(500):
            x, y, z = (rng.choice(ball.elements) for _ in range(3))
            lhs = fab_word.dist(x, y)
            assert lhs == gromov_product(y, z, x, fab_word) + gromov_product(x, z, y, fab_word)

    def test_monotone_along_sides(self, fab, fab_word):
        # for u on [x,z], v on [z,y]: <u,v>_z <= <x,y>_z
        rng = random.Random(9)
        ball = build_ball(fab, 4)
        for _ in range(200):
            x, y, z = (rng.choice(ball.elements) for _ in range(3))
            side_xz = fab_word.geodesic(z, x).vertices
            side_zy = fab_word.geodesic(z, y).vertices
            u = rng.choice(side_xz)
            v = rng.choice(side_zy)
            assert gromov_product(u, v, z, fab_word) <= gromov_product(x, y, z, fab_word)


class TestQuasigeodesic:
    def test_geodesic_passes(self, fab, fab_word):
        p = fab_word.geodesic(fab.identity(), w("a b a b", fab))
        assert is_quasigeodesic(p, 1, 0).ok

    def test_backtracking_path(self, fab, fab_word):
        p = EdgePath(
            fab_word,
            fab.identity(),
            tuple(("x", w(s, fab)) for s in ("a", "b", "b^-1", "a")),
        )
        verdict = is_quasigeodesic(p, 1, 0)
        assert not verdict.ok
        assert verdict.witness.elem() == fab.identity()
        assert is_quasigeodesic(p, 1, 2).ok

    def test_subpath_monotonicity(self, fab, fab_word):
        rng = random.Random(13)
        letters = ["a", "b", "a^-1", "b^-1"]
        for _ in range(50):
            labs = tuple(("x", w(rng.choice(letters), fab)) for _ in range(8))
            p = EdgePath(fab_word, fab.identity(), labs)
            if is_quasigeodesic(p, 2, 3).ok:
                i = rng.randrange(4)
                j = rng.randrange(i + 1, 9)
                assert is_quasigeodesic(p.subpath(i, j), 2, 3).ok

    def test_attachment_bound(self, fab, fab_word):
        # prefixing and suffixing by length <= D keeps (lam, c + 2(lam+1)D)
        rng = random.Random(19)
        letters = ["a", "b", "a^-1", "b^-1"]
        for _ in range(80):
            core = fab_word.geodesic(fab.identity(), w("a b a b a", fab))
            D = 2
            pre = [("x", w(rng.choice(letters), fab)) for _ in range(rng.randint(0, D))]
            post = [("x", w(rng.choice(letters), fab)) for _ in range(rng.randint(0, D))]
            start = fab.identity()
            for lab in reversed(pre):
                start = fab.mul(start, fab.inv(lab[1]))
            p = EdgePath(fab_word, start, tuple(pre) + core.labels + tuple(post))
            assert is_quasigeodesic(p, 1, 0 + 2 * (1 + 1) * D).ok


class TestThinTriangleReference:
    """thin_triangle_delta against the Fraction arclength scan in conftest."""

    def test_every_triple_of_pinned_delta_balls(self, z2z, amalgam46):
        # the word-view radius-2 balls of the benchmark's generic delta inputs
        for G, count in ((z2z.group.base, 5456), (amalgam46, 560)):
            view = word_metric_view(G)
            triples = list(combinations(build_ball(G, 2).elements, 3))
            assert len(triples) == count
            for x, y, z in triples:
                assert thin_triangle_delta(x, y, z, view) == reference_thin_triangle_delta(
                    x, y, z, view
                )

    @pytest.mark.parametrize(
        "base,peripherals,radius",
        [pytest.param(*shape[1:], id=shape[0]) for shape in METRIC_SHAPES],
    )
    def test_random_triples_word_and_relative(self, base, peripherals, radius):
        elems = build_ball(base, radius).elements
        rng = random.Random(11)
        for view in (word_metric_view(base), relative_view(RelHyp(base, peripherals))):
            for _ in range(150):
                x, y, z = (rng.choice(elems) for _ in range(3))
                assert thin_triangle_delta(x, y, z, view) == reference_thin_triangle_delta(
                    x, y, z, view
                )


def _distinct_views():
    """The word view of every METRIC_SHAPES base and every relative view,
    each once."""
    views = {}
    for name, base, peripherals, _ in METRIC_SHAPES:
        views.setdefault(word_metric_view(base), name + "-word")
        views.setdefault(relative_view(RelHyp(base, peripherals)), name)
    return [pytest.param(view, id=name) for view, name in views.items()]


def _plain_scan(elems, view):
    """measure_delta's generic scan as a loop of lone thin_triangle_delta
    calls, each building its own table."""
    best, witness = Fraction(0), None
    for x, y, z in combinations(elems, 3):
        v = thin_triangle_delta(x, y, z, view)
        if v > best:
            best, witness = v, (x, y, z)
    return best, witness, comb(len(elems), 3)


@pytest.fixture(scope="module")
def floor_cases(z2z, amalgam46, z2, fab_rel_a):
    """(view, ball elements, one table for the view) on word and relative
    views of Z^2 * Z, the amalgam, Z^2 and F(a, b) rel <a>."""
    return [
        (view, build_ball(view.group.base, radius).elements, _ScanTable(view))
        for view, radius in (
            (z2z, 2),
            (word_metric_view(z2z.group.base), 2),
            (word_metric_view(amalgam46), 3),
            (word_metric_view(z2), 3),
            (fab_rel_a, 3),
        )
    ]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_floor_is_a_lower_bound(data, floor_cases):
    # thin_triangle_delta(..., floor=f) == max(f, thinness), with the
    # thinness of the unpruned Fraction arclength scan, which shares neither
    # the 2t bound nor the perimeter cap; the floor call shares its view's
    # table across examples, so it also reads sides and distances that
    # other triangles built
    view, elems, table = data.draw(st.sampled_from(floor_cases))
    x, y, z = data.draw(st.lists(st.sampled_from(elems), min_size=3, max_size=3))
    f = data.draw(st.sampled_from([Fraction(k, 2) for k in range(11)]))
    v = thin_triangle_delta(x, y, z, view, table, floor=f)
    assert v == max(f, reference_thin_triangle_delta(x, y, z, view))
    # a triangle that cannot beat the floor returns the floor object itself
    assert (v is f) == (v == f)


@pytest.mark.parametrize(
    "rank,radius",
    [
        pytest.param(k, r, id="F%d-r%d" % (k, r))
        for k, top in ((1, 5), (2, 2), (3, 2))
        for r in range(top + 1)
    ],
)
def test_free_delta_closed_form(rank, radius):
    # measure_delta answers a free ball without a scan; a scan of lone
    # triangles must find the same value, witness and count
    G = FreeGroup(tuple("abc"[:rank]))
    ball = build_ball(G, radius)
    m = measure_delta(ball)
    assert (m.delta, m.witness, m.triples) == _plain_scan(ball.elements, word_metric_view(G))


class TestScanTable:
    """One _ScanTable per measure_delta scan, and the bound that skips
    triples and positions unable to beat the running maximum, change no
    value, witness or count, and build each side at most once per vertex
    pair."""

    def test_pinned_delta_balls(self, z2z, z2, amalgam46):
        # the two benchmark balls, then Z^2, a free product of two finite
        # cyclic groups and the amalgam at larger radii
        c3c4 = FreeProduct((cyclic_group(3, "u"), cyclic_group(4, "v")))
        for G, radius in (
            (z2z.group.base, 2), (amalgam46, 2), (amalgam46, 3),
            (z2, 1), (z2, 2), (z2, 3), (c3c4, 1), (c3c4, 2), (c3c4, 3),
        ):
            ball = build_ball(G, radius)
            m = measure_delta(ball)
            assert (m.delta, m.witness, m.triples) == _plain_scan(
                ball.elements, word_metric_view(G)
            ), (G, radius)

    def test_bound_skips_most_triples(self, z2z, amalgam46, monkeypatch):
        # the two benchmark balls at radius 2: of 5,456 triples on Z^2 * Z
        # and 560 on the amalgam, exactly 1,260 and 389 can beat the running
        # maximum when they are reached, and only those reach the module's
        # thin_triangle_delta.  The bound is the largest doubled Gromov
        # product capped by the perimeter: a doubled position t beats best
        # only when floor(best) < t <= min(L, P - floor(best) - 1)
        calls = []
        thin = geometry.thin_triangle_delta

        def counted(*args, **kwargs):
            calls.append(args[:3])
            return thin(*args, **kwargs)

        monkeypatch.setattr(geometry, "thin_triangle_delta", counted)
        for G, delta, triples, called in (
            (z2z.group.base, 4, 5456, 1260), (amalgam46, 2, 560, 389),
        ):
            calls.clear()
            m = measure_delta(build_ball(G, 2))
            assert (m.delta, m.triples) == (delta, triples)
            assert m.witness in calls
            assert len(calls) == called

    @pytest.mark.parametrize("view", _distinct_views())
    def test_metric_shapes_radius_2(self, view):
        # measure_delta's loop, one table shared by every triple and the
        # running maximum as floor, on word and relative views alike
        elems = build_ball(view.group.base, 2).elements
        table = _ScanTable(view)
        best, witness = Fraction(0), None
        for x, y, z in combinations(elems, 3):
            v = thin_triangle_delta(x, y, z, view, table, floor=best)
            if v > best:
                best, witness = v, (x, y, z)
        assert (best, witness, comb(len(elems), 3)) == _plain_scan(elems, view)

    def test_table_of_another_view(self, fab, fab_word, fab_rel_a):
        x, y, z = (w(s, fab) for s in ("a", "b", "a b"))
        with pytest.raises(ValueError):
            thin_triangle_delta(x, y, z, fab_word, _ScanTable(fab_rel_a))

    def test_one_geodesic_per_pair(self, z2z, monkeypatch):
        # each side is read off one decompose call, made at most once per
        # unordered pair of the ball, and nothing else in the scan decomposes
        calls = []
        decompose = RelGraphView.decompose

        def counted(self, g):
            calls.append(g)
            return decompose(self, g)

        monkeypatch.setattr(RelGraphView, "decompose", counted)
        ball = build_ball(z2z.group.base, 2)
        assert len(ball) == 33
        measure_delta(ball)
        assert 0 < len(calls) <= comb(33, 2)

    def test_each_edge_multiplied_once(self, z2z, monkeypatch):
        # one table reads every side of the Z^2 * Z ball at radius 2: each
        # entry of table.steps costs exactly one base.mul, and the side
        # walks make no other; the only other product is the one g^-1 h
        # that each side decomposes
        G = z2z.group.base
        elems = build_ball(G, 2).elements
        table = _ScanTable(word_metric_view(G))
        nums = [table.num(g) for g in elems]
        muls, decomposes = [], []
        mul, decompose = FreeProduct.mul, RelGraphView.decompose

        def counted_mul(self, a, b):
            muls.append((a, b))
            return mul(self, a, b)

        def counted_decompose(self, g):
            decomposes.append(g)
            return decompose(self, g)

        monkeypatch.setattr(FreeProduct, "mul", counted_mul)
        monkeypatch.setattr(RelGraphView, "decompose", counted_decompose)
        for u, v in combinations(nums, 2):
            table.side(u, v)
        assert len(decomposes) == comb(33, 2)
        assert len(muls) == len(table.steps) + len(decomposes)
        for i, x in table.steps:
            assert (table.elems[i], x) in muls
        assert len(table.steps) <= len(table.elems) * 2 * len(G.generator_elems())

    @pytest.mark.parametrize("view", _distinct_views())
    def test_sides_are_canonical_geodesics(self, view):
        # the side between two vertices, built from the end with the lower
        # sort key by walking decompose's labels, is view.geodesic between
        # them in that order: its vertices, then its label kinds, and the
        # same reversed from the other end
        base = view.group.base
        elems = build_ball(base, 2).elements
        table = _ScanTable(view)
        for u, v in combinations(elems, 2):
            lo, hi = sorted((u, v), key=base.sort_key)
            path = view.geodesic(lo, hi)
            kinds = tuple(lab[:-1] for lab in path.labels)
            for a, b, verts, ks in (
                (hi, lo, path.vertices[::-1], kinds[::-1]),
                (lo, hi, path.vertices, kinds),
            ):
                side_verts, side_kinds = table.side(table.num(a), table.num(b))
                assert tuple(table.elems[i] for i in side_verts) == verts, (a, b)
                assert side_kinds == ks, (a, b)

    @pytest.mark.parametrize("first,expected", [(("h", 0), 1), (("x",), 0)])
    def test_edge_kinds_are_compared(self, fab, fab_rel_a, first, expected):
        # In the coned graph of F(a, b) rel <a>, 1 and a are joined by the
        # x edge a and by an h edge.  Sides from 1 to a b and to a b^-1 that
        # reach a by those two edges have midpoints 1 apart there; by one
        # edge, 0.
        one = fab.identity()
        a, ab, ab_ = (w(s, fab) for s in ("a", "a b", "a b^-1"))
        table = _ScanTable(fab_rel_a)
        for path, kinds in (
            ((one, a, ab), (first, ("x",))),
            ((one, a, ab_), (("x",), ("x",))),
            ((ab, a, ab_), (("x",), ("x",))),
        ):
            verts = tuple(map(table.num, path))
            table.sides[verts[0], verts[-1]] = verts, kinds
            table.sides[verts[-1], verts[0]] = verts[::-1], kinds[::-1]
        assert thin_triangle_delta(one, ab, ab_, fab_rel_a, table) == expected


class TestTreeKernelPoints:
    def test_every_signature_of_the_f2_radius_3_ball(self, fab, fab_word):
        # each doubled distance _tree_triple_points yields is twice the
        # realized distance of its two points on the word view, and every
        # position it skips is at distance 0
        elems = build_ball(fab, 3).elements
        firsts = {}
        for x, y, z in combinations(elems, 3):
            sig = (len(x), len(y), len(z),
                   common_prefix(x, y), common_prefix(x, z), common_prefix(y, z))
            firsts.setdefault(sig, (x, y, z))
        assert len(firsts) == 73
        for sig, (x, y, z) in firsts.items():
            yielded = {(corner, t2): d2 for corner, t2, d2 in _tree_triple_points(*sig)}
            seen = 0
            for corner, (c, p, q) in enumerate(((x, y, z), (y, x, z), (z, x, y))):
                side1, side2 = fab_word.geodesic(c, p), fab_word.geodesic(c, q)
                for t2 in range(int(2 * gromov_product(p, q, c, fab_word)) + 1):
                    t = Fraction(t2, 2)
                    d2 = 2 * _realized_dist(fab_word, _side_point(side1, t), _side_point(side2, t))
                    if (corner, t2) in yielded:
                        seen += 1
                        assert yielded[corner, t2] == d2, (sig, corner, t2)
                    else:
                        assert d2 == 0, (sig, corner, t2)
            assert seen == len(yielded), sig


class TestThinTriangles:
    def test_degenerate(self, fab, fab_word):
        x = w("a b", fab)
        assert thin_triangle_delta(x, x, x, fab_word) == 0

    def test_tree_triangles_are_0_thin(self, fab, fab_word):
        rng = random.Random(3)
        ball = build_ball(fab, 4)
        for _ in range(300):
            x, y, z = (rng.choice(ball.elements) for _ in range(3))
            assert thin_triangle_delta(x, y, z, fab_word) == 0

    def test_fast_path_matches_generic(self, fab, fab_word):
        # the free ball scan and the one-triangle scan agree
        rng = random.Random(5)
        ball = build_ball(fab, 3)
        for _ in range(60):
            x, y, z = (rng.choice(ball.elements) for _ in range(3))
            assert _tree_ball_scan((x, y, z))[0] == thin_triangle_delta(x, y, z, fab_word)

    def test_lattice_triangle_positive(self, z2):
        view = word_metric_view(z2)
        d = thin_triangle_delta(z2.identity(), w("x x x", z2), w("y y y", z2), view)
        assert d > 0

    def test_relative_metric_triangles(self, fab, fab_rel_a):
        # the coned graph is tree-like but not a tree: thinness stays small
        rng = random.Random(8)
        ball = build_ball(fab, 4)
        worst = Fraction(0)
        for _ in range(60):
            x, y, z = (rng.choice(ball.elements) for _ in range(3))
            worst = max(worst, thin_triangle_delta(x, y, z, fab_rel_a))
        assert worst <= 2

    def test_measure_delta_tree(self, fab):
        ball = build_ball(fab, 2)
        assert measure_delta(ball).delta == 0

    def test_measure_delta_lattice(self, z2):
        m = measure_delta(build_ball(z2, 3))
        assert m.delta >= 1

    def test_measure_delta_monotone(self, z2):
        assert measure_delta(build_ball(z2, 2)).delta <= measure_delta(build_ball(z2, 3)).delta

    def test_single_vertex(self, fab):
        assert measure_delta(build_ball(fab, 0)).delta == 0


class TestConstantsProfile:
    def test_degenerate_arithmetic(self):
        # delta = 0, c0 = 0: c1 = 12(0+0)+1 = 1, c2 = 10(0+1) = 10,
        # c3 = 10(0+2*1) = 20
        prof = ConstantsProfile(delta=Fraction(0), c0=Fraction(0))
        assert prof.c1 == 1 and prof.c2 == 10 and prof.c3 == 20

    def test_formula_dependencies(self):
        prof = ConstantsProfile(delta=Fraction(1), c0=Fraction(14))
        assert prof.c1 == 12 * (14 + 1) + 1
        assert prof.c2 == 10 * (1 + prof.c1)
        assert prof.c3 == 10 * (1 + 2 * prof.c1)


class TestConcatLemma:
    def _profile(self):
        return ConstantsProfile(delta=Fraction(0), c0=Fraction(0))

    def test_single_segment(self, fab, fab_word):
        bl = BrokenLine((fab_word.geodesic(fab.identity(), w("a a", fab)),))
        rep = check_concat_lemma(bl, 0, self._profile())
        assert rep.conclusion_c3.ok and not rep.violation

    def test_no_cancellation_two_segments(self, fab, fab_word):
        bl = BrokenLine.from_nodes(
            fab_word, [fab.identity(), w("a a", fab), w("a a b b", fab)]
        )
        rep = check_concat_lemma(bl, 0, self._profile())
        assert rep.hypotheses_hold and rep.conclusion_c3.ok
        assert rep.strong_hypotheses and rep.conclusion_c2.ok
        assert not rep.violation

    def test_cancellation_violates_hypotheses(self, fab, fab_word):
        bl = BrokenLine.from_nodes(fab_word, [fab.identity(), w("a a", fab), fab.identity()])
        rep = check_concat_lemma(bl, 0, self._profile())
        assert not rep.hypotheses_hold

    def test_c0_precondition(self, fab, fab_word):
        prof = ConstantsProfile(delta=Fraction(1), c0=Fraction(0))
        bl = BrokenLine((fab_word.geodesic(fab.identity(), w("a", fab)),))
        with pytest.raises(ValueError):
            check_concat_lemma(bl, 0, prof)
