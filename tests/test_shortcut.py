import random

import pytest

from relhyp import PeripheralSpec, RelHyp, word_to_elem
from relhyp.cayley import BrokenLine, EdgePath, relative_view
from relhyp.components import (
    find_components,
    find_consecutive_backtracking,
    is_without_backtracking,
    run_suffixes,
)
from relhyp.shortcut import is_tamable, shortcut, verify_shortcut_proposition

from conftest import (
    random_broken_line,
    reference_backtracking,
    reference_chain,
    reference_coset_key,
)

w = word_to_elem


@pytest.fixture()
def a5_a10(fab, fab_rel_a):
    a5 = w("a a a a a", fab)
    a10 = fab.mul(a5, a5)
    return BrokenLine.from_nodes(fab_rel_a, [fab.identity(), a5, a10])


class TestProcedure:
    def test_no_h_edges(self, fab, fab_rel_a):
        bl = BrokenLine.from_nodes(fab_rel_a, [fab.identity(), w("b b", fab)])
        res = shortcut(bl, 3)
        res.check_invariants()
        assert res.V == ((0, 2),)
        assert len(res.sigma.segments) == 1 and len(res.es) == 0

    def test_theta_5_fixture(self, a5_a10, fab):
        res = shortcut(a5_a10, 5)
        res.check_invariants()
        assert res.V == ((0, 0), (2, 2))
        assert len(res.es) == 1
        e = res.es[0]
        assert len(e) == 1
        assert fab.x_length(e.labels[0][2]) == 10

    def test_theta_6_fixture(self, a5_a10):
        res = shortcut(a5_a10, 6)
        res.check_invariants()
        assert res.V == ((0, 2),)
        assert res.sigma.length() == 1

    def test_source_path_built_once(self, a5_a10, monkeypatch):
        """One shortcut and its invariant check (the CLI's sequence) build the
        source's whole path, and so validate its labels, once."""
        labels = tuple(l for seg in a5_a10.segments for l in seg.labels)
        built = []
        validate = EdgePath.__post_init__

        def counting(path):
            if path.start == a5_a10.start and path.labels == labels:
                built.append(path)
            validate(path)

        monkeypatch.setattr(EdgePath, "__post_init__", counting)
        shortcut(a5_a10, 5).check_invariants()
        assert len(built) == 1

    def test_determinism(self, a5_a10):
        r1 = shortcut(a5_a10, 5)
        r2 = shortcut(a5_a10, 5)
        assert r1.V == r2.V
        assert [p.labels for p in r1.sigma.segments] == [p.labels for p in r2.sigma.segments]

    def test_fuzz_invariants(self, fab, fab_rel_a):
        rng = random.Random(91)
        for _ in range(300):
            bl = random_broken_line(rng, fab, fab_rel_a)
            theta = rng.randint(1, 6)
            res = shortcut(bl, theta)
            res.check_invariants()

    def test_monotone_refinement_observation(self, fab, fab_rel_a):
        # raising theta never increases |V| (empirical observation)
        rng = random.Random(17)
        for _ in range(100):
            bl = random_broken_line(rng, fab, fab_rel_a)
            sizes = [len(shortcut(bl, t).V) for t in (1, 2, 4, 8)]
            assert all(x >= y for x, y in zip(sizes, sizes[1:]))


class TestTamable:
    def test_single_geodesic_always_tamable(self, fab, fab_rel_a):
        bl = BrokenLine.from_nodes(fab_rel_a, [fab.identity(), w("a a a b", fab)])
        assert is_tamable(bl, 100, 0, 100, 1).ok

    def test_zeta_20_fails(self, a5_a10):
        verdict = is_tamable(a5_a10, 0, 10, 20, 5)
        assert not verdict.ok
        assert verdict.failing[0] == "iii"

    def test_zeta_10_passes(self, a5_a10):
        assert is_tamable(a5_a10, 0, 10, 10, 5).ok

    def test_short_interior_segment_fails(self, fab, fab_rel_a):
        nodes = [fab.identity(), w("b b b b", fab), w("b b b b a", fab), w("b b b b a b b b b", fab)]
        bl = BrokenLine.from_nodes(fab_rel_a, nodes)
        verdict = is_tamable(bl, 3, 10, 0, 5)
        assert not verdict.ok and verdict.failing[0] == "i"


class TestProposition:
    def test_theta_5_fixture_passes(self, a5_a10):
        rep = verify_shortcut_proposition(a5_a10, 5, 1, 0, 5)
        assert rep.all_e_nontrivial
        assert rep.quasigeodesic.ok
        assert rep.without_backtracking
        assert rep.eta_ok and rep.eta_values == (10,)
        assert not rep.violation

    def test_no_h_geodesic_vacuous(self, fab, fab_rel_a):
        bl = BrokenLine.from_nodes(fab_rel_a, [fab.identity(), w("b b b", fab)])
        rep = verify_shortcut_proposition(bl, 3, 1, 0, 0)
        assert rep.all_e_nontrivial
        assert rep.quasigeodesic.ok
        assert rep.without_backtracking
        assert rep.eta_ok

    def test_components_found_once(self, a5_a10, monkeypatch):
        """With a tamability triple, each segment's components are found once
        for shortcutting and tamability together, and sigma's once: 3 calls
        on the two-segment line."""
        from relhyp import components, shortcut as shortcut_mod

        calls = []

        def counted(p):
            calls.append(p)
            return find_components(p)

        monkeypatch.setattr(components, "find_components", counted)
        monkeypatch.setattr(shortcut_mod, "find_components", counted)
        rep = verify_shortcut_proposition(a5_a10, 5, 1, 0, 11, tamability=(0, 10, 10))
        assert rep.tamable.ok
        assert len(calls) == 3

    def test_violation_flag_wiring(self, a5_a10):
        # tamable input forced to fail an impossibly tight conclusion
        rep = verify_shortcut_proposition(a5_a10, 5, 1, 0, 11, tamability=(0, 10, 10))
        assert rep.tamable.ok
        assert not rep.eta_ok  # eta=11 > 10
        assert rep.violation

    def test_sigma_components_isolated(self, fab, fab_rel_a):
        rng = random.Random(29)
        for _ in range(60):
            bl = random_broken_line(rng, fab, fab_rel_a)
            res = shortcut(bl, 3)
            path = res.sigma.whole_path()
            if is_without_backtracking(path):
                comps = find_components(path)
                keys = {
                    (c.nu, reference_coset_key(fab_rel_a.group, c.nu, c.h_minus))
                    for c in comps
                }
                assert len(keys) == len(comps)


@pytest.fixture(params=["F2-rel-a", "Z2*Z-rel-both", "F2-whole"])
def line_view(request, fab):
    """A relative view of each peripheral kind."""
    if request.param == "F2-rel-a":
        return request.getfixturevalue("fab_rel_a")
    if request.param == "Z2*Z-rel-both":
        return request.getfixturevalue("z2z")
    return relative_view(RelHyp(fab, (PeripheralSpec(0, "whole-group"),)))


def test_coset_runs_match_reference_chains(line_view):
    """The run suffix shortcut reads at each H-labelled edge is the chain
    walked from that edge's component with reference_coset_key, and the
    backtracking instances are the reference chains no earlier segment
    extends, ordered by first segment, then nu."""
    G = line_view.group.base
    rng = random.Random(41)
    for _ in range(200):
        bl = random_broken_line(rng, G, line_view)
        per_seg = [find_components(seg) for seg in bl.segments]
        expected = {}
        offset = 0
        for si, comps in enumerate(per_seg):
            for c in comps:
                chain = reference_chain(bl, per_seg, si, c)
                for edge in range(offset + c.start, offset + c.stop):
                    expected[edge] = chain
            offset += len(bl.segments[si])
        assert run_suffixes(bl) == expected
        got = [
            (inst.nu, tuple((i, c.start, c.stop) for i, c in inst.pairs))
            for inst in find_consecutive_backtracking(bl)
        ]
        assert sorted(got) == sorted(reference_backtracking(bl, per_seg))
        assert got == sorted(got, key=lambda inst: (inst[1][0][0], inst[0]))
