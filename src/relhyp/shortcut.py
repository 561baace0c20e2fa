"""Shortcutting of broken lines, tamability, and the quasigeodesicity harness.

The shortcutting of a broken line replaces each maximal instance of
consecutive backtracking that involves a long peripheral component by a
single peripheral edge, and rejoins the marked vertices by geodesics.  A
tamable broken line (long interior segments, bounded node products, long
backtracking chains) shortcuts to a uniform quasigeodesic; the harness here
measures that on concrete inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

from .cayley import BrokenLine, EdgePath, trivial_path
from .components import (
    find_components,
    find_consecutive_backtracking,
    pairwise_unconnected,
    run_suffixes,
)
from .geometry import QuasigeodesicVerdict, gromov_product, is_quasigeodesic


@dataclass(frozen=True)
class ShortcutResult:
    """Output of the shortcutting procedure.

    ``V`` is the ordered tuple of index pairs (s_k, t_k) into the input
    vertex enumeration; ``sigma`` is the broken line f_0 e_1 f_1 ... e_m f_m
    where each e_k is a single peripheral edge or trivial.
    """

    source: BrokenLine
    theta: int
    V: tuple[tuple[int, int], ...]
    es: tuple[EdgePath, ...]
    sigma: BrokenLine

    def check_invariants(self) -> None:
        """Assert the structural guarantees of the construction."""
        whole = self.source.whole_path()
        verts = whole.vertices
        d = len(verts) - 1
        view = self.source.view
        assert self.V[0][0] == 0 and self.V[-1][1] == d
        for (s, t), (s2, _) in zip(self.V, self.V[1:]):
            assert s <= t < s2
        s, t = self.V[-1]
        assert s <= t
        assert self.sigma.start == self.source.start
        assert self.sigma.end == self.source.end
        vert_set = set(verts)
        for node in self.sigma.nodes:
            assert node in vert_set
        for (s, t) in self.V:
            for lab in whole.labels[s:t]:
                if lab[0] == "h":
                    assert view.x_dist(
                        view.group.base.identity(), lab[2]
                    ) < self.theta
        for e in self.es:
            if len(e) > 0:
                assert len(e) == 1 and e.labels[0][0] == "h"


def shortcut(bl: BrokenLine, theta: int) -> ShortcutResult:
    """The theta-shortcutting of a broken line.

    Walks the vertex enumeration v_0..v_d, marks the spans between long
    backtracking chains, and rejoins the marked vertices by canonical
    geodesics with one peripheral edge per skipped chain.
    """
    if theta < 1:
        raise ValueError("theta must be a positive integer")
    view = bl.view
    whole = bl.whole_path()
    verts = whole.vertices
    d = len(whole.labels)

    offsets = [0, *accumulate(len(seg) for seg in bl.segments)]
    chain_at = run_suffixes(bl)

    s = 0
    N = 0
    V: list[tuple[int, int]] = []
    bridge_nu: list[int] = []
    labels = whole.labels
    while True:
        t = next(
            (k for k in range(N, d) if labels[k][0] == "h"),
            None,
        )
        if t is None:
            V.append((s, d))
            break
        chain = chain_at[t]
        i, comp = chain[0]
        last_seg, last = chain[-1]
        if max(c.x_length for _, c in chain) >= theta:
            V.append((s, t))
            bridge_nu.append(comp.nu)
            s = N = offsets[last_seg] + last.stop
        else:
            N = offsets[i] + comp.stop

    fs = tuple(view.geodesic(verts[sk], verts[tk]) for sk, tk in V)
    es = []
    G = view.group.base
    for k in range(len(V) - 1):
        u = verts[V[k][1]]
        w = verts[V[k + 1][0]]
        if u == w:
            es.append(trivial_path(view, u))
        else:
            h = G.mul(G.inv(u), w)
            es.append(EdgePath(view, u, (("h", bridge_nu[k], h),)))
    segments = [fs[0]]
    for k, e in enumerate(es):
        segments.append(e)
        segments.append(fs[k + 1])
    sigma = BrokenLine(tuple(segments))
    return ShortcutResult(bl, theta, tuple(V), tuple(es), sigma)


@dataclass(frozen=True)
class TamabilityVerdict:
    ok: bool
    failing: Optional[tuple] = None  # ("i", segment) | ("ii", node) | ("iii", chain)

    def __bool__(self) -> bool:
        return self.ok


def is_tamable(bl: BrokenLine, B, C, zeta, theta: int) -> TamabilityVerdict:
    """Check the three tamability conditions.

    (i) interior segments have X-length at least B; (ii) node Gromov
    products in the relative metric are at most C; (iii) every consecutive
    backtracking chain with a component of X-length at least theta has
    endpoints at X-distance at least zeta.
    """
    view = bl.view
    n = len(bl.segments)
    for i in range(1, n - 1):
        seg = bl.segments[i]
        if view.x_dist(seg.start, seg.end) < B:
            return TamabilityVerdict(False, ("i", i))
    nodes = bl.nodes
    for i in range(1, n):
        if gromov_product(nodes[i - 1], nodes[i + 1], nodes[i], view) > C:
            return TamabilityVerdict(False, ("ii", i))
    for inst in find_consecutive_backtracking(bl):
        pairs = inst.pairs
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                sub = pairs[a : b + 1]
                if max(c.x_length for _, c in sub) < theta:
                    continue
                first = sub[0][1]
                last = sub[-1][1]
                if view.x_dist(first.h_minus, last.h_plus) < zeta:
                    return TamabilityVerdict(False, ("iii", sub))
    return TamabilityVerdict(True)


@dataclass(frozen=True)
class ShortcutPropositionReport:
    """Measured conclusions of the shortcutting quasigeodesicity statement."""

    all_e_nontrivial: bool
    quasigeodesic: QuasigeodesicVerdict
    without_backtracking: bool
    eta_ok: bool
    eta_values: tuple[int, ...]
    tamable: Optional[TamabilityVerdict]
    violation: bool


def verify_shortcut_proposition(
    bl: BrokenLine,
    theta: int,
    lam,
    c,
    eta,
    tamability: Optional[tuple] = None,
) -> ShortcutPropositionReport:
    """Run the shortcutting and measure the proposition's conclusions.

    ``tamability`` is an optional (B, C, zeta) triple; when the input is
    tamable with those constants and a conclusion fails, the report is
    flagged as a contract violation.
    """
    res = shortcut(bl, theta)
    sigma_path = res.sigma.whole_path()
    nontrivial = all(len(e) == 1 for e in res.es)
    qg = is_quasigeodesic(sigma_path, lam, c)
    comps = find_components(sigma_path)
    no_bt = pairwise_unconnected(comps)

    # X-lengths of the sigma components containing each bridging edge.
    # sigma's segments are f_0 e_1 f_1 ..., so res.es[k] starts at offsets[2k + 1].
    offsets = [0, *accumulate(len(seg) for seg in res.sigma.segments)]
    e_positions = [offsets[2 * k + 1] for k, e in enumerate(res.es) if len(e) == 1]
    eta_values = []
    for p in e_positions:
        for comp in comps:
            if comp.start <= p < comp.stop:
                eta_values.append(comp.x_length)
                break
    eta_ok = all(v >= eta for v in eta_values) and len(eta_values) == len(e_positions)

    tam = None
    if tamability is not None:
        B, C, zeta = tamability
        tam = is_tamable(bl, B, C, zeta, theta)
    conclusion = nontrivial and qg.ok and no_bt and eta_ok
    violation = tam is not None and tam.ok and not conclusion
    return ShortcutPropositionReport(
        nontrivial, qg, no_bt, eta_ok, tuple(eta_values), tam, violation
    )
