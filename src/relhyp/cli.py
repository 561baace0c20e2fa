"""Batch front end: structured-text configs in, JSON-lines reports out.

One report object per line: {command, inputs, verdict, witness, caveats,
timing}.  Reports are byte-identical for identical (config, seed); timing is
null unless RELHYP_TIMING=1.  Exit codes: 0 success, 2 check failed with
witness, 3 budget exceeded, 4 schema violation, 5 unsupported family.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from typing import Optional

from . import components as comp_mod
from . import shortcut as shortcut_mod
from .cayley import BrokenLine, EdgePath, RelGraphView, build_ball, relative_view
from .conditions import (
    CONDITION_IDS,
    ConditionContext,
    EnumeratedSet,
    check_condition,
    minx,
)
from .errors import BudgetExceededError, SchemaError, UnsupportedFamilyError
from .geometry import ConstantsProfile, gromov_product, measure_delta
from .groups import (
    Amalgam,
    FreeAbelian,
    FreeGroup,
    FreeProduct,
    GroupSpec,
    PeripheralSpec,
    RelHyp,
    SubgroupSpec,
    cyclic_group,
    word_to_elem,
)
from .pathrep import SearchBudget, minimize_type
from .separability import (
    RationalSubset,
    amalgam_product_member,
    find_separating_quotient,
    member,
    minx_quotient_harness,
    product_member,
    subgroup_graph,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_BUDGET = 3
EXIT_SCHEMA = 4
EXIT_UNSUPPORTED = 5


# -- config parsing ----------------------------------------------------------


def parse_config(text: str) -> dict:
    """Sections of key = value lines; '#' starts a comment."""
    sections: dict = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line or current is None:
            raise SchemaError("bad config line: %r" % raw)
        key, _, value = line.partition("=")
        sections[current][key.strip()] = value.strip()
    return sections


def _build_family(sec: dict, kind: str) -> GroupSpec:
    """The free, free-abelian or finite-cyclic group a config section names."""
    family = sec.get("family")
    try:
        if family == "free":
            return FreeGroup(tuple(sec["symbols"].split()))
        if family == "free-abelian":
            return FreeAbelian(tuple(sec["symbols"].split()))
        if family == "finite-cyclic":
            return cyclic_group(int(sec["order"]), sec.get("symbol", "g"))
    except KeyError as e:
        raise SchemaError("%s family %r needs the key %s" % (kind, family, e))
    except ValueError as e:
        raise SchemaError("bad %s: %s" % (kind, e))
    raise SchemaError("unknown %s family %r" % (kind, family))


def _build_factor(cfg: dict, name: str) -> GroupSpec:
    sec = cfg.get("factor %s" % name)
    if sec is None:
        raise SchemaError("missing section [factor %s]" % name)
    return _build_family(sec, "factor")


def build_group(cfg: dict) -> RelHyp:
    sec = cfg.get("group")
    if sec is None:
        raise SchemaError("missing [group] section")
    family = sec.get("family")
    if family == "free-product":
        names = sec["factors"].split()
        base = FreeProduct(tuple(_build_factor(cfg, n) for n in names))
    elif family == "amalgam":
        left = _build_factor(cfg, sec["left"])
        right = _build_factor(cfg, sec["right"])
        pairs = []
        for pair in sec["edge"].split(";"):
            if not pair.strip():
                continue
            lw, _, rw = pair.partition(":")
            pairs.append(
                (word_to_elem(lw.strip(), left), word_to_elem(rw.strip(), right))
            )
        base = Amalgam(left, right, tuple(sorted(pairs)))
        base.spot_check()
    else:
        base = _build_family(sec, "group")

    peripherals = []
    for key, value in sorted(cfg.get("peripherals", {}).items()):
        try:
            nu = int(key)
        except ValueError:
            raise SchemaError("peripheral keys are integer indices")
        parts = value.split()
        kind = parts[0]
        if kind == "whole-group":
            peripherals.append(PeripheralSpec(nu, "whole-group"))
        elif kind == "cyclic-generator":
            peripherals.append(PeripheralSpec(nu, "cyclic-generator", parts[1]))
        elif kind == "free-factor":
            peripherals.append(PeripheralSpec(nu, "free-factor", int(parts[1])))
        else:
            raise SchemaError("unknown peripheral kind %r" % kind)
    try:
        return RelHyp(base, tuple(peripherals))
    except ValueError as e:
        raise SchemaError(str(e))


def parse_word(word: str, G: GroupSpec):
    try:
        return word_to_elem(word, G)
    except Exception as e:
        raise SchemaError("bad word %r: %s" % (word, e))


def parse_path(view: RelGraphView, text: str, start_word: str = "") -> EdgePath:
    """Tokens 'x:<letter>' and 'h:<nu>:<word>' (word letters joined by ',')."""
    G = view.group
    labels = []
    for token in text.split():
        parts = token.split(":")
        if parts[0] == "x" and len(parts) == 2:
            labels.append(("x", parse_word(parts[1], G)))
        elif parts[0] == "h" and len(parts) == 3:
            try:
                nu = G.peripheral(int(parts[1])).nu
            except (ValueError, KeyError):
                raise SchemaError("no peripheral %r in path token %r" % (parts[1], token))
            labels.append(("h", nu, parse_word(parts[2].replace(",", " "), G)))
        else:
            raise SchemaError("bad path token %r" % token)
    start = parse_word(start_word, G)
    return EdgePath(view, start, tuple(labels))


def parse_broken_line(view: RelGraphView, sec: dict, key: str) -> BrokenLine:
    """Either 'nodes' (words separated by ';') or 'segments' (paths by '|')."""
    if key + ".nodes" in sec or "nodes" in sec:
        text = sec.get(key + ".nodes", sec.get("nodes"))
        nodes = [parse_word(w.strip(), view.group) for w in text.split(";")]
        return BrokenLine.from_nodes(view, nodes)
    if key + ".segments" in sec or "segments" in sec:
        text = sec.get(key + ".segments", sec.get("segments"))
        segs = []
        at = view.group.identity()
        for part in text.split("|"):
            p = parse_path(view, part.strip())
            p = EdgePath(view, at, p.labels)
            segs.append(p)
            at = p.end
        return BrokenLine(tuple(segs))
    raise SchemaError("broken line needs 'nodes' or 'segments'")


def subgroup_from_config(cfg: dict, name: str, G: GroupSpec) -> SubgroupSpec:
    sec = cfg.get("subgroups", {})
    if name not in sec:
        raise SchemaError("missing subgroup %r" % name)
    gens = tuple(
        parse_word(w.strip(), G) for w in sec[name].split("|") if w.strip()
    )
    return SubgroupSpec(gens, role=name)


# -- report plumbing ---------------------------------------------------------


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else int(x)
    if isinstance(x, float) and x == float("inf"):
        return "+inf"
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


class Reporter:
    def __init__(self, stream, timing_enabled: bool):
        self.stream = stream
        self.timing = timing_enabled
        self.any_failed = False
        self._t0 = time.monotonic()

    def emit(self, command: str, inputs: dict, verdict, witness=None, caveats=()):
        elapsed = int((time.monotonic() - self._t0) * 1000)
        line = {
            "command": command,
            "inputs": _jsonable(inputs),
            "verdict": _jsonable(verdict),
            "witness": _jsonable(witness),
            "caveats": list(caveats),
            "timing": elapsed if self.timing else None,
        }
        self.stream.write(json.dumps(line, sort_keys=True) + "\n")


# -- command handlers --------------------------------------------------------


def _params(cfg: dict) -> dict:
    return cfg.get("params", {})


def _int_param(cfg, key, default=None, override=None):
    if override is not None:
        return override
    raw = _params(cfg).get(key)
    if raw is None:
        if default is None:
            raise SchemaError("missing parameter %r" % key)
        return default
    try:
        return int(raw)
    except ValueError:
        raise SchemaError("parameter %r must be an integer" % key)


def _word_param(cfg, key):
    raw = _params(cfg).get(key)
    if raw is None:
        raise SchemaError("missing parameter %r" % key)
    return raw


def run(cfg: dict, command: str, reporter: Reporter, seed: int = 0,
        budget: Optional[int] = None, radius: Optional[int] = None) -> None:
    """Execute one named check against a parsed configuration."""
    group = build_group(cfg)
    view = relative_view(group)
    wview = view.word_view()
    G = group.base

    if command == "ball":
        r = _int_param(cfg, "radius", override=radius)
        ball = build_ball(G, r, budget or 2_000_000)
        reporter.emit(
            command,
            {"radius": r},
            {"vertices": len(ball), "max_distance": max(ball.dist.values(), default=0)},
        )
    elif command == "rel-dist":
        u = parse_word(_word_param(cfg, "u"), G)
        v = parse_word(_word_param(cfg, "v"), G)
        reporter.emit(command, {"u": _word_param(cfg, "u"), "v": _word_param(cfg, "v")}, view.dist(u, v))
    elif command == "geodesic":
        u = parse_word(_word_param(cfg, "u"), G)
        v = parse_word(_word_param(cfg, "v"), G)
        path = view.geodesic(u, v)
        reporter.emit(
            command,
            {"u": _word_param(cfg, "u"), "v": _word_param(cfg, "v")},
            {"length": len(path), "labels": _label_strs(path)},
        )
    elif command == "gromov":
        metric = _params(cfg).get("metric", "relative")
        mview = view if metric == "relative" else wview
        x = parse_word(_word_param(cfg, "x"), G)
        y = parse_word(_word_param(cfg, "y"), G)
        z = parse_word(_word_param(cfg, "z"), G)
        reporter.emit(
            command,
            {"metric": metric},
            gromov_product(x, y, z, mview),
        )
    elif command == "delta":
        r = _int_param(cfg, "radius", override=radius)
        c0 = _int_param(cfg, "c0", default=0)
        ball = build_ball(G, r, budget or 2_000_000)
        m = measure_delta(ball)
        profile = ConstantsProfile(delta=m.delta, c0=Fraction(c0), ball_radius=r)
        reporter.emit(
            command,
            {"radius": r, "c0": c0},
            {
                "delta": m.delta,
                "c1": profile.c1,
                "c2": profile.c2,
                "c3": profile.c3,
            },
            caveats=["measured over %d vertex triples of the radius-%d ball" % (m.triples, r)],
        )
    elif command == "components":
        sec = cfg.get("paths", {})
        path = parse_path(view, sec.get("path", ""), sec.get("start", ""))
        comps = comp_mod.find_components(path)
        reporter.emit(
            command,
            {"path": sec.get("path", "")},
            [
                {"range": [c.start, c.stop], "nu": c.nu, "x_length": c.x_length}
                for c in comps
            ],
        )
    elif command == "backtracking":
        bl = parse_broken_line(view, cfg.get("paths", {}), "bl")
        insts = comp_mod.find_consecutive_backtracking(bl)
        reporter.emit(
            command,
            {},
            [
                {
                    "kind": inst.kind,
                    "nu": inst.nu,
                    "segments": [i for i, _ in inst.pairs],
                }
                for inst in insts
            ],
        )
    elif command == "shortcut":
        bl = parse_broken_line(view, cfg.get("paths", {}), "bl")
        theta = _int_param(cfg, "theta")
        res = shortcut_mod.shortcut(bl, theta)
        res.check_invariants()
        reporter.emit(
            command,
            {"theta": theta},
            {
                "V": [list(p) for p in res.V],
                "sigma": _label_strs(res.sigma.whole_path()),
            },
        )
    elif command == "tamable":
        bl = parse_broken_line(view, cfg.get("paths", {}), "bl")
        B = _int_param(cfg, "B")
        C = _int_param(cfg, "C")
        zeta = _int_param(cfg, "zeta")
        theta = _int_param(cfg, "theta")
        verdict = shortcut_mod.is_tamable(bl, B, C, zeta, theta)
        reporter.emit(
            command,
            {"B": B, "C": C, "zeta": zeta, "theta": theta},
            verdict.ok,
            witness=None if verdict.ok else str(verdict.failing[0]),
        )
    elif command == "verify-shortcut":
        bl = parse_broken_line(view, cfg.get("paths", {}), "bl")
        theta = _int_param(cfg, "theta")
        lam = _int_param(cfg, "lambda")
        c = _int_param(cfg, "c")
        eta = _int_param(cfg, "eta", default=0)
        rep = shortcut_mod.verify_shortcut_proposition(bl, theta, lam, c, eta)
        if rep.violation:
            reporter.any_failed = True
        reporter.emit(
            command,
            {"theta": theta, "lambda": lam, "c": c, "eta": eta},
            {
                "e_nontrivial": rep.all_e_nontrivial,
                "quasigeodesic": rep.quasigeodesic.ok,
                "without_backtracking": rep.without_backtracking,
                "eta_ok": rep.eta_ok,
                "violation": rep.violation,
            },
        )
    elif command == "minimize-type":
        g = parse_word(_word_param(cfg, "g"), G)
        qp = subgroup_from_config(cfg, "Q'", G)
        rp = subgroup_from_config(cfg, "R'", G)
        b = SearchBudget(
            _int_param(cfg, "max-factors", default=6),
            _int_param(cfg, "max-len", default=8),
        )
        res = minimize_type(g, qp, rp, view, b)
        if res.rep is None:
            verdict = "not-found"
        else:
            verdict = {
                "type": list(res.rep_type),
                "segments": [
                    {"role": role, "labels": _label_strs(seg)}
                    for role, seg in zip(res.rep.roles, res.rep.line.segments)
                ],
            }
        reporter.emit(command, {"g": _word_param(cfg, "g")}, verdict, caveats=[res.caveat])
    elif command == "check-conditions":
        _run_conditions(cfg, view, reporter, radius)
    elif command == "minx":
        sec = cfg.get("set", {})
        raw = sec.get("elements", "")
        elems = [parse_word(w.strip(), G) for w in raw.split(";") if w.strip()]
        r = _int_param(cfg, "radius", default=0, override=radius)
        es = EnumeratedSet(frozenset(elems), r, "explicit element list", exact=True)
        reporter.emit(command, {"size": len(elems)}, minx(es, G))
    elif command == "stallings":
        name = _params(cfg).get("subgroup", "Q")
        spec = subgroup_from_config(cfg, name, G)
        graph = subgroup_graph(spec.gens, G)
        reporter.emit(
            command,
            {"subgroup": name},
            {"vertices": len(graph), "edges": sum(1 for _ in graph.edges())},
        )
    elif command == "member":
        g = parse_word(_word_param(cfg, "g"), G)
        name = _params(cfg).get("subgroup", "Q")
        spec = subgroup_from_config(cfg, name, G)
        reporter.emit(
            command,
            {"g": _word_param(cfg, "g"), "subgroup": name},
            member(g, subgroup_graph(spec.gens, G)),
        )
    elif command == "product-member":
        g = parse_word(_word_param(cfg, "g"), G)
        names = _params(cfg).get("factors", "").split()
        specs = [subgroup_from_config(cfg, n, G) for n in names]
        reporter.emit(
            command,
            {"g": _word_param(cfg, "g"), "factors": names},
            product_member(g, [s.gens for s in specs], G),
        )
    elif command == "separate":
        g = parse_word(_word_param(cfg, "g"), G)
        names = _params(cfg).get("factors", "").split()
        specs = [subgroup_from_config(cfg, n, G) for n in names]
        target = RationalSubset(G, (), tuple(s.gens for s in specs))
        cap = _int_param(cfg, "cap", default=6)
        in_target = target.contains(g)
        q = None if in_target else find_separating_quotient(g, target, n_max=cap, seed=seed)
        if in_target:
            reporter.any_failed = True
            reporter.emit(command, {"g": _word_param(cfg, "g")}, "in-target",
                          witness=G.elem_str(g),
                          caveats=["g lies in the target product; no finite quotient separates it"])
        elif q is None:
            reporter.emit(command, {"g": _word_param(cfg, "g")}, "not-found",
                          caveats=["search cap S_%d exhausted" % cap])
        else:
            reporter.emit(command, {"g": _word_param(cfg, "g")}, q.certificate())
    elif command == "minx-harness":
        names = _params(cfg).get("factors", "").split()
        specs = [subgroup_from_config(cfg, n, G) for n in names]
        Z = RationalSubset(G, (), tuple(s.gens for s in specs))
        C = _int_param(cfg, "C")
        cap = _int_param(cfg, "cap", default=6)
        res = minx_quotient_harness(Z, C, n_max=cap, seed=seed)
        reporter.emit(
            command,
            {"C": C, "Z": Z.symbolic()},
            {
                "verified": res.verified,
                "achieved_min": _jsonable(res.achieved_min),
                "degree": res.quotient.degree if res.quotient else None,
            },
            caveats=list(res.caveats),
        )
    elif command == "amalgam-reduce":
        if not isinstance(G, Amalgam):
            raise UnsupportedFamilyError("amalgam-reduce needs an amalgam group")
        g = parse_word(_word_param(cfg, "w"), G)
        reporter.emit(
            command,
            {"w": _word_param(cfg, "w")},
            {"length": len(g), "syllables": G.elem_str(g)},
        )
    elif command == "amalgam-member":
        if not isinstance(G, Amalgam):
            raise UnsupportedFamilyError("amalgam-member needs an amalgam group")
        g = parse_word(_word_param(cfg, "g"), G)
        kind = _params(cfg).get("kind", "BC")
        U = [
            parse_word(w.strip(), G)
            for w in _params(cfg).get("U", "").split(";")
            if w.strip()
        ]
        V = [
            parse_word(w.strip(), G)
            for w in _params(cfg).get("V", "").split(";")
            if w.strip()
        ]
        reporter.emit(
            command,
            {"g": _word_param(cfg, "g"), "kind": kind},
            amalgam_product_member(g, kind, G, U, V),
        )
    else:
        raise SchemaError("unknown command %r" % command)


def _label_strs(path: EdgePath) -> list:
    G = path.view.group
    out = []
    for lab in path.labels:
        if lab[0] == "x":
            out.append("x:" + G.elem_str(lab[1]))
        else:
            out.append("h:%d:%s" % (lab[1], G.elem_str(lab[2])))
    return out


def _run_conditions(cfg, view, reporter: Reporter, radius_override) -> None:
    G = view.group.base
    p = _params(cfg)
    conds = p.get("conditions", "").split() or list(CONDITION_IDS)
    for cid in conds:
        if cid not in CONDITION_IDS:
            raise SchemaError("unknown condition id %r" % cid)

    def opt_subgroups(prefix):
        sec = cfg.get("subgroups", {})
        names = sorted(n for n in sec if n.startswith(prefix) and n[len(prefix):].isdigit())
        return tuple(subgroup_from_config(cfg, n, G) for n in names)

    ctx = ConditionContext(
        view=view,
        Q=subgroup_from_config(cfg, "Q", G),
        R=subgroup_from_config(cfg, "R", G),
        Qp=subgroup_from_config(cfg, "Q'", G),
        Rp=subgroup_from_config(cfg, "R'", G),
        P_list=opt_subgroups("P"),
        T_list=opt_subgroups("T"),
        U_list=opt_subgroups("U"),
        B=_int_param(cfg, "B", default=0),
        C=_int_param(cfg, "C", default=0),
        A=_int_param(cfg, "A", default=0),
        radius=_int_param(cfg, "radius", default=6, override=radius_override),
        P_abelian=tuple(
            x == "1" for x in p.get("P-abelian", "").split()
        ),
    )
    for cid in conds:
        rep = check_condition(cid, ctx)
        if rep.verdict == "fails":
            reporter.any_failed = True
        reporter.emit(
            "check-conditions",
            {"condition": cid, "radius": ctx.radius},
            rep.verdict,
            witness=None if rep.witness is None else G.elem_str(rep.witness),
            caveats=rep.caveats,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relhyp", description="relative-metric and separability workbench"
    )
    parser.add_argument("--config", required=True, help="path to a run configuration")
    parser.add_argument("--command", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=None)
    parser.add_argument("--radius", type=int, default=None)
    parser.add_argument("--out", default=None, help="report destination (default stdout)")
    args = parser.parse_args(argv)

    budget = args.budget
    if budget is None and os.environ.get("RELHYP_BUDGET"):
        budget = int(os.environ["RELHYP_BUDGET"])

    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    except OSError as e:
        print("cannot read config: %s" % e, file=sys.stderr)
        return EXIT_SCHEMA

    out = open(args.out, "w") if args.out else sys.stdout
    reporter = Reporter(out, timing_enabled=os.environ.get("RELHYP_TIMING") == "1")
    try:
        run(cfg, args.command, reporter, seed=args.seed, budget=budget, radius=args.radius)
    except SchemaError as e:
        print("schema error: %s" % e, file=sys.stderr)
        return EXIT_SCHEMA
    except BudgetExceededError as e:
        print("budget exceeded: %s" % e, file=sys.stderr)
        return EXIT_BUDGET
    except UnsupportedFamilyError as e:
        print("unsupported family: %s" % e, file=sys.stderr)
        return EXIT_UNSUPPORTED
    finally:
        if args.out:
            out.close()
    return EXIT_CHECK_FAILED if reporter.any_failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
