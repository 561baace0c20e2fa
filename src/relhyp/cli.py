"""Batch front end: structured-text configs in, JSON-lines reports out.

One report object per line: {command, inputs, verdict, witness, caveats,
timing}.  Reports are byte-identical for identical config; timing is
null unless RELHYP_TIMING=1.  Exit codes: 0 success, 2 check failed with
witness, 3 budget exceeded, 4 schema violation, 5 unsupported family.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from fractions import Fraction
from typing import Optional

from . import components as comp_mod
from . import shortcut as shortcut_mod
from .cayley import (
    BrokenLine,
    EdgePath,
    RelGraphView,
    build_ball,
    relative_view,
    word_metric_view,
)
from .conditions import (
    CONDITION_IDS,
    ConditionContext,
    check_condition,
    minx,
)
from .errors import (
    BudgetExceededError,
    FamilyMismatchError,
    InTargetError,
    SchemaError,
    UnsupportedFamilyError,
)
from .geometry import ConstantsProfile, gromov_product, measure_delta
from .groups import (
    Amalgam,
    Elem,
    FreeAbelian,
    FreeGroup,
    FreeProduct,
    GroupSpec,
    PeripheralSpec,
    RelHyp,
    cyclic_group,
    word_to_elem,
)
from .pathrep import SearchBudget, minimize_type
from .separability import (
    RationalSubset,
    amalgam_product_member,
    find_separating_quotient,
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
    try:
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
                pairs.append((parse_word(lw.strip(), left), parse_word(rw.strip(), right)))
            base = Amalgam(left, right, tuple(sorted(pairs)))
            base.spot_check()
        else:
            base = _build_family(sec, "group")
    except KeyError as e:
        raise SchemaError("group family %r needs the key %s" % (family, e))
    except ValueError as e:
        raise SchemaError("bad group: %s" % e)

    peripherals = []
    for key, value in sorted(cfg.get("peripherals", {}).items()):
        try:
            nu = int(key)
        except ValueError:
            raise SchemaError("peripheral keys are integer indices")
        parts = value.split()
        if parts == ["whole-group"]:
            peripherals.append(PeripheralSpec(nu, "whole-group"))
        elif len(parts) == 2 and parts[0] == "cyclic-generator":
            peripherals.append(PeripheralSpec(nu, "cyclic-generator", parts[1]))
        elif len(parts) == 2 and parts[0] == "free-factor" and parts[1].isdigit():
            peripherals.append(PeripheralSpec(nu, "free-factor", int(parts[1])))
        else:
            raise SchemaError("bad peripheral %r" % value)
    try:
        return RelHyp(base, tuple(peripherals))
    except ValueError as e:
        raise SchemaError(str(e))


def parse_word(word: str, G: GroupSpec):
    try:
        return word_to_elem(word, G)
    except Exception as e:
        raise SchemaError("bad word %r: %s" % (word, e))


def parse_path(view: RelGraphView, text: str, start: Elem) -> EdgePath:
    """Tokens 'x:<letter>' and 'h:<nu>:<word>' (word letters joined by ','),
    read from ``start``."""
    G = view.group.base
    labels = []
    for token in text.split():
        parts = token.split(":")
        if parts[0] == "x" and len(parts) == 2:
            labels.append(("x", parse_word(parts[1], G)))
        elif parts[0] == "h" and len(parts) == 3:
            try:
                nu = view.group.peripheral(int(parts[1])).nu
            except (ValueError, KeyError):
                raise SchemaError("no peripheral %r in path token %r" % (parts[1], token))
            labels.append(("h", nu, parse_word(parts[2].replace(",", " "), G)))
        else:
            raise SchemaError("bad path token %r" % token)
    try:
        return EdgePath(view, start, tuple(labels))
    except ValueError as e:
        raise SchemaError("bad path %r: %s" % (text, e))


def parse_broken_line(view: RelGraphView, sec: dict) -> BrokenLine:
    """Either 'nodes' (words separated by ';') or 'segments' (paths by '|')."""
    G = view.group.base
    if "nodes" in sec:
        nodes = [parse_word(w.strip(), G) for w in sec["nodes"].split(";")]
        return BrokenLine.from_nodes(view, nodes)
    if "segments" not in sec:
        raise SchemaError("broken line needs 'nodes' or 'segments'")
    segs = []
    at = G.identity()
    for part in sec["segments"].split("|"):
        segs.append(parse_path(view, part.strip(), at))
        at = segs[-1].end
    try:
        return BrokenLine(tuple(segs))
    except ValueError as e:
        raise SchemaError("bad segments: %s" % e)


def subgroup_from_config(cfg: dict, name: str, G: GroupSpec) -> tuple:
    sec = cfg.get("subgroups", {})
    if name not in sec:
        raise SchemaError("missing subgroup %r" % name)
    return tuple(parse_word(w.strip(), G) for w in sec[name].split("|") if w.strip())


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


def _int_param(cfg, key, default=None, override=None, least=0):
    """An integer parameter no less than ``least``; a CLI ``override`` wins."""
    raw = override if override is not None else _params(cfg).get(key)
    if raw is None:
        if default is None:
            raise SchemaError("missing parameter %r" % key)
        return default
    try:
        value = int(raw)
    except ValueError:
        raise SchemaError("parameter %r must be an integer" % key)
    if value < least:
        raise SchemaError("parameter %r must be at least %d" % (key, least))
    return value


def _word_params(cfg, G, *keys):
    """Each word parameter in ``keys``, read once: its raw text by key (the
    report's ``inputs``) and the elements they spell, in order."""
    raws, elems = {}, []
    for key in keys:
        raw = _params(cfg).get(key)
        if raw is None:
            raise SchemaError("missing parameter %r" % key)
        raws[key] = raw
        elems.append(parse_word(raw, G))
    return raws, elems


def _word_list(text: str, G: GroupSpec) -> list:
    """The elements of a ';'-separated word list; blank entries are skipped."""
    return [parse_word(w.strip(), G) for w in text.split(";") if w.strip()]


def _factor_gens(cfg, G):
    """The subgroup names the 'factors' parameter lists, and their generators."""
    names = _params(cfg).get("factors", "").split()
    return names, tuple(subgroup_from_config(cfg, n, G) for n in names)


def _named_subgroup(cfg, G):
    """The subgroup the 'subgroup' parameter names (default Q), and its folded graph."""
    name = _params(cfg).get("subgroup", "Q")
    return name, subgroup_graph(subgroup_from_config(cfg, name, G), G)


# Commands defined on one base family only; any other base exits 5.
_BASE_FAMILY = {
    **dict.fromkeys(("stallings", "member", "product-member", "separate", "minx-harness"),
                    FreeGroup),
    **dict.fromkeys(("amalgam-reduce", "amalgam-member"), Amalgam),
}


def run(cfg: dict, command: str, reporter: Reporter,
        budget: Optional[int] = None, radius: Optional[int] = None) -> None:
    """Execute one named check against a parsed configuration."""
    group = build_group(cfg)
    view = relative_view(group)
    G = group.base
    family = _BASE_FAMILY.get(command)
    if family is not None and not isinstance(G, family):
        raise UnsupportedFamilyError("%s needs a %s base" % (command, family.__name__))

    if command == "ball":
        r = _int_param(cfg, "radius", override=radius)
        ball = build_ball(G, r, budget)
        reporter.emit(
            command,
            {"radius": r},
            {"vertices": len(ball), "max_distance": ball.max_distance},
        )
    elif command == "rel-dist":
        inputs, (u, v) = _word_params(cfg, G, "u", "v")
        reporter.emit(command, inputs, view.dist(u, v))
    elif command == "geodesic":
        inputs, (u, v) = _word_params(cfg, G, "u", "v")
        path = view.geodesic(u, v)
        reporter.emit(command, inputs, {"length": len(path), "labels": _label_strs(path)})
    elif command == "gromov":
        metric = _params(cfg).get("metric", "relative")
        if metric not in ("relative", "word"):
            raise SchemaError("metric must be 'relative' or 'word', not %r" % metric)
        mview = view if metric == "relative" else word_metric_view(group)
        _, (x, y, z) = _word_params(cfg, G, "x", "y", "z")
        reporter.emit(command, {"metric": metric}, gromov_product(x, y, z, mview))
    elif command == "delta":
        r = _int_param(cfg, "radius", override=radius)
        c0 = _int_param(cfg, "c0", default=0)
        m = measure_delta(build_ball(G, r, budget), budget)
        profile = ConstantsProfile(delta=m.delta, c0=Fraction(c0))
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
        text = sec.get("path", "")
        path = parse_path(view, text, parse_word(sec.get("start", ""), G))
        reporter.emit(
            command,
            {"path": text},
            [
                {"range": [c.start, c.stop], "nu": c.nu, "x_length": c.x_length}
                for c in comp_mod.find_components(path)
            ],
        )
    elif command == "backtracking":
        bl = parse_broken_line(view, cfg.get("paths", {}))
        reporter.emit(
            command,
            {},
            [
                {"kind": inst.kind, "nu": inst.nu, "segments": [i for i, _ in inst.pairs]}
                for inst in comp_mod.find_consecutive_backtracking(bl)
            ],
        )
    elif command == "shortcut":
        bl = parse_broken_line(view, cfg.get("paths", {}))
        theta = _int_param(cfg, "theta", least=1)
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
        bl = parse_broken_line(view, cfg.get("paths", {}))
        B = _int_param(cfg, "B")
        C = _int_param(cfg, "C")
        zeta = _int_param(cfg, "zeta")
        theta = _int_param(cfg, "theta", least=1)
        verdict = shortcut_mod.is_tamable(bl, B, C, zeta, theta)
        reporter.emit(
            command,
            {"B": B, "C": C, "zeta": zeta, "theta": theta},
            verdict.ok,
            witness=None if verdict.ok else str(verdict.failing[0]),
        )
    elif command == "verify-shortcut":
        bl = parse_broken_line(view, cfg.get("paths", {}))
        theta = _int_param(cfg, "theta", least=1)
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
        inputs, (g,) = _word_params(cfg, G, "g")
        qp = subgroup_from_config(cfg, "Q'", G)
        rp = subgroup_from_config(cfg, "R'", G)
        b = SearchBudget(
            _int_param(cfg, "max-factors", default=6),
            _int_param(cfg, "max-len", default=8),
        )
        res = minimize_type(g, qp, rp, view, b, budget)
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
        reporter.emit(command, inputs, verdict, caveats=[res.caveat])
    elif command == "check-conditions":
        _run_conditions(cfg, view, reporter, radius, budget)
    elif command == "minx":
        elems = _word_list(cfg.get("set", {}).get("elements", ""), G)
        # minx reads no radius, but a malformed one is still a schema error
        _int_param(cfg, "radius", default=0, override=radius)
        reporter.emit(command, {"size": len(elems)}, minx(elems, G))
    elif command == "stallings":
        name, graph = _named_subgroup(cfg, G)
        reporter.emit(
            command,
            {"subgroup": name},
            # each edge, a self-loop too, is two dict entries
            {"vertices": len(graph), "edges": sum(map(len, graph.out)) // 2},
        )
    elif command == "member":
        inputs, (g,) = _word_params(cfg, G, "g")
        name, graph = _named_subgroup(cfg, G)
        reporter.emit(command, {**inputs, "subgroup": name}, graph.accepts(g))
    elif command == "product-member":
        inputs, (g,) = _word_params(cfg, G, "g")
        names, gens = _factor_gens(cfg, G)
        reporter.emit(command, {**inputs, "factors": names}, product_member(g, gens, G))
    elif command == "separate":
        inputs, (g,) = _word_params(cfg, G, "g")
        target = RationalSubset(G, (), _factor_gens(cfg, G)[1])
        cap = _int_param(cfg, "cap", default=6)
        try:
            q = find_separating_quotient(g, target, n_max=cap, budget=budget)
        except InTargetError:
            reporter.any_failed = True
            reporter.emit(command, inputs, "in-target", witness=G.elem_str(g),
                          caveats=["g lies in the target product; no finite quotient separates it"])
            return
        if q is None:
            reporter.emit(command, inputs, "not-found", caveats=["search cap S_%d exhausted" % cap])
        else:
            reporter.emit(command, inputs, q.certificate())
    elif command == "minx-harness":
        Z = RationalSubset(G, (), _factor_gens(cfg, G)[1])
        C = _int_param(cfg, "C")
        cap = _int_param(cfg, "cap", default=6)
        res = minx_quotient_harness(Z, C, n_max=cap, budget=budget)
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
        inputs, (g,) = _word_params(cfg, G, "w")
        reporter.emit(command, inputs, {"length": len(g), "syllables": G.elem_str(g)})
    elif command == "amalgam-member":
        inputs, (g,) = _word_params(cfg, G, "g")
        kind = _params(cfg).get("kind", "BC")
        U = _word_list(_params(cfg).get("U", ""), G)
        V = _word_list(_params(cfg).get("V", ""), G)
        try:
            verdict = amalgam_product_member(g, kind, G, U, V)
        except (ValueError, FamilyMismatchError) as e:
            raise SchemaError("bad amalgam-member parameters: %s" % e)
        reporter.emit(command, {**inputs, "kind": kind}, verdict)
    else:
        raise SchemaError("unknown command %r" % command)


def _label_strs(path: EdgePath) -> list:
    G = path.view.group.base
    out = []
    for lab in path.labels:
        if lab[0] == "x":
            out.append("x:" + G.elem_str(lab[1]))
        else:
            out.append("h:%d:%s" % (lab[1], G.elem_str(lab[2])))
    return out


def _run_conditions(cfg, view, reporter: Reporter, radius_override, budget) -> None:
    G = view.group.base
    p = _params(cfg)
    conds = p.get("conditions", "").split() or list(CONDITION_IDS)
    for cid in conds:
        if cid not in CONDITION_IDS:
            raise SchemaError("unknown condition id %r" % cid)

    def opt_subgroups(prefix):
        sec = cfg.get("subgroups", {})
        names = [n for n in sec if n.startswith(prefix) and n[len(prefix):].isdecimal()]
        names.sort(key=lambda n: int(n[len(prefix):]))
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
        budget=budget,
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


# built once per process: parse_args keeps no state between calls
_PARSER = argparse.ArgumentParser(
    prog="relhyp", description="relative-metric and separability workbench"
)
_PARSER.add_argument("--config", required=True, help="path to a run configuration")
_PARSER.add_argument("--command", required=True)
# every search is deterministic: --seed is accepted for old command lines and ignored
_PARSER.add_argument("--seed", type=int, default=0, help="accepted and ignored")
_PARSER.add_argument("--budget", type=int, default=None)
_PARSER.add_argument("--radius", type=int, default=None)
_PARSER.add_argument("--out", default=None, help="report destination (default stdout)")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    budget = args.budget
    if budget is None and os.environ.get("RELHYP_BUDGET"):
        try:
            budget = int(os.environ["RELHYP_BUDGET"])
        except ValueError:
            print("schema error: RELHYP_BUDGET must be an integer", file=sys.stderr)
            return EXIT_SCHEMA

    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    except OSError as e:
        print("cannot read config: %s" % e, file=sys.stderr)
        return EXIT_SCHEMA

    # an --out report is buffered and written only when the run completes,
    # so a run that fails leaves an existing report as it was
    out = io.StringIO() if args.out else sys.stdout
    reporter = Reporter(out, timing_enabled=os.environ.get("RELHYP_TIMING") == "1")
    try:
        run(cfg, args.command, reporter, budget=budget, radius=args.radius)
    except SchemaError as e:
        print("schema error: %s" % e, file=sys.stderr)
        return EXIT_SCHEMA
    except BudgetExceededError as e:
        print("budget exceeded: %s" % e, file=sys.stderr)
        return EXIT_BUDGET
    except UnsupportedFamilyError as e:
        print("unsupported family: %s" % e, file=sys.stderr)
        return EXIT_UNSUPPORTED
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out.getvalue())
    return EXIT_CHECK_FAILED if reporter.any_failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
