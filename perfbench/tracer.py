"""Spans and counters recorded from outside relhyp, by wrapping its functions.

``Tracer.install`` replaces each traced function in every ``relhyp.*``
namespace that binds it (``from .cayley import build_ball`` copies the name
into the importing module) and each traced method on its class.

A span opens when a traced call is made while a different traced function is
innermost, so recursion and re-entry into the same function add no span.  A
span holds its name, start, end, parent span and job id; spans stay in memory
and are reduced to metrics when the run ends.  Self time is a span's
duration minus the time its child spans cover.  ``groups`` arithmetic is
counted, not spanned, and a sample of its operands is kept for an untraced
replay.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

# Span name -> the (module, function or Class.method) it wraps.
SPANS = {
    "cli.build_group": [("relhyp.cli", "parse_config"), ("relhyp.cli", "build_group"),
                        ("relhyp.cli", "relative_view")],
    "cli.emit": [("relhyp.cli", "Reporter.emit")],
    "cayley.build_ball": [("relhyp.cayley", "build_ball")],
    "cayley.dist": [("relhyp.cayley", "RelGraphView.dist")],
    "cayley.geodesic": [("relhyp.cayley", "RelGraphView.geodesic")],
    "geometry.measure_delta": [("relhyp.geometry", "measure_delta")],
    "geometry.thin_triangle_delta": [("relhyp.geometry", "thin_triangle_delta")],
    "geometry.is_quasigeodesic": [("relhyp.geometry", "is_quasigeodesic")],
    "geometry.gromov_product": [("relhyp.geometry", "gromov_product")],
    "components.find_components": [("relhyp.components", "find_components")],
    "components.find_consecutive_backtracking": [
        ("relhyp.components", "find_consecutive_backtracking")],
    "shortcut.shortcut": [("relhyp.shortcut", "shortcut")],
    "shortcut.is_tamable": [("relhyp.shortcut", "is_tamable")],
    "shortcut.verify_shortcut_proposition": [
        ("relhyp.shortcut", "verify_shortcut_proposition")],
    "pathrep.minimize_type": [("relhyp.pathrep", "minimize_type")],
    "pathrep.type_of": [("relhyp.pathrep", "type_of")],
    "conditions.check": [("relhyp.conditions", "check_condition")],
    "conditions.quasiconvexity_epsilon": [("relhyp.conditions", "quasiconvexity_epsilon")],
    "stallings.subgroup_graph": [("relhyp.separability.stallings", "subgroup_graph")],
    "stallings.pullback": [("relhyp.separability.stallings", "pullback")],
    "rational.build": [("relhyp.separability.rational", "build_chain_nfa")],
    "rational.saturate": [("relhyp.separability.rational", "saturate")],
    "rational.contains": [("relhyp.separability.rational", "RationalSubset.contains")],
    "membership.oracle": [("relhyp.separability.membership", "membership_oracle")],
    "quotients.search": [("relhyp.separability.quotients", "find_separating_quotient")],
    "quotients.subgroup_closure": [("relhyp.separability.quotients", "subgroup_closure")],
    "quotients.verify_separation": [("relhyp.separability.quotients", "verify_separation")],
    "quotients.harness": [("relhyp.separability.quotients", "minx_quotient_harness")],
    "amalgams.product_member": [("relhyp.separability.amalgams", "amalgam_product_member")],
    # The CLI's amalgam-reduce computes the reduced form through Amalgam
    # arithmetic; amalgams.amalgam_reduce has no caller there.
    "amalgams.reduce": [("relhyp.groups", "Amalgam._normalize")],
}

# groups arithmetic: counter name -> Class.method
COUNTED = {
    "groups.mul.free": "FreeGroup.mul",
    "groups.mul.free_product": "FreeProduct.mul",
    "groups.mul.finite": "FiniteGroup.mul",
    "groups.mul.amalgam": "Amalgam.mul",
    "groups.inv.finite": "FiniteGroup.inv",
    "groups.inv.amalgam": "Amalgam.inv",
}
# counter -> family whose operands are sampled for the untraced replay
REPLAYED = {"groups.mul.free": "free", "groups.mul.finite": "finite",
            "groups.mul.amalgam": "amalgam"}
SAMPLE_EVERY = 61
SAMPLE_MAX = 4000


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = getattr(owner, cls_name)
        return owner, meth, owner.__dict__[meth]
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list = []  # (span index, name id)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._raised: dict = {}  # module -> last exception counted
        self.samples: dict = {family: [] for family in REPLAYED.values()}
        self.distinct_folds: set = set()
        self.job = -1
        self._undo: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording -----------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        """Run fn under a span called ``name`` (or inside the current one)."""
        self.calls[name] += 1
        nid = self.name_id(name)
        stack = self.stack
        if stack and stack[-1][1] == nid:
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                self._error(name, e)
                raise
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_job.append(self.job)
        self.span_end.append(0.0)
        stack.append((idx, nid))
        self.span_start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        except Exception as e:
            self._error(name, e)
            raise
        finally:
            self.span_end[idx] = time.perf_counter()
            stack.pop()

    def _error(self, name: str, exc: Exception) -> None:
        module = name.split(".")[0]
        if self._raised.get(module) is not exc:
            self._raised[module] = exc
            self.errors[module] += 1

    # -- installing wrappers -------------------------------------------------

    def _patch(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _bind_everywhere(self, attr, fn, wrapped) -> None:
        """Replace ``fn`` in every relhyp namespace that binds it."""
        for name, mod in list(sys.modules.items()):
            if (name == "relhyp" or name.startswith("relhyp.")) and \
                    getattr(mod, attr, None) is fn:
                self._patch(mod, attr, wrapped)

    def install(self) -> None:
        import relhyp.cli  # noqa: F401  (imports every traced module)

        for name, targets in SPANS.items():
            for module_name, attr in targets:
                owner, key, fn = _resolve(module_name, attr)
                wrapped = self._wrap(name, fn)
                if isinstance(owner, type):
                    self._patch(owner, key, wrapped)
                elif name == "cli.build_group" and key == "relative_view":
                    # only the CLI's own call counts as group set-up
                    self._patch(owner, key, wrapped)
                else:
                    self._bind_everywhere(key, fn, wrapped)
        groups = sys.modules["relhyp.groups"]
        for counter, target in COUNTED.items():
            cls_name, meth = target.split(".")
            cls = getattr(groups, cls_name)
            self._patch(cls, meth, self._count(counter, cls.__dict__[meth],
                                               REPLAYED.get(counter)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _wrap(self, name, fn):
        tracer = self
        on_result = RESULT_COUNTERS.get(name)
        if name == "conditions.check":
            @functools.wraps(fn)
            def wrapped(cond_id, ctx):
                rep = tracer.call("conditions.check.%s" % cond_id, fn, (cond_id, ctx), {})
                if rep.ok:
                    tracer.counts["conditions.passes"] += 1
                    tracer.counts["conditions.exact_passes"] += rep.verdict == "holds"
                return rep
            return wrapped
        if name == "membership.oracle":
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                oracle = tracer.call(name, fn, args, kwargs)
                return lambda g: tracer.call(name, oracle, (g,), {})
            return wrapped

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            res = tracer.call(name, fn, args, kwargs)
            if on_result is not None:
                on_result(tracer, args, res)
            return res
        return wrapped

    def _count(self, counter, fn, family):
        counts = self.counts
        samples = self.samples.get(family)

        @functools.wraps(fn)
        def wrapped(*args):
            n = counts[counter] = counts[counter] + 1
            if samples is not None and n % SAMPLE_EVERY == 0 and len(samples) < SAMPLE_MAX:
                samples.append(args)
            try:
                return fn(*args)
            except Exception as e:
                self._error("groups", e)
                raise
        return wrapped

    # -- reduction -----------------------------------------------------------

    def self_ms(self) -> Counter:
        """Self time in ms per span name."""
        n = len(self.span_start)
        child = [0.0] * n
        parent = self.span_parent
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        out: Counter = Counter()
        for i in range(n):
            out[self.names[self.span_name[i]]] += (dur[i] - child[i]) * 1000.0
        return out

    def replay_us(self, originals: dict) -> dict:
        """Untraced µs per call over the sampled operands of each family."""
        out = {}
        for family, samples in self.samples.items():
            if not samples:
                out[family] = 0.0
                continue
            fn = originals[family]
            calls = 0
            t0 = time.perf_counter()
            while True:
                for args in samples:
                    fn(*args)
                calls += len(samples)
                elapsed = time.perf_counter() - t0
                if elapsed >= 0.2:
                    break
            out[family] = elapsed / calls * 1e6
        return out

    def dump(self, path: str) -> None:
        """Write every span as a tab-separated line."""
        with open(path, "w") as fh:
            fh.write("name\tjob\tparent\tstart\tend\n")
            for i in range(len(self.span_start)):
                fh.write("%s\t%d\t%d\t%.9f\t%.9f\n" % (
                    self.names[self.span_name[i]], self.span_job[i], self.span_parent[i],
                    self.span_start[i], self.span_end[i]))


def _count_ball(tracer, args, ball):
    tracer.counts["cayley.ball_vertices"] += len(ball)


def _count_delta(tracer, args, m):
    tracer.counts["geometry.delta_triples"] += m.triples


def _count_fold(tracer, args, graph):
    gens = tuple(tuple(w) for w in args[0])
    tracer.counts["stallings.fold_letters"] += sum(len(w) for w in gens)
    tracer.distinct_folds.add(gens)


def _count_nfa(tracer, args, nfa):
    tracer.counts["rational.nfa_states"] += nfa.n


def _count_minimize(tracer, args, res):
    tracer.counts["pathrep.found"] += res.rep is not None


def _count_search(tracer, args, q):
    tracer.counts["quotients.found"] += q is not None


def _count_closure(tracer, args, closure):
    tracer.counts["quotients.closure_elems"] += len(closure)


def _count_harness(tracer, args, res):
    tracer.counts["quotients.harness_degree"] += res.quotient.degree if res.quotient else 0


RESULT_COUNTERS = {
    "cayley.build_ball": _count_ball,
    "geometry.measure_delta": _count_delta,
    "stallings.subgroup_graph": _count_fold,
    "rational.saturate": _count_nfa,
    "pathrep.minimize_type": _count_minimize,
    "quotients.search": _count_search,
    "quotients.subgroup_closure": _count_closure,
    "quotients.harness": _count_harness,
}
