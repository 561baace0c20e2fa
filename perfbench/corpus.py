"""Job templates for the three workloads.

A job is one CLI call: a config text, a command name and extra CLI
arguments.  Each template makes jobs of one shape from a random generator, so
jobs of one template cost about the same whatever the words drawn.  A round
of a workload takes ``count`` jobs from every template (the traffic is
explained above ``WORKLOADS``); the seed of a run picks which pool entries
fill each round (see ``worker.select_rounds``).

The pools are generated once by ``pin.py`` with a fixed seed, run through
relhyp, cross-checked by ``oracles.py`` and pinned in ``reference/``.
"""

from __future__ import annotations

import random

import oracles

F2A = """[group]
family = free
symbols = a b

[peripherals]
0 = cyclic-generator a
"""

Z2Z = """[group]
family = free-product
factors = A B

[factor A]
family = free-abelian
symbols = x y

[factor B]
family = free-abelian
symbols = t

[peripherals]
0 = free-factor 0
1 = free-factor 1
"""


def amalgam_header(m: int, n: int, d: int) -> str:
    """Z/m *_{Z/d} Z/n, with b^(m/d) identified with c^(n/d)."""
    pairs = ["b^%d : c^%d" % (k * (m // d), k * (n // d)) for k in range(1, d)]
    return """[group]
family = amalgam
left = B
right = C
edge = : ; %s

[factor B]
family = finite-cyclic
order = %d
symbol = b

[factor C]
family = finite-cyclic
order = %d
symbol = c
""" % (" ; ".join(pairs), m, n)


AM46 = amalgam_header(4, 6, 2)


def section(name: str, items: dict) -> str:
    return "\n[%s]\n" % name + "".join("%s = %s\n" % kv for kv in items.items())


# -- words -------------------------------------------------------------------

def free_word(rng: random.Random, n: int, letters=("a", "b")) -> str:
    """A reduced word of exactly n letters."""
    out: list = []
    while len(out) < n:
        tok = rng.choice(letters) + rng.choice(("", "^-1"))
        if out and out[-1][0] == tok[0] and out[-1] != tok:
            continue
        out.append(tok)
    return " ".join(out)


def power(letter: str, k: int) -> str:
    if k == 0:
        return ""
    return " ".join([letter if k > 0 else letter + "^-1"] * abs(k))


def nonzero(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice((-1, 1)) * rng.randint(lo, hi)


def z2z_word(rng: random.Random, syllables: int) -> str:
    """A word of alternating Z^2 and Z syllables with small exponents."""
    parts = []
    side = rng.randint(0, 1)
    for _ in range(syllables):
        if side == 0:
            x, y = rng.randint(-2, 2), rng.randint(-2, 2)
            if x == 0 and y == 0:
                x = 1
            parts += [power("x", x), power("y", y)]
        else:
            parts.append(power("t", nonzero(rng, 1, 2)))
        side = 1 - side
    return " ".join(p for p in parts if p)


def path_tokens(rng: random.Random, n: int) -> str:
    """Edge labels over F2 with peripheral <a>: x-letters and h:0 powers of a."""
    out = []
    for _ in range(n):
        if rng.random() < 0.4:
            k = nonzero(rng, 1, 4)
            out.append("h:0:" + ",".join(["a" if k > 0 else "a^-1"] * abs(k)))
        else:
            out.append("x:" + rng.choice(("a", "a^-1", "b", "b^-1")))
    return " ".join(out)


def broken_nodes(rng: random.Random, n: int) -> str:
    """Nodes of a broken line: products of a-powers and b-letters."""
    nodes = ["1"]
    word: list = []
    for _ in range(n - 1):
        seg = rng.choice(("a", "ba", "ab", "bab"))
        for ch in seg:
            if ch == "a":
                word += power("a", nonzero(rng, 2, 6)).split()
            else:
                word.append(rng.choice(("b", "b^-1")))
        nodes.append(" ".join(word))
    return " ; ".join(nodes)


def job(config: str, command: str, *args: str) -> dict:
    return {"command": command, "config": config, "args": list(args)}


# -- metric ------------------------------------------------------------------

def t_rel_dist_f2(rng):
    return job(F2A + section("params", {"u": free_word(rng, 12), "v": free_word(rng, 14)}), "rel-dist")


def t_rel_dist_z2z(rng):
    return job(Z2Z + section("params", {"u": z2z_word(rng, 5), "v": z2z_word(rng, 6)}), "rel-dist")


def t_geodesic_f2(rng):
    return job(F2A + section("params", {"u": free_word(rng, 12), "v": free_word(rng, 14)}), "geodesic")


def t_geodesic_z2z(rng):
    return job(Z2Z + section("params", {"u": z2z_word(rng, 5), "v": z2z_word(rng, 6)}), "geodesic")


def t_gromov(rng):
    params = {
        "x": free_word(rng, 12),
        "y": free_word(rng, 12),
        "z": free_word(rng, 12),
        "metric": rng.choice(("relative", "word")),
    }
    return job(F2A + section("params", params), "gromov")


def t_components(rng):
    return job(F2A + section("paths", {"path": path_tokens(rng, 30)}), "components")


def t_backtracking(rng):
    return job(F2A + section("paths", {"nodes": broken_nodes(rng, 9)}), "backtracking")


def t_shortcut(rng):
    return job(
        F2A + section("paths", {"nodes": broken_nodes(rng, 9)})
        + section("params", {"theta": rng.choice((2, 3, 4))}),
        "shortcut",
    )


def t_tamable(rng):
    params = {"B": rng.randint(1, 3), "C": rng.randint(1, 3), "zeta": rng.randint(4, 10),
              "theta": rng.choice((2, 3, 4))}
    return job(F2A + section("paths", {"nodes": broken_nodes(rng, 9)})
               + section("params", params), "tamable")


def t_verify_shortcut(rng):
    params = {"theta": rng.choice((2, 3, 4)), "lambda": 2, "c": rng.randint(2, 6), "eta": 0}
    return job(F2A + section("paths", {"nodes": broken_nodes(rng, 6)})
               + section("params", params), "verify-shortcut")


def t_ball(radius):
    def make(rng):
        return job(F2A + section("params", {"radius": radius}), "ball")
    return make


def t_delta(header, radius):
    def make(rng):
        return job(header + section("params", {"radius": radius}), "delta")
    return make


# -- separability ------------------------------------------------------------

def subgroups(rng: random.Random, k: int, ngens: int, length: int) -> dict:
    return {
        "H%d" % i: " | ".join(free_word(rng, length) for _ in range(ngens))
        for i in range(k)
    }


def t_stallings(ngens, length):
    def make(rng):
        return job(F2A + section("subgroups", {"Q": " | ".join(
            free_word(rng, length) for _ in range(ngens))})
            + section("params", {"subgroup": "Q"}), "stallings")
    return make


def t_member(rng):
    subs = subgroups(rng, 1, 3, 4)
    gens = subs["H0"].split(" | ")
    if rng.random() < 0.5:
        # a product of generators, so a true membership occurs often
        g = " ".join(rng.choice(gens) for _ in range(3))
    else:
        g = free_word(rng, 8)
    return job(F2A + section("subgroups", subs)
               + section("params", {"subgroup": "H0", "g": g}), "member")


def t_product_member(rng):
    k = rng.randint(1, 4)  # factor counts cost about the same: drawn
    subs = subgroups(rng, k, 2, 3)
    if rng.random() < 0.5:
        g = " ".join(rng.choice(subs["H%d" % i].split(" | ")) for i in range(k))
    else:
        g = free_word(rng, 6)
    return job(F2A + section("subgroups", subs)
               + section("params", {"factors": " ".join(subs), "g": g}), "product-member")


def gens_of(subs: dict) -> list:
    return [[oracles.parse_free(w) for w in subs[n].split("|")] for n in sorted(subs)]


def outside_target(subs: dict, draw) -> str:
    """Draw g until the independent brute force finds no factorization over
    the product of ``subs``.  An element of the target crashes ``separate``
    (a defect probed by ``t_separate_in_target``), so it stays out of the
    timed mix; a factorization longer than the brute-force bound would crash
    pinning, not pass unnoticed."""
    while True:
        g = draw()
        if not oracles.brute_force_product(oracles.parse_free(g), gens_of(subs)):
            return g


def t_separate(k):
    def make(rng):
        subs = subgroups(rng, k, 1, 2)
        g = outside_target(subs, lambda: free_word(rng, 6))
        return job(F2A + section("subgroups", subs)
                   + section("params", {"factors": " ".join(subs), "g": g, "cap": 5}),
                   "separate", "--seed", str(rng.randint(0, 99)))
    return make


def t_separate_in_target(rng):
    """g is a product of one generator of each factor, so it lies in the
    target; ``find_separating_quotient`` raises ValueError on it."""
    subs = subgroups(rng, 2, 1, 2)
    g = " ".join((subs["H0"], subs["H1"]))
    return job(F2A + section("subgroups", subs)
               + section("params", {"factors": "H0 H1", "g": g, "cap": 5}),
               "separate", "--seed", str(rng.randint(0, 99)))


def t_separate_scan(rng):
    """g conjugates w^60, which every quotient of degree <= 5 kills, so the
    search runs through the exhaustive S_5 scan and ends not-found."""
    subs = subgroups(rng, 2, 1, 3)

    def draw():
        u = free_word(rng, 2)
        letter = rng.choice(("a", "b"))
        inv = " ".join(
            t[:-3] if t.endswith("^-1") else t + "^-1" for t in reversed(u.split())
        )
        return " ".join((u, power(letter, nonzero(rng, 60, 60)), inv))

    g = outside_target(subs, draw)
    return job(F2A + section("subgroups", subs)
               + section("params", {"factors": "H0 H1", "g": g, "cap": 5}),
               "separate", "--seed", str(rng.randint(0, 99)))


def t_minx_harness(C):
    def make(rng):
        subs = subgroups(rng, 2, 1, 2)
        return job(F2A + section("subgroups", subs)
                   + section("params", {"factors": "H0 H1", "C": C, "cap": 5}),
                   "minx-harness", "--seed", str(rng.randint(0, 99)))
    return make


AM_BIG = amalgam_header(60, 45, 15)


def amalgam_word(rng: random.Random, syllables: int, m=60, n=45) -> str:
    parts = []
    side = rng.randint(0, 1)
    for _ in range(syllables):
        parts.append("b^%d" % rng.randint(1, m - 1) if side == 0 else "c^%d" % rng.randint(1, n - 1))
        side = 1 - side
    return " ".join(parts)


def t_amalgam_reduce(rng):
    return job(AM_BIG + section("params", {"w": amalgam_word(rng, 8)}), "amalgam-reduce")


AMALGAM_KINDS = ("UC", "BV", "BC", "UD", "DV")


def t_amalgam_member(rng):
    """One of the five query kinds, drawn: they cost about the same."""
    params = {
        "g": amalgam_word(rng, rng.randint(1, 2)),
        "kind": rng.choice(AMALGAM_KINDS),
        "U": " ; ".join("b^%d" % rng.randint(1, 59) for _ in range(3)),
        "V": " ; ".join("c^%d" % rng.randint(1, 44) for _ in range(3)),
    }
    return job(AM_BIG + section("params", params), "amalgam-member")


# -- conditions --------------------------------------------------------------

ALL_BUT_P1 = "C1 C2 C3 C4 C5 C2-m C5-m P2 P3"


def conditions_config(rng, k, radius, conditions, extra_subgroups=None,
                      P="a", P_abelian="1"):
    subs = {"Q": "a", "R": "b", "Q'": power("a", k), "R'": power("b", k), "P0": P}
    subs.update(extra_subgroups or {})
    B = rng.randint(2, 3)
    params = {"radius": radius, "B": B, "C": rng.randint(2, 3), "A": B,
              "P-abelian": P_abelian, "conditions": conditions}
    return F2A + section("subgroups", subs) + section("params", params)


def t_sweep(radius):
    def make(rng):
        return job(conditions_config(rng, rng.randint(1, 5), radius, ALL_BUT_P1),
                   "check-conditions")
    return make


def t_p1(rng):
    return job(conditions_config(rng, 2, 4, "P1"), "check-conditions")


def t_p1_join_f2(rng):
    """k = 1 makes the join <a, b> the whole group: P1's pair scan is quadratic
    in the ball."""
    return job(conditions_config(rng, 1, 2, "P1"), "check-conditions")


def t_nonabelian(rng):
    extra = {
        "T0": free_word(rng, 2),
        "T1": free_word(rng, 2),
        "U0": "a",
        "U1": "b a b^-1" if rng.random() < 0.5 else "a b a^-1",
    }
    return job(conditions_config(rng, rng.randint(2, 3), rng.choice((4, 5)),
                                 "C5 C2-m C5-m", extra, P="a | b a b^-1",
                                 P_abelian="0"), "check-conditions")


def t_minimize_type(rng):
    k = rng.randint(2, 3)
    if rng.random() < 0.5:
        # a product of Q' and R' elements: found
        g = " ".join(power(rng.choice("ab"), k * rng.choice((-1, 1))) for _ in range(3))
    else:
        g = free_word(rng, 4)
    subs = {"Q'": power("a", k), "R'": power("b", k)}
    return job(F2A + section("subgroups", subs)
               + section("params", {"g": g, "max-factors": 3, "max-len": 6}),
               "minimize-type")


def t_minx(rng):
    elems = " ; ".join(free_word(rng, rng.randint(1, 8)) for _ in range(12))
    return job(F2A + section("set", {"elements": elems}), "minx")


# Traffic: a round is one batch in which the user runs every command of the
# workload equally often, n jobs each, and splits a command's jobs evenly
# over the input shapes that set its cost (sizes, radii, factor counts of
# separate, C of minx-harness).  A shape whose input is fixed runs once a
# round, so n is the least count that every command's shapes divide:
# metric 4 (ten commands, four ball radii, four delta inputs), separability
# 12 (three stallings sizes, four separate shapes, four values of C), and
# conditions 7 (seven check-conditions shapes, two of them fixed).  Inputs
# whose variants cost about the same (amalgam-member kinds, product-member
# factor counts, the words of the short jobs) are drawn.
#
# name, jobs per round, maker, fixed (one input reused by every round).
WORKLOADS = {
    "metric": [
        ("rel-dist-f2", 2, t_rel_dist_f2, False),
        ("rel-dist-z2z", 2, t_rel_dist_z2z, False),
        ("geodesic-f2", 2, t_geodesic_f2, False),
        ("geodesic-z2z", 2, t_geodesic_z2z, False),
        ("gromov", 4, t_gromov, False),
        ("components", 4, t_components, False),
        ("backtracking", 4, t_backtracking, False),
        ("shortcut", 4, t_shortcut, False),
        ("tamable", 4, t_tamable, False),
        ("verify-shortcut", 4, t_verify_shortcut, False),
        ("ball-r6", 1, t_ball(6), True),
        ("ball-r7", 1, t_ball(7), True),
        ("ball-r8", 1, t_ball(8), True),
        ("ball-r9", 1, t_ball(9), True),
        ("delta-tree-r3", 1, t_delta(F2A, 3), True),
        ("delta-tree-r4", 1, t_delta(F2A, 4), True),
        ("delta-z2z-r2", 1, t_delta(Z2Z, 2), True),
        ("delta-amalgam-r2", 1, t_delta(AM46, 2), True),
    ],
    "separability": [
        ("stallings-5x8", 4, t_stallings(5, 8), False),
        ("stallings-20x15", 4, t_stallings(20, 15), False),
        ("stallings-60x30", 4, t_stallings(60, 30), False),
        ("member", 12, t_member, False),
        ("product-member", 12, t_product_member, False),
        ("separate-1", 3, t_separate(1), False),
        ("separate-2", 3, t_separate(2), False),
        ("separate-3", 3, t_separate(3), False),
        ("separate-scan", 3, t_separate_scan, False),
        ("minx-harness-1", 3, t_minx_harness(1), False),
        ("minx-harness-2", 3, t_minx_harness(2), False),
        ("minx-harness-3", 3, t_minx_harness(3), False),
        ("minx-harness-4", 3, t_minx_harness(4), False),
        ("amalgam-reduce", 12, t_amalgam_reduce, False),
        ("amalgam-member", 12, t_amalgam_member, False),
    ],
    "conditions": [
        ("sweep-r4", 1, t_sweep(4), False),
        ("sweep-r5", 1, t_sweep(5), False),
        ("sweep-r6", 1, t_sweep(6), False),
        ("sweep-r7", 1, t_sweep(7), False),
        ("p1", 1, t_p1, True),
        ("p1-join-f2", 1, t_p1_join_f2, True),
        ("nonabelian", 1, t_nonabelian, False),
        ("minimize-type", 7, t_minimize_type, False),
        ("minx", 7, t_minx, False),
    ],
}

# Rounds' worth of pool entries per template, and the most rounds a run
# makes: more for conditions, whose rounds are short.
POOL_ROUNDS = {"metric": 6, "separability": 6, "conditions": 24}

# Named defects.  These jobs crash today, so they run only as probes after
# the traced run of ``separability`` (see README.md) and no timed job fails:
# separate on a product of four subgroups (ROADMAP open item 4), and
# separate on an element of the target subset, which raises ValueError
# where it should report that there is nothing to separate.
DEFECT_PROBES = {
    "separability": [("separate-4", 1, t_separate(4), False),
                     ("separate-in-target", 1, t_separate_in_target, False)],
}
