"""Independent reference checks.  Nothing here imports relhyp.

Words are tuples of nonzero ints: generator i is i + 1, its inverse -(i + 1).
Each check returns None when the report agrees and a message otherwise; a
message that contains UNDECIDED means the check could not decide the case.
"""

from __future__ import annotations

import json
from collections import deque

UNDECIDED = "beyond the brute-force bound"


def parse_config(text: str) -> dict:
    sections: dict = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1].strip(), {})
            continue
        key, _, value = line.partition("=")
        current[key.strip()] = value.strip()
    return sections


def reduce_word(word) -> tuple:
    out: list = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(word) -> tuple:
    return tuple(-x for x in reversed(word))


def parse_free(text: str, symbols=("a", "b")) -> tuple:
    """A word over free generators; letters may carry ^n exponents."""
    out = []
    for tok in text.split():
        if tok == "1":
            continue
        sym, _, exp = tok.partition("^")
        n = int(exp) if exp else 1
        x = symbols.index(sym) + 1
        out += [x if n > 0 else -x] * abs(n)
    return reduce_word(out)


# -- balls and the relative metric on F2 with peripheral <a> -----------------

def free_ball_bfs(radius: int, rank: int = 2) -> tuple[int, int]:
    """(vertex count, max distance) of the word-metric ball, by plain BFS."""
    letters = [s * (i + 1) for i in range(rank) for s in (1, -1)]
    dist = {(): 0}
    frontier = [()]
    for d in range(1, radius + 1):
        nxt = []
        for v in frontier:
            for x in letters:
                w = reduce_word(v + (x,))
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return len(dist), max(dist.values())


def coned_distance(target: tuple, slack: int = 2) -> int:
    """Distance from 1 to ``target`` in F2 coned along the cosets of <a>.

    Plain BFS in the graph with edges g -> g b^+-1 and g -> g a^n (n != 0),
    truncated to the vertices within ``slack`` of a word geodesic from 1 to
    the target (|g| + |g^-1 target| <= |target| + 2 slack).  In a tree a
    shortcut through the cones never leaves that hull, and the slack lets the
    search try detours that a wrong answer would need.
    """
    n = len(target)
    limit = n + 2 * slack

    def inside(g):
        return len(g) + len(reduce_word(inverse(g) + target)) <= limit

    dist = {(): 0}
    queue = deque([()])
    while queue:
        g = queue.popleft()
        if g == target:
            return dist[g]
        moves = [(2,), (-2,)] + [(1,) * k for k in range(1, limit + 1)] + [
            (-1,) * k for k in range(1, limit + 1)
        ]
        for m in moves:
            h = reduce_word(g + m)
            if h not in dist and inside(h):
                dist[h] = dist[g] + 1
                queue.append(h)
    raise ValueError("target not reached")


def z2z_syllables(text: str) -> int:
    """Syllable count of a Z^2 * Z word: its distance to 1 when both factors
    are peripheral (each coset of a factor is coned to one point)."""
    sylls: list = []
    for tok in text.split():
        sym, _, exp = tok.partition("^")
        n = int(exp) if exp else 1
        side = 1 if sym == "t" else 0
        vec = {"x": (n, 0), "y": (0, n), "t": (n, 0)}[sym]
        if sylls and sylls[-1][0] == side:
            old = sylls.pop()[1]
            vec = (old[0] + vec[0], old[1] + vec[1])
        if vec != (0, 0):
            sylls.append((side, vec))
    return len(sylls)


def z2z_mul_text(u: str, v: str) -> str:
    """The word u^-1 v as text."""
    inv = []
    for tok in reversed(u.split()):
        sym, _, exp = tok.partition("^")
        n = int(exp) if exp else 1
        inv.append("%s^%d" % (sym, -n))
    return " ".join(inv + v.split())


# -- products of subgroups ---------------------------------------------------

def subgroup_elements(gens, length: int) -> set:
    """Products of at most ``length`` generators and inverses."""
    letters = list(gens) + [inverse(g) for g in gens]
    out = {()}
    frontier = {()}
    for _ in range(length):
        frontier = {reduce_word(w + x) for w in frontier for x in letters} - out
        out |= frontier
    return out


def brute_force_product(g, factors, length: int = 4):
    """True when g = h_1 ... h_k with each h_i a product of at most ``length``
    generators of its factor; None when no such factorization exists.

    Meets in the middle: products of the first half of the factors against
    the second half."""
    sets = [subgroup_elements(gens, length) for gens in factors]
    half = (len(sets) + 1) // 2

    def products(parts):
        out = {()}
        for s in parts:
            out = {reduce_word(p + h) for p in out for h in s}
        return out

    right = products(sets[half:])
    return True if any(reduce_word(inverse(p) + g) in right for p in products(sets[:half])) else None


def fold_member(gens, g) -> bool:
    """Membership by Stallings folding: fold the bouquet of generator loops
    until no vertex reads a letter twice, then walk g from the basepoint."""
    edges, n = [], 1
    for w in gens:
        prev = 0
        for i, x in enumerate(w):
            tgt = 0 if i == len(w) - 1 else n
            n += i != len(w) - 1
            edges.append((prev, x, tgt) if x > 0 else (tgt, -x, prev))
            prev = tgt
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    merged = True
    while merged:
        merged, out = False, {}
        for u, x, v in edges:
            for a, letter, b in ((find(u), x, find(v)), (find(v), -x, find(u))):
                if (a, letter) in out and find(out[(a, letter)]) != b:
                    parent[find(out[(a, letter)])] = b
                    merged = True
                    break
                out[(a, letter)] = b
            if merged:
                break
    out = {}
    for u, x, v in edges:
        out[(find(u), x)] = find(v)
        out[(find(v), -x)] = find(u)
    v = find(0)
    for x in g:
        if (v, x) not in out:
            return False
        v = out[(v, x)]
    return v == find(0)


# -- finite quotients --------------------------------------------------------

def perm_mul(p, q):
    return tuple(q[i] for i in p)


def perm_inv(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_image(images, word):
    out = tuple(range(len(images[0])))
    for x in word:
        p = images[abs(x) - 1]
        out = perm_mul(out, p if x > 0 else perm_inv(p))
    return out


def perm_closure(gens, n):
    seen = {tuple(range(n))}
    frontier = list(seen)
    moves = list(gens) + [perm_inv(g) for g in gens]
    while frontier:
        frontier = [q for q in {perm_mul(p, g) for p in frontier for g in moves} if q not in seen]
        seen.update(frontier)
    return seen


def certificate_separates(cert: dict, g, factors) -> bool:
    """Does the permutation representation send g outside the product of the
    images of the factor subgroups?"""
    n = cert["degree"]
    images = [tuple(p) for p in cert["generator_images"]]
    if any(sorted(p) != list(range(n)) for p in images):
        return False
    product = {tuple(range(n))}
    for gens in factors:
        closure = perm_closure([perm_image(images, w) for w in gens], n)
        product = {perm_mul(p, h) for p in product for h in closure}
    return perm_image(images, g) not in product


# -- per-command cross-checks ------------------------------------------------

def _factors(cfg: dict):
    subs = cfg.get("subgroups", {})
    names = cfg["params"]["factors"].split()
    return [[parse_free(w) for w in subs[n].split("|") if w.strip()] for n in names]


def check_certificate(config: str, stdout: str):
    cfg = parse_config(config)
    verdict = json.loads(stdout.splitlines()[0])["verdict"]
    g = parse_free(cfg["params"]["g"])
    if not isinstance(verdict, dict):
        return "separate gave %r, not a certificate" % (verdict,)
    if not certificate_separates(verdict, g, _factors(cfg)):
        return "certificate does not separate"
    return None


def cross_check(job: dict, exit_code, stdout: str):
    """Check one pinned report against an independent computation, where the
    benchmark has one for its command and group; None when it agrees."""
    if exit_code is None:
        return None
    cfg = parse_config(job["config"])
    command = job["command"]
    family = cfg["group"]["family"]
    lines = [json.loads(l) for l in stdout.splitlines()]
    verdict = lines[0]["verdict"] if lines else None
    params = cfg.get("params", {})
    if command == "ball" and family == "free":
        want = free_ball_bfs(int(params["radius"]))
        got = (verdict["vertices"], verdict["max_distance"])
        return None if got == want else "ball %r != BFS %r" % (got, want)
    if command == "delta" and family == "free":
        return None if verdict["delta"] == 0 else "delta %r on a free group" % verdict["delta"]
    if command in ("rel-dist", "geodesic"):
        if family == "free":
            want = coned_distance(reduce_word(inverse(parse_free(params["u"])) + parse_free(params["v"])))
        else:
            want = z2z_syllables(z2z_mul_text(params["u"], params["v"]))
        got = verdict if command == "rel-dist" else verdict["length"]
        if command == "geodesic" and len(verdict["labels"]) != got:
            return "geodesic length and label count differ"
        return None if got == want else "%s %r != BFS %r" % (command, got, want)
    if command == "member":
        gens = [parse_free(w) for w in cfg["subgroups"][params["subgroup"]].split("|")]
        want = fold_member(gens, parse_free(params["g"]))
        return None if verdict == want else "member %r != folding %r" % (verdict, want)
    if command == "product-member":
        g = parse_free(params["g"])
        found = brute_force_product(g, _factors(cfg))
        if found and verdict is not True:
            return "%s says False but a factorization exists" % command
        if verdict is True and not found:
            return "%s says True, %s" % (command, UNDECIDED)
        return None
    if command == "separate" and isinstance(verdict, dict):
        return check_certificate(job["config"], stdout)
    return None
