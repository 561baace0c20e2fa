import gzip
import io
import json
import random
import time
from pathlib import Path

import pytest

from relhyp import cayley
from relhyp.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_UNSUPPORTED,
    Reporter,
    build_group,
    main,
    parse_config,
    run,
)
from relhyp.errors import SchemaError

FAB_REL_A = """
[group]
family = free
symbols = a b

[peripherals]
0 = cyclic-generator a

[subgroups]
Q = a
R = b
Q' = a a
R' = b b
P0 = a

[paths]
nodes = 1 ; a a a a a ; a a a a a a a a a a

[params]
theta = 5
u = 1
v = a a a b a a
g = b a
factors = Q R
radius = 6
B = 2
C = 2
A = 2
P-abelian = 1
"""

# g conjugates a^-60 against <b^-1 a^-1 b^-1>^2 at cap 5: a separate-scan job
SEPARATE_SCAN = """
[group]
family = free
symbols = a b

[subgroups]
H0 = b^-1 a^-1 b^-1
H1 = b^-1 a^-1 b^-1

[params]
factors = H0 H1
g = a b^-1 a^-60 b a^-1
cap = 5
"""

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"

Z2Z = """
[group]
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

[params]
u = 1
v = x y t x
"""

AMALGAM = """
[group]
family = amalgam
left = B
right = C
edge = : ; b b : c c c

[factor B]
family = finite-cyclic
order = 4
symbol = b

[factor C]
family = finite-cyclic
order = 6
symbol = c

[params]
w = b b c c c
g = c b
kind = BC
"""

FREE_ABELIAN = """
[group]
family = free-abelian
symbols = a b
"""

# a^5 against one factor, cap 4: only the degree-10 basepoint completion separates
A5_COMPLETION = (
    "[group]\nfamily = free\nsymbols = a b\n"
    "[subgroups]\nH0 = a a b^-1 b^-1 | a b b b b\n"
    "[params]\ng = a a a a a\nfactors = H0\ncap = 4\n"
)

# Two peripherals, the second not abelian: C5 fails at P1 with witness a,
# whatever a leftover P-abelian key says (it is ignored)
C5_TWO_PERIPHERALS = (
    "[group]\nfamily = free\nsymbols = a b\n"
    "[peripherals]\n0 = cyclic-generator a\n"
    "[subgroups]\nQ = a | b a b^-1\nQ' = a\nR = b a b^-1\nR' = b a b^-1\n"
    "P0 = a\nP1 = a | b a b^-1\n"
    "[params]\nradius = 4\nC = 2\nconditions = C5\n"
)


def run_lines(cfg_text, command, **kw):
    cfg = parse_config(cfg_text)
    buf = io.StringIO()
    rep = Reporter(buf, timing_enabled=False)
    run(cfg, command, rep, **kw)
    lines = [json.loads(l) for l in buf.getvalue().splitlines()]
    return lines, rep.any_failed


class TestConfigParsing:
    def test_sections_and_comments(self):
        cfg = parse_config("# top\n[a]\nx = 1 # tail\n[b c]\ny = z w\n")
        assert cfg == {"a": {"x": "1"}, "b c": {"y": "z w"}}

    def test_bad_line(self):
        with pytest.raises(SchemaError):
            parse_config("[a]\nnonsense\n")

    def test_group_families(self):
        g = build_group(parse_config(FAB_REL_A))
        assert g.base.symbols == ("a", "b")
        assert len(g.peripherals) == 1
        amg = build_group(parse_config(AMALGAM))
        assert amg.base.x_length(amg.base.identity()) == 0


class TestCommands:
    def test_shortcut_fixture(self):
        lines, failed = run_lines(FAB_REL_A, "shortcut")
        assert not failed
        assert lines[0]["verdict"]["V"] == [[0, 0], [2, 2]]

    def test_rel_dist(self):
        lines, _ = run_lines(FAB_REL_A, "rel-dist")
        assert lines[0]["verdict"] == 3

    def test_minx_empty_is_inf(self):
        cfg = FAB_REL_A + "\n[set]\nelements =\n"
        lines, _ = run_lines(cfg, "minx")
        assert lines[0]["verdict"] == "+inf"

    def test_separate_replayable(self):
        lines, _ = run_lines(FAB_REL_A, "separate")
        cert = lines[0]["verdict"]
        assert set(cert) == {"degree", "generator_images"}
        # replay: the certificate separates by direct image computation
        from relhyp import FreeGroup, word_to_elem
        from relhyp.separability import RationalSubset, verify_separation
        from relhyp.separability.quotients import FiniteQuotient

        F = FreeGroup(("a", "b"))
        q = FiniteQuotient(
            F, cert["degree"], tuple(tuple(p) for p in cert["generator_images"])
        )
        target = RationalSubset(
            F, (), ((word_to_elem("a", F),), (word_to_elem("b", F),))
        )
        assert verify_separation(q, word_to_elem("b a", F), target)

    def test_check_conditions_all(self):
        cfg = FAB_REL_A + "\n"
        lines, failed = run_lines(cfg, "check-conditions")
        assert not failed
        by_cond = {l["inputs"]["condition"]: l["verdict"] for l in lines}
        assert by_cond["C1"] == "holds"
        assert by_cond["C5"] == "vacuous"

    def test_conditions_failure_flag(self):
        cfg = FAB_REL_A.replace("B = 2", "B = 99")
        lines, failed = run_lines(cfg, "check-conditions")
        assert failed
        c2 = [l for l in lines if l["inputs"]["condition"] == "C2"][0]
        assert c2["verdict"] == "fails" and c2["witness"]

    def test_tails_in_index_order(self):
        """C2-m's j-th product reads the tails T_1..T_j in index order, so
        T10 comes after T2.  Here the order decides the verdict: tails a, a b
        hold, and a b, a fail with witness a."""
        cfg = (
            "[group]\nfamily = free\nsymbols = a b\n"
            "[subgroups]\nQ = a\nR = b\nQ' = a a\nR' = b b\n%s"
            "[params]\nradius = 5\nB = 2\nconditions = C2-m\n"
        )
        lines, failed = run_lines(cfg % "T1 = a\nT2 = a b\n", "check-conditions")
        assert not failed
        swapped, failed = run_lines(cfg % "T1 = a b\nT2 = a\n", "check-conditions")
        assert failed and swapped[0]["witness"] == "a"
        assert run_lines(cfg % "T10 = a b\nT2 = a\n", "check-conditions") == (lines, False)

    def test_amalgam_commands(self):
        lines, _ = run_lines(AMALGAM, "amalgam-reduce")
        assert lines[0]["verdict"]["length"] == 0
        lines, _ = run_lines(AMALGAM, "amalgam-member")
        assert lines[0]["verdict"] is False

    def test_free_product_config(self):
        lines, _ = run_lines(Z2Z, "rel-dist")
        assert lines[0]["verdict"] == 3
        lines, _ = run_lines(Z2Z, "geodesic")
        assert lines[0]["verdict"]["length"] == 3
        assert lines[0]["verdict"]["labels"][0].startswith("h:0:")

    @pytest.mark.parametrize(
        "command",
        [
            "ball", "rel-dist", "geodesic", "gromov", "delta", "components",
            "backtracking", "shortcut", "tamable", "verify-shortcut",
            "minimize-type", "check-conditions", "minx", "stallings",
            "member", "product-member", "separate", "minx-harness",
        ],
    )
    def test_all_free_group_commands(self, command):
        cfg = FAB_REL_A + (
            "\n[paths]\npath = x:b h:0:a,a x:b\n"
            "\n[set]\nelements = a a a ; b b\n"
            "\n[params]\nx = a\ny = b\nz = a b\nzeta = 10\nsubgroup = Q\n"
            "lambda = 2\nc = 4\neta = 0\nradius = 4\nconditions = C1\nC = 1\n"
        )
        lines, _ = run_lines(cfg, command, radius=4)
        assert lines, command

    @pytest.mark.parametrize("command", ["amalgam-reduce", "amalgam-member"])
    def test_all_amalgam_commands(self, command):
        lines, _ = run_lines(AMALGAM, command)
        assert lines, command

    def test_every_report_has_schema_fields(self):
        for command in ("ball", "geodesic", "gromov", "delta", "stallings", "member"):
            cfg = FAB_REL_A + "\n[params]\nx = a\ny = b\nz = a b\nsubgroup = Q\nradius = 2\n"
            # NOTE: parse_config merges duplicate sections; later keys win
            lines, _ = run_lines(cfg, command, radius=2)
            for line in lines:
                assert set(line) == {
                    "command", "inputs", "verdict", "witness", "caveats", "timing",
                }
                assert line["timing"] is None


class TestMainExitCodes:
    def _write(self, tmp_path, text):
        p = tmp_path / "cfg.txt"
        p.write_text(text)
        return str(p)

    def test_ok(self, tmp_path, capsys):
        cfg = self._write(tmp_path, FAB_REL_A)
        assert main(["--config", cfg, "--command", "rel-dist"]) == EXIT_OK

    def test_segments_form_matches_nodes_form(self, tmp_path, capsys):
        """A broken line written as its segments reports as it does written
        as its nodes, in bytes and exit code: x:b, two h edges in the coset
        b<a> (an adjacent backtracking), then x:b."""
        forms = ("nodes = 1 ; b ; b a a a a a ; b a a a ; b a a a b",
                 "segments = x:b | h:0:a,a,a,a,a | h:0:a^-1,a^-1 | x:b")
        runs = {}
        for command in ("backtracking", "shortcut", "tamable", "verify-shortcut"):
            for form in forms:
                cfg = self._write(tmp_path, FAB_REL_A.replace(
                    "nodes = 1 ; a a a a a ; a a a a a a a a a a", form
                ) + "\n[params]\nzeta = 1\nlambda = 4\nc = 10\n")
                code = main(["--config", cfg, "--command", command])
                runs.setdefault(command, []).append((code, capsys.readouterr().out))
            assert runs[command][0] == runs[command][1], command
        backtracking = json.loads(runs["backtracking"][0][1])["verdict"]
        assert backtracking == [{"kind": "adjacent", "nu": 0, "segments": [1, 2]}]

    def test_check_failed(self, tmp_path, capsys):
        cfg = self._write(tmp_path, FAB_REL_A.replace("B = 2", "B = 99"))
        assert main(["--config", cfg, "--command", "check-conditions"]) == EXIT_CHECK_FAILED

    def test_schema(self, tmp_path, capsys):
        cfg = self._write(tmp_path, FAB_REL_A)
        assert main(["--config", cfg, "--command", "bogus"]) == EXIT_SCHEMA

    def test_budget(self, tmp_path, capsys):
        cfg = self._write(tmp_path, FAB_REL_A)
        assert (
            main(["--config", cfg, "--command", "ball", "--radius", "9", "--budget", "10"])
            == EXIT_BUDGET
        )

    def test_budget_stops_free_ball_of_radius_13(self, tmp_path, capsys):
        # F(a, b) at radius 13 has 3,188,645 vertices, over the default budget
        cfg = self._write(tmp_path, FAB_REL_A)
        assert main(["--config", cfg, "--command", "ball", "--radius", "13"]) == EXIT_BUDGET
        assert "budget" in capsys.readouterr().err

    def test_budget_admits_free_ball_exactly(self, tmp_path, capsys):
        # F(a, b) at radius 9 has 39,365 vertices
        cfg = self._write(tmp_path, FAB_REL_A)
        argv = ["--config", cfg, "--command", "ball", "--radius", "9", "--budget"]
        assert main(argv + ["39365"]) == EXIT_OK
        assert main(argv + ["39364"]) == EXIT_BUDGET
        assert "39364-element budget" in capsys.readouterr().err

    def test_free_ball_and_delta_build_no_word(self, tmp_path, capsys, monkeypatch):
        # both answer from the closed-form level sizes: with the tree walk
        # broken they still print the same bytes
        def walk(*args):
            raise AssertionError("a free ball's words were built")

        monkeypatch.setattr(cayley, "_free_levels", walk)
        cfg = self._write(tmp_path, FAB_REL_A)
        assert main(["--config", cfg, "--command", "ball", "--radius", "9"]) == EXIT_OK
        assert main(["--config", cfg, "--command", "delta", "--radius", "4"]) == EXIT_OK
        assert capsys.readouterr().out == (
            '{"caveats": [], "command": "ball", "inputs": {"radius": 9}, "timing": null,'
            ' "verdict": {"max_distance": 9, "vertices": 39365}, "witness": null}\n'
            '{"caveats": ["measured over 682640 vertex triples of the radius-4 ball"],'
            ' "command": "delta", "inputs": {"c0": 0, "radius": 4}, "timing": null,'
            ' "verdict": {"c1": 1, "c2": 10, "c3": 20, "delta": 0}, "witness": null}\n'
        )

    def test_ball_on_a_rank_0_free_base(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "[group]\nfamily = free\nsymbols =\n")
        assert main(["--config", cfg, "--command", "ball", "--radius", "3"]) == EXIT_OK
        line = json.loads(capsys.readouterr().out)
        assert line["verdict"] == {"vertices": 1, "max_distance": 0}

    def test_ball_reports_the_last_level_reached(self, tmp_path, capsys):
        # Z/4 is its own radius-2 ball, so radius 6 reaches distance 2 only
        cfg = self._write(tmp_path, "[group]\nfamily = finite-cyclic\norder = 4\nsymbol = b\n")
        assert main(["--config", cfg, "--command", "ball", "--radius", "6"]) == EXIT_OK
        line = json.loads(capsys.readouterr().out)
        assert line["verdict"] == {"vertices": 4, "max_distance": 2}

    def test_unsupported(self, tmp_path, capsys):
        cfg = self._write(tmp_path, FAB_REL_A + "\n[params]\nkind = BC\n")
        code = main(["--config", cfg, "--command", "amalgam-reduce"])
        assert code == EXIT_UNSUPPORTED

    def test_budget_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RELHYP_BUDGET", "10")
        cfg = self._write(tmp_path, FAB_REL_A)
        assert main(["--config", cfg, "--command", "ball", "--radius", "9"]) == EXIT_BUDGET

    @pytest.mark.parametrize("command",
                             ["ball", "delta", "check-conditions", "minimize-type", "separate"])
    def test_budget_zero_is_honoured(self, tmp_path, capsys, command):
        cfg = self._write(tmp_path, FAB_REL_A)
        argv = ["--config", cfg, "--command", command, "--radius", "2", "--budget", "0"]
        assert main(argv) == EXIT_BUDGET

    def test_budget_bounds_delta_triples(self, tmp_path, capsys):
        # Z^2 at radius 5: 61 vertices fit the budget, their C(61, 3) = 35,990
        # triples do not
        cfg = self._write(tmp_path, FREE_ABELIAN)
        start = time.perf_counter()
        argv = ["--config", cfg, "--command", "delta", "--radius", "5", "--budget", "1000"]
        assert main(argv) == EXIT_BUDGET
        assert time.perf_counter() - start < 1.0
        assert "triples" in capsys.readouterr().err
        argv = ["--config", cfg, "--command", "delta", "--radius", "3", "--budget", "100000"]
        assert main(argv) == EXIT_OK

    def test_parser_keeps_no_state_between_calls(self, tmp_path, capsys):
        # the parser is built once per process: a call without --budget,
        # --radius, --seed and --out reads their defaults, whatever the call
        # before it passed
        cfg = self._write(tmp_path, FREE_ABELIAN + "[params]\nradius = 2\n")
        argv = ["--config", cfg, "--command", "delta"]
        assert main(argv) == EXIT_OK
        plain = capsys.readouterr().out
        assert json.loads(plain)["inputs"]["radius"] == 2
        out = tmp_path / "d.jsonl"
        flags = ["--radius", "5", "--budget", "1000", "--seed", "3", "--out", str(out)]
        assert main(argv + flags) == EXIT_BUDGET
        assert "triples" in capsys.readouterr().err
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == plain

    def test_failed_run_keeps_an_existing_report(self, tmp_path, capsys):
        # --out is written only when the run completes: exit 3 (budget) and
        # exit 4 (schema) leave the report of an earlier run byte-identical
        cfg = self._write(tmp_path, FREE_ABELIAN + "[params]\nradius = 2\n")
        out = tmp_path / "d.jsonl"
        argv = ["--config", cfg, "--out", str(out)]
        assert main(argv + ["--command", "delta"]) == EXIT_OK
        report = out.read_bytes()
        assert json.loads(report)["verdict"]["delta"] is not None
        failing = [(["--command", "delta", "--radius", "5", "--budget", "1000"], EXIT_BUDGET),
                   (["--command", "bogus"], EXIT_SCHEMA)]
        for flags, code in failing:
            assert main(argv + flags) == code
            assert out.read_bytes() == report
        missing = tmp_path / "none.jsonl"
        assert main(["--config", cfg, "--out", str(missing), "--command", "bogus"]) == EXIT_SCHEMA
        assert not missing.exists()

    def test_bad_flag_exits_2(self, tmp_path, capsys):
        cfg = self._write(tmp_path, FAB_REL_A)
        for argv in (["--config", cfg, "--command", "rel-dist", "--budget", "x"],
                     ["--command", "rel-dist"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().err.startswith("usage: relhyp ")
        assert main(["--config", cfg, "--command", "rel-dist"]) == EXIT_OK

    def test_budget_admits_free_delta(self, tmp_path, capsys):
        # a free ball is answered without a scan: F(a, b) at radius 5 has 485
        # vertices, within the budget, and C(485, 3) triples, far past it
        cfg = self._write(tmp_path, FAB_REL_A)
        out = tmp_path / "d.jsonl"
        argv = ["--config", cfg, "--command", "delta", "--radius", "5", "--budget", "1000"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["verdict"]["delta"] == 0

    def test_budget_bounds_minx_harness_ball(self, tmp_path, capsys):
        # C = 2: the outsiders come from the radius-1 ball of F2 (5 vertices),
        # and the product search that re-checks the bound to radius 4 stores
        # 6 states, the start included, up to its first hit
        cfg = self._write(tmp_path, FAB_REL_A)
        argv = ["--config", cfg, "--command", "minx-harness"]
        assert main(argv + ["--budget", "5"]) == EXIT_BUDGET
        assert "budget" in capsys.readouterr().err
        assert main(argv) == EXIT_OK

    def test_budget_bounds_minx_harness_search(self, tmp_path, capsys):
        # the budget bounds both: 4 stops the outsider ball, 5 admits it but
        # stops the search, and 6 admits both and changes nothing
        cfg = self._write(tmp_path, FAB_REL_A)
        argv = ["--config", cfg, "--command", "minx-harness"]
        assert main(argv + ["--budget", "4"]) == EXIT_BUDGET
        assert "4-element budget" in capsys.readouterr().err
        assert main(argv + ["--budget", "5"]) == EXIT_BUDGET
        assert "5-state budget" in capsys.readouterr().err
        plain, bounded = tmp_path / "plain.jsonl", tmp_path / "bounded.jsonl"
        assert main(argv + ["--out", str(plain)]) == EXIT_OK
        assert main(argv + ["--budget", "6", "--out", str(bounded)]) == EXIT_OK
        assert bounded.read_bytes() == plain.read_bytes()

    def test_budget_bounds_separate(self, tmp_path, capsys):
        # the separate-scan shape: g conjugates a^-60, trivial in every S_n
        # with n <= 5, so at cap 5 the search ends not-found after trying
        # all 263 candidates, the S_5 scan included
        cfg = self._write(tmp_path, SEPARATE_SCAN)
        argv = ["--config", cfg, "--command", "separate"]
        assert main(argv + ["--budget", "1"]) == EXIT_BUDGET
        assert "1-candidate budget" in capsys.readouterr().err
        assert main(argv + ["--budget", "262"]) == EXIT_BUDGET
        plain, bounded = tmp_path / "plain.jsonl", tmp_path / "bounded.jsonl"
        assert main(argv + ["--out", str(plain)]) == EXIT_OK
        assert main(argv + ["--budget", "263", "--out", str(bounded)]) == EXIT_OK
        assert bounded.read_bytes() == plain.read_bytes()
        assert json.loads(plain.read_text())["verdict"] == "not-found"

    def test_seed_changes_no_report(self, tmp_path, capsys):
        # every search is deterministic: --seed still parses and is ignored,
        # so each pinned job that passes it gives its pinned report under any seed
        with gzip.open(REFERENCE / "separability.json.gz", "rt") as fh:
            entries = [e for e in json.load(fh)["entries"] if "--seed" in e["args"]]
        assert len(entries) == 144
        cfg = tmp_path / "job.cfg"
        for entry in entries:
            cfg.write_text(entry["config"])
            i = entry["args"].index("--seed")
            for seed in ("0", "99"):
                args = entry["args"][:i + 1] + [seed] + entry["args"][i + 2:]
                rc = main(["--config", str(cfg), "--command", entry["command"]] + args)
                assert (rc, capsys.readouterr().out) == (entry["exit"], entry["stdout"]), entry["id"]

    def test_budget_bounds_check_conditions_balls(self, tmp_path, capsys):
        # no check enumerates a ball: the budget caps the walks of folded
        # graphs and the product searches.  At radius 2 the most is stored by
        # P1 at radius 4: the 33 reduced walks of <a^2, b^2>, within 161
        cfg = self._write(tmp_path, FAB_REL_A)
        argv = ["--config", cfg, "--command", "check-conditions"]
        assert main(argv + ["--budget", "5"]) == EXIT_BUDGET
        argv += ["--radius", "2"]
        assert main(argv + ["--budget", "17"]) == EXIT_BUDGET
        assert "budget" in capsys.readouterr().err
        plain, bounded = tmp_path / "plain.jsonl", tmp_path / "bounded.jsonl"
        code = main(argv + ["--out", str(plain)])
        assert main(argv + ["--budget", "161", "--out", str(bounded)]) == code
        assert bounded.read_bytes() == plain.read_bytes()

    def test_budget_bounds_minimize_type(self, tmp_path, capsys):
        # max-len 2: the candidate ball of F2 has 17 vertices
        cfg = self._write(tmp_path, FAB_REL_A + "max-len = 2\n")
        argv = ["--config", cfg, "--command", "minimize-type"]
        assert main(argv + ["--budget", "5"]) == EXIT_BUDGET
        assert "budget" in capsys.readouterr().err
        assert main(argv + ["--budget", "17"]) == EXIT_BUDGET  # the search
        assert "node" in capsys.readouterr().err
        plain, bounded = tmp_path / "plain.jsonl", tmp_path / "bounded.jsonl"
        assert main(argv + ["--out", str(plain)]) == EXIT_OK
        assert main(argv + ["--budget", "100000", "--out", str(bounded)]) == EXIT_OK
        assert bounded.read_bytes() == plain.read_bytes()

    def test_budget_env_not_an_integer(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RELHYP_BUDGET", "abc")
        cfg = self._write(tmp_path, FAB_REL_A)
        assert main(["--config", cfg, "--command", "ball", "--radius", "2"]) == EXIT_SCHEMA
        assert "schema error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "base,letter",
        [(Z2Z, "x"), (AMALGAM, "b"), (FREE_ABELIAN, "a")],
        ids=["free-product", "amalgam", "free-abelian"],
    )
    @pytest.mark.parametrize(
        "command", ["stallings", "member", "product-member", "separate", "minx-harness"]
    )
    def test_free_group_command_on_other_base(self, tmp_path, capsys, base, letter, command):
        cfg = self._write(tmp_path, base + (
            "\n[subgroups]\nQ = {0}\nR = {0} {0}\n"
            "\n[params]\ng = {0} {0} {0}\nfactors = Q R\nC = 2\n".format(letter)
        ))
        assert main(["--config", cfg, "--command", command]) == EXIT_UNSUPPORTED
        assert "unsupported family" in capsys.readouterr().err

    def test_timing_env_enables_timing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RELHYP_TIMING", "1")
        cfg = self._write(tmp_path, FAB_REL_A)
        out = tmp_path / "t.jsonl"
        assert main(["--config", cfg, "--command", "rel-dist", "--out", str(out)]) == EXIT_OK
        line = json.loads(out.read_text())
        assert isinstance(line["timing"], int)

    def test_separate_four_factors(self, tmp_path, capsys):
        cfg = self._write(tmp_path, FAB_REL_A.replace("factors = Q R", "factors = Q' R' Q' R'"))
        out = tmp_path / "s.jsonl"
        rc = main(["--config", cfg, "--command", "separate", "--seed", "1", "--out", str(out)])
        assert rc in (EXIT_OK, EXIT_CHECK_FAILED)
        cert = json.loads(out.read_text())["verdict"]
        if rc == EXIT_OK:
            from relhyp import FreeGroup, word_to_elem
            from relhyp.separability import RationalSubset, verify_separation
            from relhyp.separability.quotients import FiniteQuotient

            F = FreeGroup(("a", "b"))
            q = FiniteQuotient(
                F, cert["degree"], tuple(tuple(p) for p in cert["generator_images"])
            )
            gens = tuple((word_to_elem(x, F),) for x in ("a a", "b b", "a a", "b b"))
            target = RationalSubset(F, (), gens)
            assert verify_separation(q, word_to_elem("b a", F), target)

    @pytest.mark.parametrize(
        "base,old,new,command",
        [
            (FAB_REL_A, "symbols = a b", "symbols = a a", "rel-dist"),
            (FAB_REL_A, "symbols = a b\n", "", "rel-dist"),
            (FAB_REL_A, "B = 2", "B = two", "check-conditions"),
            (FAB_REL_A, "[paths]\n", "[paths]\npath = x:b h:1:a\n", "components"),
            (FAB_REL_A, "v = a a a b a a", "v = z", "rel-dist"),
            (Z2Z, "factors = A B\n", "", "rel-dist"),
            (AMALGAM, "edge = : ; b b : c c c\n", "", "amalgam-reduce"),
            (AMALGAM, "edge = : ; b b : c c c", "edge = b b : c c c", "amalgam-reduce"),
            (FAB_REL_A, "0 = cyclic-generator a", "0 =", "rel-dist"),
            (FAB_REL_A, "0 = cyclic-generator a", "0 = cyclic-generator", "rel-dist"),
            (Z2Z, "0 = free-factor 0", "0 = free-factor x", "rel-dist"),
            (FAB_REL_A, "radius = 6", "radius = -1", "ball"),
            (FAB_REL_A, "radius = 6", "radius = -1", "check-conditions"),
            (FAB_REL_A, "theta = 5", "theta = -5", "shortcut"),
            (AMALGAM, "kind = BC", "kind = XX", "amalgam-member"),
            (FAB_REL_A, "[paths]\n", "[paths]\npath = x:b h:0:b\n", "components"),
            (FAB_REL_A, "nodes = 1 ; a a a a a ; a a a a a a a a a a", "segments = x:a x:a",
             "shortcut"),
            (FAB_REL_A, "u = 1\n", "u = 1\nx = a\ny = b\nz = 1\nmetric = wrod\n", "gromov"),
        ],
        ids=["duplicate-symbols", "missing-symbols", "non-integer-B",
             "unknown-peripheral", "unknown-letter", "free-product-without-factors",
             "amalgam-without-edge", "edge-without-identity", "empty-peripheral",
             "cyclic-generator-without-letter", "free-factor-not-an-index",
             "negative-radius-ball", "negative-radius-conditions", "negative-theta",
             "unknown-amalgam-kind", "h-label-outside-peripheral", "non-geodesic-segment",
             "unknown-gromov-metric"],
    )
    def test_malformed_config_is_schema_error(self, tmp_path, capsys, base, old, new, command):
        assert old in base
        cfg = self._write(tmp_path, base.replace(old, new))
        assert main(["--config", cfg, "--command", command]) == EXIT_SCHEMA
        assert "schema error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "base,commands",
        [
            (FAB_REL_A, ["rel-dist", "geodesic", "ball", "shortcut", "stallings", "member",
                         "product-member"]),
            (Z2Z, ["rel-dist", "geodesic", "ball"]),
            (AMALGAM, ["amalgam-reduce", "amalgam-member", "ball"]),
        ],
        ids=["free", "free-product", "amalgam"],
    )
    def test_mutated_config_exits_with_a_contract_code(self, tmp_path, capsys, base, commands):
        """Drop or corrupt one key at a time: every run ends in a documented exit code."""
        rng = random.Random(0)
        junk = ["", "x", "-3", "0", "1 2", "a ^ b", ":", "h:0:"]
        tokens = base.split() + ["-1", "^-1", ";", "|", ":", ","]
        lines = base.splitlines()
        mutants = []
        for i, line in enumerate(lines):
            if "=" in line:
                key = line.partition("=")[0]
                mutants.append(lines[:i] + lines[i + 1:])
                values = junk + [" ".join(rng.choices(tokens, k=rng.randint(1, 4)))
                                 for _ in range(4)]
                for value in values:
                    mutants.append(lines[:i] + [key + "= " + value] + lines[i + 1:])
        bad = []
        for mutant in mutants:
            cfg = self._write(tmp_path, "\n".join(mutant) + "\n")
            for command in commands:
                argv = ["--config", cfg, "--command", command, "--budget", "5000"]
                try:
                    rc = main(argv)
                except Exception as e:  # a traceback is itself a contract breach
                    rc = repr(e)
                if rc not in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_BUDGET, EXIT_SCHEMA,
                              EXIT_UNSUPPORTED):
                    bad.append((command, "\n".join(mutant), rc))
        assert not bad, "%d runs broke the exit-code contract; first: %r" % (len(bad), bad[0])

    @pytest.mark.parametrize("order", [1, 0, -3])
    @pytest.mark.parametrize("command", ["ball", "delta", "geodesic", "shortcut"])
    def test_degenerate_cyclic_order(self, tmp_path, capsys, order, command):
        """Z/1 has no generator and runs; an order below 1 is a schema error."""
        cfg = self._write(tmp_path, (
            "[group]\nfamily = finite-cyclic\norder = %d\nsymbol = g\n"
            "[paths]\nnodes = 1 ; 1\n"
            "[params]\nu = 1\nv = 1\ntheta = 1\nradius = 2\n" % order
        ))
        rc = main(["--config", cfg, "--command", command])
        assert rc == (EXIT_OK if order == 1 else EXIT_SCHEMA)

    def test_check_conditions_radius_zero(self, tmp_path, capsys):
        cfg = self._write(tmp_path, FAB_REL_A)
        out = tmp_path / "c.jsonl"
        main(["--config", cfg, "--command", "check-conditions", "--radius", "0",
              "--out", str(out)])
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines and all(l["inputs"]["radius"] == 0 for l in lines)

    def test_separate_single_factor_completion(self, tmp_path, capsys):
        """The degree-10 basepoint completion separates a^5 from one factor
        whose image closure in S_10 passes the closure budget; it is accepted
        with no --budget, and the orbit of the point 0 under the factor's
        images, found here by breadth-first search, misses the image of g."""
        cfg = self._write(tmp_path, A5_COMPLETION)
        out = tmp_path / "s.jsonl"
        assert main(["--config", cfg, "--command", "separate", "--out", str(out)]) == EXIT_OK
        cert = json.loads(out.read_text())["verdict"]
        images = [tuple(p) for p in cert["generator_images"]]
        assert all(sorted(p) == list(range(cert["degree"])) for p in images)

        def act(point, letters):  # letter i is generator i, -i its inverse
            for x in letters:
                p = images[abs(x) - 1]
                point = p[point] if x > 0 else p.index(point)
            return point

        gens = [(1, 1, -2, -2), (1, 2, 2, 2, 2)]
        gens += [tuple(-x for x in reversed(h)) for h in gens]
        orbit, frontier = {0}, {0}
        while frontier:
            frontier = {act(pt, h) for pt in frontier for h in gens} - orbit
            orbit |= frontier
        assert act(0, (1, 1, 1, 1, 1)) not in orbit

    def test_separate_from_empty_product(self, tmp_path, capsys):
        # no factors: the target is {1}, and the sign map on a separates a
        cfg = self._write(tmp_path, "[group]\nfamily = free\nsymbols = a b\n"
                          "[params]\ng = a\ncap = 4\n")
        out = tmp_path / "s.jsonl"
        assert main(["--config", cfg, "--command", "separate", "--out", str(out)]) == EXIT_OK
        cert = json.loads(out.read_text())["verdict"]
        assert cert["degree"] == 2 and cert["generator_images"][0] == [1, 0]

    def test_separate_element_of_target(self, tmp_path, capsys):
        cfg = self._write(tmp_path, FAB_REL_A.replace("g = b a", "g = a a b"))
        out = tmp_path / "s.jsonl"
        rc = main(["--config", cfg, "--command", "separate", "--out", str(out)])
        assert rc == EXIT_CHECK_FAILED
        line = json.loads(out.read_text())
        assert line["verdict"] == "in-target" and line["witness"] == "a a b"
        assert line["caveats"]

    def test_separate_decides_membership_once(self, tmp_path, monkeypatch):
        """One target membership test per separate run, on the a^5 completion
        config and on an element of the target."""
        from relhyp.separability import RationalSubset

        calls = []
        contains = RationalSubset.contains

        def counted(self, g):
            calls.append(g)
            return contains(self, g)

        monkeypatch.setattr(RationalSubset, "contains", counted)
        configs = [
            (A5_COMPLETION, EXIT_OK),
            (FAB_REL_A.replace("g = b a", "g = a a b"), EXIT_CHECK_FAILED),
        ]
        for text, rc in configs:
            calls.clear()
            cfg = self._write(tmp_path, text)
            out = tmp_path / "s.jsonl"
            assert main(["--config", cfg, "--command", "separate", "--out", str(out)]) == rc
            assert len(calls) == 1

    @pytest.mark.parametrize("declared", ["", "P-abelian = 1\n", "P-abelian = 1 1\n"])
    def test_c5_reads_abelian_peripherals_from_the_fold(self, tmp_path, capsys, declared):
        cfg = self._write(tmp_path, C5_TWO_PERIPHERALS + declared)
        assert main(["--config", cfg, "--command", "check-conditions"]) == EXIT_CHECK_FAILED
        line = json.loads(capsys.readouterr().out)
        assert (line["verdict"], line["witness"]) == ("fails", "a")

    def test_check_conditions_folds_each_tuple_once(self, tmp_path, capsys, monkeypatch):
        """No generator tuple reaches the fold twice in one run of all ten
        conditions: every caller reads the graph memoised on the group."""
        import sys

        from relhyp.separability import stallings

        folded = []
        assemble = stallings._assemble

        def counted(rank, n, edges):
            caller = sys._getframe(1)
            if caller.f_code is stallings._fold.__wrapped__.__code__:
                folded.append((caller.f_locals["G"].symbols, caller.f_locals["gens"]))
            return assemble(rank, n, edges)

        monkeypatch.setattr(stallings, "_assemble", counted)
        text = C5_TWO_PERIPHERALS.replace("conditions = C5\n", "").replace(
            "P0 = a\n", "P0 = a\nT1 = b\nU1 = a b a^-1 b^-1\n")
        cfg = self._write(tmp_path, text)
        assert main(["--config", cfg, "--command", "check-conditions"]) == EXIT_CHECK_FAILED
        assert len(capsys.readouterr().out.splitlines()) == 10
        assert folded and len(folded) == len(set(folded))

    def test_byte_identical_reports(self, tmp_path, capsys):
        cfg = self._write(tmp_path, FAB_REL_A)
        out1 = tmp_path / "r1.jsonl"
        out2 = tmp_path / "r2.jsonl"
        for out in (out1, out2):
            assert (
                main(["--config", cfg, "--command", "separate", "--seed", "5", "--out", str(out)])
                == EXIT_OK
            )
        assert out1.read_bytes() == out2.read_bytes()
