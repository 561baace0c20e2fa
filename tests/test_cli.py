import io
import json

import pytest

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
        lines, _ = run_lines(FAB_REL_A, "separate", seed=3)
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

    def test_unsupported(self, tmp_path, capsys):
        cfg = self._write(tmp_path, FAB_REL_A + "\n[params]\nkind = BC\n")
        code = main(["--config", cfg, "--command", "amalgam-reduce"])
        assert code == EXIT_UNSUPPORTED

    def test_budget_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RELHYP_BUDGET", "10")
        cfg = self._write(tmp_path, FAB_REL_A)
        assert main(["--config", cfg, "--command", "ball", "--radius", "9"]) == EXIT_BUDGET

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
        "old,new,command",
        [
            ("symbols = a b", "symbols = a a", "rel-dist"),
            ("symbols = a b\n", "", "rel-dist"),
            ("B = 2", "B = two", "check-conditions"),
            ("[paths]\n", "[paths]\npath = x:b h:1:a\n", "components"),
            ("v = a a a b a a", "v = z", "rel-dist"),
        ],
        ids=["duplicate-symbols", "missing-symbols", "non-integer-B",
             "unknown-peripheral", "unknown-letter"],
    )
    def test_malformed_config_is_schema_error(self, tmp_path, capsys, old, new, command):
        assert old in FAB_REL_A
        cfg = self._write(tmp_path, FAB_REL_A.replace(old, new))
        assert main(["--config", cfg, "--command", command]) == EXIT_SCHEMA
        assert "schema error" in capsys.readouterr().err

    def test_check_conditions_radius_zero(self, tmp_path, capsys):
        cfg = self._write(tmp_path, FAB_REL_A)
        out = tmp_path / "c.jsonl"
        main(["--config", cfg, "--command", "check-conditions", "--radius", "0",
              "--out", str(out)])
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines and all(l["inputs"]["radius"] == 0 for l in lines)

    def test_separate_element_of_target(self, tmp_path, capsys):
        cfg = self._write(tmp_path, FAB_REL_A.replace("g = b a", "g = a a b"))
        out = tmp_path / "s.jsonl"
        rc = main(["--config", cfg, "--command", "separate", "--out", str(out)])
        assert rc == EXIT_CHECK_FAILED
        line = json.loads(out.read_text())
        assert line["verdict"] == "in-target" and line["witness"] == "a a b"
        assert line["caveats"]

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
