"""Command-line interface tests (``python -m repro`` and the harness CLI)."""

import sys

import pytest

from repro.__main__ import main as repro_main
from repro.harness.cli import main as harness_main

KERNEL = """
global A: float[8] = {1.0, 2.0, 3.0, 4.0}
func main(): float {
  var s: float = 0.0
  var i: int = 0
  while (i < 8) { s = s + A[i % 4]; i = i + 1 }
  return s
}
"""


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "kernel.mfl"
    path.write_text(KERNEL)
    return str(path)


class TestReproCli:
    def test_run_baseline(self, kernel_file, capsys):
        assert repro_main(["run", kernel_file]) == 0
        out = capsys.readouterr().out
        assert "result: 20.0" in out
        assert "cycles:" in out

    def test_run_with_stats(self, kernel_file, capsys):
        repro_main(["run", kernel_file, "--variant", "postpass_cg",
                    "--stats"])
        out = capsys.readouterr().out
        assert "instructions:" in out
        assert "CCM loads/stores:" in out

    def test_run_with_args(self, tmp_path, capsys):
        path = tmp_path / "args.mfl"
        path.write_text("func main(a: int, b: float): float "
                        "{ return float(a) * b }")
        repro_main(["run", str(path), "--args", "3", "2.5"])
        assert "result: 7.5" in capsys.readouterr().out

    def test_emit_frontend_stage(self, kernel_file, capsys):
        repro_main(["emit", kernel_file, "--stage", "frontend"])
        out = capsys.readouterr().out
        assert ".func main" in out
        assert "%v" in out  # virtual registers, pre-allocation

    def test_emit_asm_stage_has_no_vregs(self, kernel_file, capsys):
        repro_main(["emit", kernel_file, "--stage", "asm"])
        out = capsys.readouterr().out
        assert "%v" not in out and "%w" not in out

    def test_emit_ccm_variant_emits_ccm_ops(self, tmp_path, capsys):
        lines = ["global A: float[64] = {" +
                 ", ".join(f"{i + 1.0}" for i in range(64)) + "}",
                 "func main(): float {"]
        for i in range(45):
            lines.append(f"  var t{i}: float = A[{i}]")
        lines.append("  return " + " + ".join(f"t{i}" for i in range(45)))
        lines.append("}")
        path = tmp_path / "pressure.mfl"
        path.write_text("\n".join(lines))
        repro_main(["emit", str(path), "--variant", "integrated"])
        assert "ccm" in capsys.readouterr().out

    def test_unknown_variant_rejected(self, kernel_file):
        with pytest.raises(SystemExit):
            repro_main(["run", kernel_file, "--variant", "bogus"])

    @pytest.mark.parametrize("command", ["run", "emit"])
    @pytest.mark.parametrize("source, message", [
        ("func main(): int { return 1 + }", "expected an expression"),
        ("func main(): int { return 1 $ 2 }", "unexpected character"),
        ("func main(): int { return 1.0 }", "expected int, got float"),
    ])
    def test_malformed_source_is_one_line_error(self, tmp_path, capsys,
                                                command, source, message):
        path = tmp_path / "bad.mfl"
        path.write_text(source)
        assert repro_main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro: error: {path}: ")
        assert message in err and err.count("\n") == 1

    def test_missing_file_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "nosuch.mfl"
        assert repro_main(["run", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"repro: error: {path}: No such file or directory\n")


class TestHarnessCli:
    def test_table1_subset(self, capsys):
        assert harness_main(["table1", "--routines", "decomp,urand"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "TOTAL" in out

    def test_table2_subset(self, capsys):
        assert harness_main(["table2", "--routines", "decomp"]) == 0
        out = capsys.readouterr().out
        assert "decomp" in out
        assert "512-byte CCM" in out

    def test_bad_target_rejected(self):
        with pytest.raises(SystemExit):
            harness_main(["table9"])


class TestRangeChecks:
    """Out-of-range arguments end in an argparse usage error that names
    the argument, never a traceback or a silently empty run."""

    @pytest.mark.parametrize("argv, argument", [
        (["harness", "difftest", "--seeds", "-3"], "--seeds"),
        (["harness", "difftest", "--ccm=-64"], "--ccm"),
        (["harness", "table2", "--ccm", "-512"], "--ccm"),
        (["harness", "table2", "--routines", "nosuch"], "--routines"),
        (["harness", "--whole-program", "--routines", "0"], "--routines"),
        (["run", "kernel.mfl", "--args", "x"], "--args"),
        (["run", "kernel.mfl", "--ccm", "-8"], "--ccm"),
        (["emit", "kernel.mfl", "--ccm", "-8"], "--ccm"),
    ])
    def test_usage_error_names_argument(self, argv, argument, capsys):
        with pytest.raises(SystemExit) as info:
            repro_main(argv)
        assert info.value.code == 2
        assert f"argument {argument}" in capsys.readouterr().err

    def test_cache_evict_is_not_an_action(self, capsys):
        # the store has no size budget, so there is nothing to evict to
        with pytest.raises(SystemExit) as info:
            repro_main(["cache", "evict"])
        assert info.value.code == 2
        assert ("argument action: invalid choice: 'evict'"
                in capsys.readouterr().err)
