"""Command-line behavior: subcommands, formats, exit codes, streams."""

import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from actrchr import cli
from actrchr.cli import main
from actrchr.modelgen import random_model
from actrchr.parser import print_model

ROOT = Path(__file__).parents[1]


def run_cli(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def broken_model(tmp_path):
    p = tmp_path / "broken.actr"
    p.write_text("type t { s }\nchunk a t {}\n")
    return p


@pytest.fixture()
def invalid_model(tmp_path):
    p = tmp_path / "invalid.actr"
    p.write_text(
        "type t { s }\nchunk a : t {}\nbuffer goal = a\n"
        "rule r { other: t {} ==> modify goal { s: a } }\n"
    )
    return p


class TestParse:
    def test_prints_canonical_form(self, capsys, counting_path, counting_src):
        code, out, err = run_cli(capsys, "parse", counting_path)
        assert code == 0
        assert err == ""
        assert out.startswith("type g { current }")
        assert "rule inc {" in out

    def test_parse_error_goes_to_stderr_with_position(self, capsys, broken_model):
        code, out, err = run_cli(capsys, "parse", broken_model)
        assert code == 1
        assert out == ""
        assert err.startswith(f"{broken_model}:2:")
        assert "expected ':'" in err

    def test_validation_failures_list_diagnostics(self, capsys, invalid_model):
        code, out, err = run_cli(capsys, "parse", invalid_model)
        assert code == 1
        assert "unknown-buffer" in err

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "parse", tmp_path / "nope.actr")
        assert code == 1
        assert err.startswith("error:")

    def test_a_file_that_is_not_utf8_is_an_error_line(self, capsys, tmp_path, counting_src):
        p = tmp_path / "bad.actr"
        p.write_bytes(b"\xff\xfe" + counting_src.encode())
        code, out, err = run_cli(capsys, "parse", p)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {p}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    def test_an_undecodable_byte_after_a_byte_order_mark_is_placed_in_the_file(self, capsys, tmp_path):
        p = tmp_path / "marked.actr"
        p.write_bytes(b"\xef\xbb\xbfab\xff")
        code, out, err = run_cli(capsys, "parse", p)
        assert (code, out) == (1, "")
        assert err == f"error: {p}: 'utf-8' codec can't decode byte 0xff in position 5: invalid start byte\n"

    @pytest.mark.parametrize("source", ["counting", "type t { s } chunk a t {}\n"])
    def test_a_leading_byte_order_mark_is_not_part_of_the_model(
        self, capsys, tmp_path, counting_src, source
    ):
        text = counting_src if source == "counting" else source
        plain, marked = tmp_path / "plain.actr", tmp_path / "marked.actr"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        code, out, err = run_cli(capsys, "parse", marked)
        assert (code, out, err.replace(str(marked), str(plain))) == run_cli(capsys, "parse", plain)
        if source != "counting":
            assert (code, out) == (1, "")
            assert err.startswith(f"{marked}:1:22: expected ':'")

    @pytest.mark.parametrize("command", ["parse", "translate"])
    def test_unwritable_out(self, capsys, tmp_path, counting_path, command):
        target = tmp_path / "no" / "such" / "dir" / "x"
        code, out, err = run_cli(capsys, command, counting_path, "--out", target)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "Traceback" not in err

    def test_unwritable_out_fails_before_the_check_runs(
        self, capsys, monkeypatch, tmp_path, counting_path
    ):
        def never(*args, **kwargs):
            raise AssertionError("the check ran before --out was opened")

        monkeypatch.setattr(cli, "bisim_check", never)
        target = tmp_path / "no" / "such" / "dir" / "x"
        code, out, err = run_cli(capsys, "check", counting_path, "--out", target)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "No such file" in err

    def test_out_flag_writes_a_file(self, capsys, tmp_path, counting_path):
        target = tmp_path / "canonical.actr"
        code, out, _ = run_cli(capsys, "parse", counting_path, "--out", target)
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("type g { current }")


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys, counting_path):
        assert run_cli(capsys, "frobnicate", counting_path)[0] == 2

    def test_missing_model_argument(self, capsys):
        assert run_cli(capsys, "parse")[0] == 2

    def test_negative_depth(self, capsys, counting_path):
        code, _, err = run_cli(capsys, "run", counting_path, "--depth", "-1")
        assert code == 2
        assert "--depth" in err

    def test_unknown_format(self, capsys, counting_path):
        assert run_cli(capsys, "explore", counting_path, "--format", "yaml")[0] == 2

    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("parse", "--seed", "1"),
            ("normalize", "--depth", "2"),
            ("translate", "--fail-request", "stuck"),
            ("run", "--dedup", "exact"),
            ("explore", "--seed", "1"),
            ("explore", "--format", "trace"),
            ("check", "--format", "dot"),
            ("check", "--dedup", "exact"),
        ],
    )
    def test_options_the_subcommand_does_not_read(
        self, capsys, counting_path, command, option, value
    ):
        args = (command, counting_path, option, value, "--out", "-")
        assert run_cli(capsys, *args)[0] == 2


class TestNormalize:
    def test_rules_come_out_slot_complete(self, capsys, tmp_path):
        p = tmp_path / "sparse.actr"
        p.write_text(
            "type t { a, b }\nchunk x : t { a: x, b: x }\nbuffer goal = x\n"
            "rule r { goal: t { a: x } ==> modify goal { a: x } }\n"
        )
        code, out, _ = run_cli(capsys, "normalize", p)
        assert code == 0
        assert "goal: t { a: x, b: V#0 }" in out


class TestRun:
    def test_seeded_trace_lists_labels_and_fingerprints(self, capsys, counting_path):
        code, out, err = run_cli(
            capsys, "run", counting_path, "--seed", "1", "--depth", "2"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("step 1: no -> ")
        assert lines[1].startswith("step 2: apply(inc) -> ")

    def test_trace_stops_at_final_states(self, capsys, counting_path):
        code, out, _ = run_cli(capsys, "run", counting_path, "--depth", "99")
        assert code == 0
        assert len(out.splitlines()) == 5

    def test_same_seed_same_trace(self, capsys, counting_path):
        _, first, _ = run_cli(capsys, "run", counting_path, "--seed", "7")
        _, second, _ = run_cli(capsys, "run", counting_path, "--seed", "7")
        assert first == second


class TestExplore:
    def test_default_format_is_dot(self, capsys, counting_path):
        code, out, _ = run_cli(capsys, "explore", counting_path)
        assert code == 0
        assert out.startswith("digraph")
        assert 'label="apply(inc)"' in out

    def test_text_format_lists_states_and_edges(self, capsys, counting_path):
        code, out, _ = run_cli(capsys, "explore", counting_path, "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert sum(1 for l in lines if l.startswith("state ")) == 6
        assert sum(1 for l in lines if l.startswith("edge ")) == 5
        assert "truncated" not in out

    def test_fresh_style_chunk_id_is_a_parse_error(self, capsys, tmp_path):
        p = tmp_path / "fresh.actr"
        p.write_text(
            "type t { s }\nchunk a : t { s: nil }\nchunk c#0 : t { s: nil }\n"
            "buffer goal = c#0\nrule r { goal: t {} ==> modify goal { s: a } }\n"
        )
        code, out, err = run_cli(capsys, "explore", p)
        assert code == 1
        assert out == ""
        assert err.startswith(f"{p}:3:7: ")

    def test_depth_bound_is_reported(self, capsys, counting_path):
        _, out, _ = run_cli(
            capsys, "explore", counting_path, "--format", "text", "--depth", "1"
        )
        assert "truncated at depth bound" in out


class TestTranslate:
    def test_writes_next_to_the_model_by_default(self, capsys, tmp_path, counting_src):
        model = tmp_path / "counting.actr"
        model.write_text(counting_src)
        code, out, _ = run_cli(capsys, "translate", model)
        assert code == 0
        assert out == ""
        text = (tmp_path / "counting.chr").read_text()
        assert text.splitlines()[0].startswith("inc @ delta(D), gamma(goal,")
        assert text.rstrip().endswith("no @ gamma(B,C,D) <=> D > 0 | gamma(B,C,0).")

    def test_a_default_output_that_is_the_model_is_refused(self, capsys, tmp_path, counting_src):
        model = tmp_path / "cnt.chr"
        model.write_text(counting_src)
        before = model.read_bytes()
        code, out, err = run_cli(capsys, "translate", model)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {model}:") and "--out" in err
        assert err.count("\n") == 1
        assert model.read_bytes() == before

    def test_dash_out_prints_to_stdout(self, capsys, counting_path):
        code, out, _ = run_cli(capsys, "translate", counting_path, "--out", "-")
        assert code == 0
        assert out.rstrip().endswith("no @ gamma(B,C,D) <=> D > 0 | gamma(B,C,0).")


class TestCheck:
    def test_pass_verdict_and_exit_zero(self, capsys, counting_path):
        code, out, _ = run_cli(capsys, "check", counting_path, "--depth", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "PASS"
        assert "verdict: pass" in out

    def test_records_format_is_json_lines(self, capsys, counting_path):
        code, out, _ = run_cli(
            capsys, "check", counting_path, "--depth", "3", "--format", "records"
        )
        assert code == 0
        head = json.loads(out.splitlines()[0])
        assert head["verdict"] == "pass"
        assert head["pairs"] == 4

    def test_a_step_error_is_a_fail_verdict(self, capsys, tmp_path, fresh_ids_restarting):
        # under this fault, corpus model 15 clashes ids in its abstract step
        path = tmp_path / "m15.actr"
        path.write_text(print_model(random_model(random.Random(15))))
        code, out, err = run_cli(capsys, "check", path, "--depth", "4")
        assert (code, err) == (1, "")
        assert out.startswith("FAIL\nverdict: fail")
        assert "error mismatch at depth 1: abstract step raised IdClash" in out

    def test_a_rule_named_no_is_refused(self, capsys, tmp_path, counting_src):
        path = tmp_path / "no.actr"
        path.write_text(counting_src.replace("rule inc {", "rule no {"))
        code, out, err = run_cli(capsys, "check", path, "--depth", "0")
        assert (code, out) == (1, "")
        assert re.fullmatch(r".*no\.actr:\d+:\d+: reserved-rule-name: rule no: .*\n", err)


class TestDeterminism:
    """Byte equality across separate interpreter processes."""

    def invoke(self, *args, hash_seed="0"):
        return subprocess.run(
            [sys.executable, "-m", "actrchr.cli", *map(str, args)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )

    def test_translate_twice_is_byte_identical(self, counting_path):
        a = self.invoke("translate", counting_path, "--out", "-")
        b = self.invoke("translate", counting_path, "--out", "-")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_seeded_run_twice_is_byte_identical(self, counting_path):
        a = self.invoke("run", counting_path, "--seed", "1", "--depth", "2")
        b = self.invoke("run", counting_path, "--seed", "1", "--depth", "2")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout and a.stdout

    @pytest.mark.parametrize(
        "command",
        [
            ("translate", "--out", "-"),
            ("run", "--seed", "1"),
            ("explore",),
            ("check", "--depth", "3", "--format", "records"),
        ],
        ids=lambda c: c[0],
    )
    def test_output_does_not_depend_on_the_hash_seed(self, counting_path, command):
        # names hash by identity, so this also guards every iteration over
        # a set of names
        name, *options = command
        a, b = (self.invoke(name, counting_path, *options, hash_seed=s) for s in "01")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout and a.stdout


def readme_session() -> list[tuple[list[str], list[str]]]:
    """The arguments and printed lines of every ``$ actrchr`` line in the
    README's text blocks."""
    out = []
    for block in re.findall(r"```text\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        for entry in re.split(r"^\$ actrchr ", block, flags=re.M)[1:]:
            command, *lines = entry.rstrip("\n").split("\n")
            out.append((shlex.split(command), lines))
    return out


def test_the_readme_session_is_what_the_command_prints():
    session = readme_session()
    assert [args[0] for args, _ in session] == ["run", "check"]
    for args, lines in session:
        got = subprocess.run(
            [sys.executable, "-m", "actrchr.cli", *args], capture_output=True, text=True, cwd=ROOT
        )
        assert (got.returncode, got.stderr) == (0, "")
        assert got.stdout.splitlines() == lines, " ".join(args)
