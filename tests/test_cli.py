"""Command-line contract: subcommands, exit codes, JSON output."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as hst
import pytest

from spectool import _exhaustive, cli, errors, verify
from spectool.cli import MAX_WALKS, main
from spectool.cycles import DEFAULT_BUDGET
from spectool.errors import (
    ConfigurationError,
    EdgeListFormatError,
    Graph6Error,
    InputError,
    SearchBudgetExceededError,
)
from spectool.graph6 import HEADER_LINE, mask_to_graph6
from spectool.verify import (
    ALL_THEOREMS,
    SweepConfig,
    coerce_theorems,
    exhaustive_spectral_audit,
    parse_distribution,
)

CLI = [sys.executable, "-m", "spectool.cli"]


def run_cli(args, stdin_text="", timeout=None):
    return subprocess.run(CLI + args, input=stdin_text, text=True,
                          capture_output=True, timeout=timeout)


def test_gen_complete_3_is_Bw():
    result = run_cli(["gen", "--family", "complete", "--params", "3"])
    assert result.returncode == 0
    assert result.stdout.strip() == "Bw"


def test_gen_bipartite():
    result = run_cli(["gen", "--family", "bipartite", "--params", "2,3"])
    assert result.returncode == 0
    from spectool.families import complete_bipartite
    from spectool.graph6 import from_graph6

    assert from_graph6(result.stdout.strip()) == complete_bipartite(2, 3)


def test_gen_bad_params_exit3():
    assert run_cli(["gen", "--family", "cycle", "--params", "2"]).returncode == 3
    assert run_cli(["gen", "--family", "complete", "--params", "x"]).returncode == 3


@pytest.mark.parametrize("family,params", [
    ("complete", "63"), ("bipartite", "40,40"), ("path", "70")])
def test_gen_above_the_short_form_cap_exit3(family, params):
    result = run_cli(["gen", "--family", family, "--params", params])
    assert result.returncode == 3
    assert result.stdout == ""
    assert "short-form cap 62" in result.stderr
    assert "Traceback" not in result.stderr


def test_gen_rejects_the_order_before_building_the_graph():
    # K_5000's rows alone would take about 3 MB.
    err = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stderr(err):
            code = main(["gen", "--family", "complete", "--params", "5000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and "order 5000" in err.getvalue()
    assert peak < 1 << 20


def test_analyze_k3_from_stdin():
    result = run_cli(["analyze", "--json"], stdin_text="Bw\n")
    assert result.returncode == 0
    reports = json.loads(result.stdout)
    assert len(reports) == 1
    rep = reports[0]
    assert rep["lambda1"] == pytest.approx(2.0, abs=1e-9)
    assert rep["triangles"]["brute"] == 1
    assert rep["spectral_mantel"]["kind"] == "has_triangle"


def test_analyze_pipe_composition():
    gen = run_cli(["gen", "--family", "cycle", "--params", "5"])
    result = run_cli(["analyze", "--json"], stdin_text=gen.stdout)
    rep = json.loads(result.stdout)[0]
    assert rep["lambda1"] == pytest.approx(2.0, abs=1e-9)


def test_analyze_cycles_flag_k33():
    gen = run_cli(["gen", "--family", "bipartite", "--params", "3,3"])
    result = run_cli(["analyze", "--json", "--cycles", "6"],
                     stdin_text=gen.stdout)
    rep = json.loads(result.stdout)[0]
    assert rep["cycles"]["present"] == [4, 6]


def test_analyze_walks_flag():
    result = run_cli(["analyze", "--json", "--walks", "3"], stdin_text="Bw\n")
    rep = json.loads(result.stdout)[0]
    assert rep["walks"]["totals"] == ["3", "6", "12", "24"]


def test_analyze_parse_error_exit2():
    result = run_cli(["analyze"], stdin_text="Bw\n\x02bad\n")
    assert result.returncode == 2
    assert "line 2" in result.stderr


def test_analyze_missing_file_exit2(tmp_path):
    result = run_cli(["analyze", str(tmp_path / "absent.g6")])
    assert result.returncode == 2
    assert "absent.g6" in result.stderr and "Traceback" not in result.stderr


def test_analyze_non_ascii_file_exit2(tmp_path):
    source = tmp_path / "graphs.g6"
    source.write_bytes("Bw\nB\u00e9\n".encode("utf-8"))
    result = run_cli(["analyze", str(source)])
    assert result.returncode == 2
    assert "Traceback" not in result.stderr


def test_analyze_order_zero_exit2():
    result = run_cli(["analyze"], stdin_text="Bw\n?\n")
    assert result.returncode == 2
    assert "line 2" in result.stderr and "Traceback" not in result.stderr


def test_analyze_oversized_edge_list_header_exit2():
    # A 12-byte edge-list header declaring 10^9 vertices is rejected before
    # anything of that size is allocated.
    err = io.StringIO()
    tracemalloc.start()
    try:
        with mock.patch.object(sys, "stdin", io.StringIO("1000000000 0\n")), \
                contextlib.redirect_stderr(err):
            code = main(["analyze", "--json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and err.getvalue().startswith("error: line 1")
    assert peak < 1 << 20


def test_analyze_negative_walks_exit3():
    result = run_cli(["analyze", "--walks", "-1"], stdin_text="Bw\n")
    assert result.returncode == 3
    assert "--walks" in result.stderr and "Traceback" not in result.stderr


def test_analyze_negative_cycles_exit3():
    result = run_cli(["analyze", "--json", "--cycles", "-1"],
                     stdin_text="Bw\n")
    assert result.returncode == 3
    assert result.stdout == ""
    assert "--cycles" in result.stderr and "Traceback" not in result.stderr


@given(hst.one_of(
    hst.tuples(hst.sampled_from(["--walks", "--cycles"]),
               hst.integers(max_value=-1)),
    hst.tuples(hst.just("--walks"), hst.integers(min_value=MAX_WALKS + 1))))
@settings(max_examples=30, deadline=None)
def test_analyze_any_negative_depth_exit3(case):
    # Rejected before any input is read.
    flag, value = case
    assert main(["analyze", f"{flag}={value}"]) == 3


def test_walks_cap_is_the_largest_printable_depth():
    # K_62's total w_K = 62 * 61^K has at most 4,300 digits, Python's limit
    # on int-to-str conversion, up to the cap and not one step beyond.
    assert len(str(62 * 61 ** MAX_WALKS)) <= 4300
    assert 62 * 61 ** (MAX_WALKS + 1) >= 10 ** 4300


def test_analyze_exhausted_cycle_budget_exit3(monkeypatch, capsys, tmp_path):
    def exhausted(g, l_max):
        raise SearchBudgetExceededError(
            f"budget {DEFAULT_BUDGET} exhausted at l=3")

    monkeypatch.setattr(cli, "cycle_spectrum", exhausted)
    source = tmp_path / "graphs.g6"
    source.write_text("Bw\n")
    assert main(["analyze", "--json", "--cycles", "3", str(source)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--cycles" in captured.err and "Bw" in captured.err
    assert str(DEFAULT_BUDGET) in captured.err
    assert "Traceback" not in captured.err


# Printable lines: arbitrary text without control or line-break characters,
# the graph6 header, and valid graph6 strings of small orders (order 0
# included, which analyze rejects).
ANALYZE_LINE = hst.one_of(
    hst.text(hst.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp")),
             max_size=12),
    hst.just(HEADER_LINE),
    hst.integers(0, 8).flatmap(lambda n: hst.integers(
        0, (1 << (n * (n - 1) // 2)) - 1).map(
            lambda mask: mask_to_graph6(n, mask))),
)


@given(hst.lists(ANALYZE_LINE, max_size=4))
@settings(max_examples=80, deadline=None)
def test_analyze_arbitrary_lines_exit_0_or_2(lines):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO("\n".join(lines))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", "--json"])
    assert code in (0, 2), (lines, err.getvalue())
    if code == 0:
        assert isinstance(json.loads(out.getvalue()), list)
    else:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""


def test_analyze_table_output():
    result = run_cli(["analyze"], stdin_text="Bw\n")
    assert result.returncode == 0
    assert "lambda1" in result.stdout


def test_verify_spectral_mantel_small():
    result = run_cli(["verify", "--theorem", "spectral-mantel",
                      "--max-n", "5", "--json"])
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["totals"]["spectral-mantel"]["violated"] == 0
    assert "runtime_ms" not in report


def test_verify_jobs_deterministic_json():
    args = ["verify", "--theorem", "stanley,hong", "--max-n", "5", "--json"]
    rep1 = run_cli(args + ["--jobs", "1"])
    rep2 = run_cli(args + ["--jobs", "4"])
    assert rep1.stdout == rep2.stdout


def test_verify_max_n_9_exit3():
    assert run_cli(["verify", "--max-n", "9"]).returncode == 3


def test_verify_n8_needs_long_run_flag():
    assert run_cli(["verify", "--max-n", "8", "--theorem", "mantel"]
                   ).returncode == 3


def test_verify_unknown_theorem_exit3():
    assert run_cli(["verify", "--theorem", "nonsense"]).returncode == 3


@pytest.mark.parametrize("args", [
    ["fuzz", "--dist", "gnp:8,0.5", "--count", "10", "--theorem", "bogus"],
    ["verify", "--max-n", "4", "--theorem", ""],
])
def test_bad_theorem_id_lists_the_valid_ids(args):
    result = run_cli(args)
    assert result.returncode == 3
    assert "Traceback" not in result.stderr and not result.stdout
    assert all(t.value in result.stderr for t in ALL_THEOREMS)


@pytest.mark.parametrize("args", [
    ["verify", "--max-n", "4"],
    ["verify", "--max-n", "4", "--dedup", "canonical"],
    ["fuzz", "--dist", "gnp:8,0.5", "--count", "10"],
])
def test_repeated_theorem_exit3(args):
    # A repeated id would count each graph twice on the per-graph path.
    result = run_cli(args + ["--theorem", "nosal,nosal", "--json"])
    assert result.returncode == 3
    assert "nosal" in result.stderr and "Traceback" not in result.stderr
    assert not result.stdout


def test_fuzz_deterministic_byte_identical():
    args = ["fuzz", "--dist", "gnp:12,0.4", "--count", "60", "--seed", "7",
            "--theorem", "stanley,thm11,lemma3", "--json"]
    rep1 = run_cli(args)
    rep2 = run_cli(args)
    assert rep1.returncode == 0
    assert rep1.stdout == rep2.stdout


@pytest.mark.parametrize("dist", ["gnp:7,0.9", "gnp:30,0.5"])
def test_fuzz_report_survives_python_O(dist):
    # python -O strips assert statements; a check of the batch engine made
    # with one would vanish there and change the report.
    args = ["fuzz", "--dist", dist, "--count", "40", "--seed", "3",
            "--theorem", "all", "--json"]
    plain = run_cli(args)
    optimized = subprocess.run([sys.executable, "-O", *CLI[1:], *args],
                               text=True, capture_output=True)
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout == optimized.stdout and '"holds"' in plain.stdout


def test_fuzz_bad_distribution_exit3():
    assert run_cli(["fuzz", "--dist", "gnp:30,1.5"]).returncode == 3


def test_fuzz_empty_order_exit3():
    for spec in ("gnp:0,0.5", "bipartite:0,0,0.5"):
        result = run_cli(["fuzz", "--dist", spec, "--count", "2"])
        assert result.returncode == 3
        assert f"bad distribution spec '{spec}'" in result.stderr


def test_fuzz_jobs_zero_exit3():
    result = run_cli(["fuzz", "--dist", "gnp:5,0.5", "--count", "3",
                      "--jobs", "0"])
    assert result.returncode == 3
    assert "jobs must be positive" in result.stderr


def test_fuzz_unreachable_regular_exit3():
    # A pairing of 30 vertices of degree 10 is simple with probability about
    # 2e-11, so the sampler gives up after its redraw bound.
    result = run_cli(["fuzz", "--dist", "regular:30,10", "--count", "3",
                      "--jobs", "1"], timeout=60)
    assert result.returncode == 3
    assert "regular:30,10" in result.stderr
    assert "Traceback" not in result.stderr


def _exit_in_worker(args):
    os._exit(1)


@pytest.mark.parametrize("argv, worker", [
    (["verify", "--min-n", "1", "--max-n", "4"], "_vector_shard"),
    (["fuzz", "--dist", "gnp:5,0.5", "--count", "300"], "_fuzz_shard"),
])
def test_dead_shard_worker_exits_3(monkeypatch, capsys, argv, worker):
    # A worker that dies before sending is a configuration-level failure,
    # not "violations found" through a traceback.
    monkeypatch.setattr(verify, worker, _exit_in_worker)
    assert main(argv + ["--jobs", "2"]) == 3
    err = capsys.readouterr().err
    assert "exited with code 1 before sending" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-2", "abc"])
def test_bad_env_jobs_exit3(monkeypatch, capsys, value):
    # Checked like --jobs, not read as one job.
    monkeypatch.setenv("SPECTOOL_JOBS", value)
    assert main(["verify", "--max-n", "3", "--theorem", "mantel"]) == 3
    captured = capsys.readouterr()
    assert "SPECTOOL_JOBS" in captured.err and repr(value) in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def _raising(error):
    def raise_it(*args, **kwargs):
        raise error("boom")

    return raise_it


ERROR_TYPES = [value for value in vars(errors).values()
               if isinstance(value, type) and issubclass(value, Exception)]


@pytest.mark.parametrize("error", ERROR_TYPES, ids=lambda e: e.__name__)
def test_every_spectool_error_exits_by_its_type(monkeypatch, capsys, error):
    # 2 for input errors, 3 for the rest, with the message alone; never 1,
    # which means "violations found".
    monkeypatch.setattr(cli, "sweep", _raising(error))
    code = main(["verify", "--max-n", "3"])
    captured = capsys.readouterr()
    assert code == (2 if issubclass(error, InputError) else 3)
    assert captured.err == "error: boom\n" and captured.out == ""


@pytest.mark.parametrize("error", [ZeroDivisionError, ValueError])
@pytest.mark.parametrize("target, name, argv", [
    (cli, "sweep", ["verify", "--max-n", "3"]),
    (_exhaustive, "sweep_stack",
     ["fuzz", "--dist", "gnp:8,0.5", "--count", "10", "--jobs", "1"]),
    (_exhaustive, "sweep_stack",
     ["fuzz", "--dist", "gnp:5,0.5", "--count", "300", "--jobs", "2"]),
    (cli, "eigendecompose", ["analyze", "--json"]),
], ids=["verify", "fuzz", "fuzz-jobs-2", "analyze"])
def test_a_defect_exits_3_with_its_traceback(monkeypatch, capsys, error,
                                             target, name, argv):
    # An exception that is no SpectoolError is a defect: it is neither a
    # "violations found" exit nor an error message without its traceback.
    monkeypatch.setattr(target, name, _raising(error))
    monkeypatch.setattr(sys, "stdin", io.StringIO("Bw\n"))
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "Traceback" in captured.err
    assert f"{error.__name__}: boom" in captured.err
    assert captured.out == ""


def test_configuration_errors_are_value_errors():
    # Library callers that catch ValueError see no change.
    for call in (lambda: parse_distribution("gnp:30,1.5"),
                 lambda: coerce_theorems(["bogus"]),
                 lambda: SweepConfig(n_min=0).validate(),
                 lambda: verify.fuzz("gnp:5,0.5", -1, 0),
                 lambda: verify.fuzz("gnp:5,0.5", 3, 0, jobs=0),
                 lambda: exhaustive_spectral_audit(2, 1)):
        with pytest.raises(ValueError) as info:
            call()
        assert isinstance(info.value, ConfigurationError)
    assert issubclass(Graph6Error, InputError)
    assert issubclass(EdgeListFormatError, InputError)


def test_env_var_sets_default_jobs(monkeypatch):
    monkeypatch.setenv("SPECTOOL_JOBS", "3")
    from spectool.cli import build_parser

    args = build_parser().parse_args(["verify", "--max-n", "4"])
    assert args.jobs == 3


def test_main_callable_directly(capsys):
    code = main(["gen", "--family", "star", "--params", "5"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    from spectool.families import star
    from spectool.graph6 import from_graph6

    assert from_graph6(out) == star(5)
