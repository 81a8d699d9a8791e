"""End-to-end tests of the command line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mullineux
from mullineux import crystal, difftest, involution
from mullineux.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mullineux_text(capsys):
    code, out, err = run(capsys, "mullineux", "--e", "3", "--partition", "3")
    assert (code, out, err) == (0, "2,1\n", "")


def test_mullineux_empty_partition(capsys):
    code, out, err = run(capsys, "mullineux", "--e", "5", "--partition", "-")
    assert (code, out, err) == (0, "-\n", "")


def test_mullineux_method_all(capsys):
    code, out, err = run(
        capsys,
        "mullineux",
        "--e",
        "4",
        "--partition",
        "10,8,7,5,4,4,3,2,1,1",
        "--method",
        "all",
    )
    assert code == 0
    assert out == (
        "crystal: 17,9,7,6,3,3\n"
        "xu: 17,9,7,6,3,3\n"
        "kleshchev: 17,9,7,6,3,3\n"
    )


def test_mullineux_single_methods(capsys):
    for method in ("crystal", "xu", "kleshchev"):
        code, out, err = run(
            capsys, "mullineux", "--e", "3", "--partition", "3,3", "--method", method
        )
        assert (code, out) == (0, "6\n"), method


def test_mullineux_json(capsys):
    code, out, err = run(
        capsys, "mullineux", "--e", "3", "--partition", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"e": 3, "input": "3", "method": "crystal", "result": "2,1"}


def test_mullineux_json_all(capsys):
    code, out, err = run(
        capsys,
        "mullineux",
        "--e",
        "3",
        "--partition",
        "3",
        "--method",
        "all",
        "--format",
        "json",
    )
    payload = json.loads(out)
    assert payload["methods"] == {"crystal": "2,1", "kleshchev": "2,1", "xu": "2,1"}
    assert payload["result"] == "2,1"


def test_mullineux_trace(capsys):
    code, out, err = run(
        capsys, "mullineux", "--e", "3", "--partition", "3,3", "--trace"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "[split] charge 0,2: 3|3"
    assert lines[1] == "[lift] charge 0,8: 1|3,2"
    assert lines[-1] == "6"


def test_mullineux_rejects_irregular(capsys):
    code, out, err = run(capsys, "mullineux", "--e", "3", "--partition", "3,3,3")
    assert code == 2
    assert "e-regular" in err


@pytest.mark.parametrize("method", ["xu", "kleshchev"])
@pytest.mark.parametrize("e, partition", [("3", "3,3,3"), ("1", "2")])
def test_traced_methods_reject_bad_input(capsys, method, e, partition):
    code, out, err = run(
        capsys, "mullineux", "--e", e, "--partition", partition, "--method", method, "--trace"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_recursion_limit_exits_3_without_traceback(capsys):
    # The branching recursion goes one call deeper per i-string, and a row
    # has one node per string, so a row of 1200 passes the default
    # recursion limit.
    code, out, err = run(
        capsys, "mullineux", "--e", "3", "--partition", "1200", "--method", "kleshchev"
    )
    assert (code, out) == (3, "")
    assert err.startswith("internal error: ")
    assert err.count("\n") == 1


def test_crystal_answers_a_long_row(capsys):
    # The crystal route unfolds on a work stack, not the interpreter's stack.
    code, out, err = run(
        capsys, "mullineux", "--e", "3", "--partition", "1200", "--method", "crystal"
    )
    assert (code, out, err) == (0, "600,600\n", "")
    assert mullineux.xu((1200,), 3) == (600, 600)


@pytest.mark.parametrize("e", ["0", "1", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ("mullineux", "--partition", "2"),
        ("crystal-iso", "--charge", "0,1", "--to", "0,4", "--bipartition", "1|-"),
        ("theta", "--charge", "0,1", "--partition", "2"),
        ("im", "--multisegment", "0:1"),
        ("enumerate", "--n", "2"),
        ("enumerate", "--n", "2", "--charge", "0,1"),
    ],
)
def test_every_subcommand_rejects_a_bad_modulus(capsys, argv, e):
    code, out, err = run(capsys, *argv, "--e", e)
    assert (code, out) == (2, "")
    assert err == f"error: e must be >= 2, got {e}\n"


@pytest.mark.parametrize("method", ["crystal", "xu", "kleshchev", "all"])
@pytest.mark.parametrize("s", ["0", "3"])
def test_every_method_rejects_an_out_of_range_split_charge(capsys, method, s):
    code, out, err = run(capsys, "mullineux", "--e", "3", "--partition", "3", "--s", s, "--method", method)
    assert (code, out, err) == (2, "", f"error: s must be in 1..2, got {s}\n")


def test_mullineux_rejects_bad_parse(capsys):
    code, out, err = run(capsys, "mullineux", "--e", "3", "--partition", "2,3")
    assert code == 2
    assert "weakly decreasing" in err


def test_crystal_iso(capsys):
    code, out, err = run(
        capsys,
        "crystal-iso",
        "--e",
        "3",
        "--charge",
        "0,1",
        "--to",
        "0,4",
        "--bipartition",
        "1|2",
    )
    assert (code, out) == (0, "-|2,1\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("crystal-iso", "--e", "3", "--charge", "0,1", "--to", "0,4", "--bipartition", "-|3"),
        ("crystal-iso", "--e", "3", "--charge", "0,1", "--to", "-3,1", "--bipartition", "-|3"),
        ("crystal-iso", "--e", "3", "--charge", "-1,0,1", "--to", "-1,3,-2", "--bipartition", "-|2|1"),
        ("theta", "--e", "3", "--charge", "-1,0", "--partition", "3,2,1", "--format", "json"),
        ("mullineux", "--e", "3", "--partition", "-"),
    ],
)
def test_an_option_value_may_start_with_a_dash(capsys, argv):
    """`--opt value` with a value such as "-|3" or "-1,0" prints what `--opt=value` prints."""
    joined = [argv[0]] + [f"{name}={value}" for name, value in zip(argv[1::2], argv[2::2])]
    expected = run(capsys, *joined)
    assert expected[0] == 0
    assert run(capsys, *argv) == expected


def test_a_flag_followed_by_a_dash_value_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mullineux", "--e", "3", "--partition", "3", "--trace", "-1,0"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_a_walk_that_leaves_the_beta_sets_exits_3(capsys, monkeypatch):
    # A matching that repeats an entry breaks the walk's guarantee, not the input.
    monkeypatch.setattr("mullineux.crystal._match", lambda s1, s2, row1, row2: ((row1[0], *row1), tuple(row2)))
    code, out, err = run(
        capsys, "crystal-iso", "--e", "3", "--charge", "0,1", "--to", "0,4", "--bipartition", "1|2"
    )
    assert (code, out) == (3, "")
    assert err.startswith("internal error: sigma_1 at ")


def test_a_walk_that_ends_off_target_exits_3(capsys, monkeypatch):
    walk = crystal._walk
    monkeypatch.setattr(crystal, "_walk", lambda *args: (walk(*args)[0], (0, 0)))
    code, out, err = run(
        capsys, "crystal-iso", "--e", "3", "--charge", "0,1", "--to", "0,4", "--bipartition", "1|2"
    )
    assert (code, out) == (3, "")
    assert err == "internal error: isomorphism walk ended at (0, 0), wanted (0, 4)\n"


def test_an_im_string_that_does_not_peel_exits_3(capsys, monkeypatch):
    # im runs the string kernel; a peel that finds no removable node is a
    # fault of the program, reported in one line.
    monkeypatch.setattr(crystal, "_corners", lambda mp, s, e, j=None: [])
    code, out, err = run(capsys, "im", "--e", "3", "--multisegment", "0:1;1:2")
    assert (code, out) == (3, "")
    assert err == "internal error: no residue has a good removable node in ((1,), (2,)) at (0, 1) mod 3\n"


def test_methods_that_disagree_exit_3(capsys, monkeypatch):
    # --method all compares the three routes; a route that answers wrongly
    # is a fault of the program, reported in one line with every answer.
    monkeypatch.setattr(involution, "xu", lambda lam, e: lam)
    code, out, err = run(capsys, "mullineux", "--e", "3", "--partition", "2", "--method", "all")
    assert (code, out) == (3, "")
    assert err == "internal error: methods disagree: crystal=1,1, kleshchev=1,1, xu=2\n"


def test_running_out_of_memory_exits_3(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(involution, "mullineux_crystal", exhausted)
    code, out, err = run(capsys, "mullineux", "--e", "3", "--partition", "2")
    assert (code, out, err) == (3, "", "internal error: out of memory\n")


def test_a_peel_without_a_good_node_exits_3(capsys, monkeypatch):
    # A peel handed the empty partition trips its own guard.
    peel = involution._kleshchev_peel
    monkeypatch.setattr(involution, "_kleshchev_peel", lambda lam, e: peel((), e))
    code, out, err = run(capsys, "mullineux", "--e", "3", "--partition", "2", "--method", "kleshchev")
    assert (code, out) == (3, "")
    assert err == "internal error: () has no good removable node mod 3\n"


def test_crystal_iso_rejects_wrong_orbit(capsys):
    code, out, err = run(
        capsys,
        "crystal-iso",
        "--e",
        "3",
        "--charge",
        "0,1",
        "--to",
        "0,2",
        "--bipartition",
        "1|2",
    )
    assert code == 2
    assert "residue" in err


def test_crystal_iso_rejects_non_member(capsys):
    code, out, err = run(
        capsys,
        "crystal-iso",
        "--e",
        "3",
        "--charge",
        "0,1",
        "--to",
        "0,4",
        "--bipartition",
        "1,1|1",
    )
    assert code == 2
    assert "member" in err


def test_theta_subcommand(capsys):
    code, out, err = run(
        capsys,
        "theta",
        "--e",
        "4",
        "--charge",
        "0,2,2",
        "--partition",
        "8,8,6,6,4,3,3,2,1,1",
    )
    assert (code, out) == (0, "8,8|6,6,4,3|3,2,1,1\n")


def test_theta_subcommand_answers_long_partitions(capsys):
    staircase = ",".join(map(str, range(2100, 0, -1)))
    # At level 1 theta is the identity.
    assert run(capsys, "theta", "--e", "2", "--charge", "0", "--partition", staircase) == (0, staircase + "\n", "")
    code, out, err = run(capsys, "theta", "--e", "2", "--charge", "0,1", "--partition", staircase)
    assert (code, err) == (0, "")
    assert sorted(map(int, out.strip().replace("|", ",").split(","))) == list(range(1, 2101))
    staircase = ",".join(map(str, range(1500, 0, -1)))
    code, out, err = run(capsys, "theta", "--e", "3", "--charge", "0,1,2", "--partition", staircase)
    assert (code, out.count("|"), err) == (0, 2, "")


def test_im_subcommand(capsys):
    code, out, err = run(
        capsys, "im", "--e", "3", "--multisegment", "0:1;0:3;1:3"
    )
    assert (code, out) == (0, "2:6;0:1\n")
    # The output parses back and the involution returns.
    code, out, err = run(capsys, "im", "--e", "3", "--multisegment", out.strip())
    assert (code, out) == (0, "0:3;1:3;0:1\n")


def test_im_rejects_periodic(capsys):
    code, out, err = run(capsys, "im", "--e", "2", "--multisegment", "0:1;1:1")
    assert code == 2
    assert "aperiodic" in err
    # Segments are head:length only; residue lists are not a second syntax.
    code, out, err = run(capsys, "im", "--e", "3", "--multisegment", "0,1,2")
    assert (code, out) == (2, "")
    assert "cannot parse segment" in err


def test_enumerate_partitions(capsys):
    code, out, err = run(capsys, "enumerate", "--e", "3", "--n", "3")
    assert (code, out) == (0, "3\n2,1\n")


def test_enumerate_members(capsys):
    code, out, err = run(capsys, "enumerate", "--e", "3", "--n", "3", "--charge", "0,1")
    assert code == 0
    assert out == "-|3\n1|1,1\n1|2\n2|1\n2,1|-\n3|-\n"


def test_enumerate_members_at_level_1500(capsys):
    code, out, err = run(capsys, "enumerate", "--e", "3", "--n", "1", "--charge", ",".join(["0"] * 1500))
    assert (code, out, err) == (0, "1" + "|-" * 1499 + "\n", "")


def test_enumerate_is_deterministic(capsys):
    first = run(capsys, "enumerate", "--e", "3", "--n", "4", "--charge", "0,1")
    second = run(capsys, "enumerate", "--e", "3", "--n", "4", "--charge", "0,1")
    assert first == second


@pytest.mark.parametrize("charge", [None, "0", "0,1", "0,1,2", "0,3"])
def test_enumerate_rejects_negative_rank(capsys, charge):
    argv = ["enumerate", "--e", "3", "--n", "-1"] + (["--charge", charge] if charge else [])
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: rank must be >= 0, got -1\n")


def test_enumerate_json(capsys):
    code, out, err = run(capsys, "enumerate", "--e", "3", "--n", "2", "--format", "json")
    payload = json.loads(out)
    assert payload == {
        "e": 3,
        "input": "n=2",
        "method": "enumerate",
        "result": ["2", "1,1"],
    }


def test_difftest_small(capsys):
    code, out, err = run(
        capsys, "difftest", "--e-range", "2..3", "--max-n", "5", "--jobs", "1"
    )
    assert code == 0
    assert out.endswith("OK\n")
    assert "fail=0" in out
    assert "fail=1" not in out


def test_difftest_tiny_passes(capsys):
    code, out, err = run(capsys, "difftest", "--e-range", "3..3", "--max-n", "0")
    assert code == 0
    assert out.endswith("OK\n")


def test_difftest_json(capsys):
    code, out, err = run(
        capsys,
        "difftest",
        "--e-range",
        "2..2",
        "--max-n",
        "4",
        "--format",
        "json",
        "--jobs",
        "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "pass"
    props = payload["properties"]
    assert props["involution"]["fail"] == 0
    assert props["involution"]["pass"] > 0
    assert props["theta_roundtrip"]["fail"] == 0


def test_difftest_rejects_bad_range(capsys):
    code, out, err = run(capsys, "difftest", "--e-range", "6..2", "--max-n", "3")
    assert code == 2
    assert "e-range" in err


def test_difftest_rejects_negative_max_n(capsys):
    code, out, err = run(capsys, "difftest", "--e-range", "2..2", "--max-n", "-1")
    assert (code, out, err) == (2, "", "error: --max-n must be >= 0, got -1\n")


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_difftest_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run(
        capsys, "difftest", "--e-range", "2..2", "--max-n", "2", "--jobs", jobs
    )
    assert (code, out) == (2, "")
    assert "--jobs" in err


def test_difftest_caps_workers_at_tasks_and_cpus(capsys, monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for the process pool: records its size, maps in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(difftest.os, "cpu_count", lambda: 4)
    for argv, workers in (
        (("--e-range", "2..2", "--max-n", "2", "--jobs", "1000"), [3]),
        (("--e-range", "2..3", "--max-n", "4", "--jobs", "1000"), [4]),
        (("--e-range", "2..3", "--max-n", "4", "--jobs", "2"), [2]),
        (("--e-range", "2..3", "--max-n", "4"), [4]),
        (("--e-range", "2..3", "--max-n", "4", "--jobs", "1"), []),
    ):
        sizes.clear()
        code, out, err = run(capsys, "difftest", *argv)
        assert code == 0 and out.endswith("OK\n"), argv
        assert sizes == workers, argv


def test_difftest_reports_the_smallest_counterexample(capsys, monkeypatch):
    # An xu that returns its input is wrong first on (1, 1), whose image mod 3 is (2,).
    monkeypatch.setattr(difftest.involution, "_xu", lambda lam, e, steps, images=None: tuple(lam))
    argv = ("difftest", "--e-range", "3..3", "--max-n", "3", "--jobs", "1")
    code, out, err = run(capsys, *argv)
    assert code == 3
    lines = out.splitlines()
    assert "agreement: pass=4 fail=8 counterexample: e=3 partition=1,1 s=1" in lines
    assert "first_column_lift: pass=3 fail=2 counterexample: e=3 partition=1,1" in lines
    assert lines[-1] == "FAIL"
    code, out, err = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert (code, payload["result"]) == (3, "fail")
    assert payload["properties"]["agreement"]["counterexample"] == "e=3 partition=1,1 s=1"
    assert payload["properties"]["rank_regular"]["counterexample"] is None


def loaded_by_importing_the_cli(module):
    """Whether `import mullineux.cli` in a fresh interpreter loads `module`."""
    src = str(Path(mullineux.__file__).resolve().parent.parent)
    code = f"import sys, mullineux.cli; print({module!r} in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return {"True\n": True, "False\n": False}[proc.stdout]


def test_importing_the_cli_loads_no_process_pool():
    assert loaded_by_importing_the_cli("concurrent.futures") is False


def test_importing_the_cli_loads_no_dataclasses():
    assert loaded_by_importing_the_cli("dataclasses") is False


@pytest.mark.parametrize("module", ["json", "mullineux.difftest"])
def test_importing_the_cli_loads_neither_json_nor_difftest(module):
    # Only `--format json` and the difftest subcommand need them.
    assert loaded_by_importing_the_cli(module) is False


def test_difftest_prints_the_same_bytes_with_a_process_pool():
    # difftest runs on min(jobs, tasks, cpus) processes, so on a one-cpu
    # machine --jobs 2 runs in process too and both runs take the same branch.
    src = str(Path(mullineux.__file__).resolve().parent.parent)

    def output(jobs):
        return subprocess.run(
            [sys.executable, "-m", "mullineux.cli", "difftest", "--e-range", "2..3", "--max-n", "8", "--jobs", jobs],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            check=True,
            timeout=60,
        ).stdout

    assert output("2") == output("1")


@pytest.mark.parametrize("n", [sys.maxsize, 10**20])
@pytest.mark.parametrize("charge", [None, "0", "0,1"])
def test_enumerate_past_the_largest_sequence_exits_2_without_traceback(charge, n):
    src = str(Path(mullineux.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "mullineux.cli", "enumerate", "--e", "3", "--n", str(n)]
        + ([] if charge is None else ["--charge", charge]),
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: rank must be < {sys.maxsize} to enumerate partitions, got {n}\n"
    assert "Traceback" not in proc.stderr


def test_a_closed_stdout_ends_quietly():
    # enumerate writes 382,548 bytes here, more than a pipe buffer holds, so
    # the reader's close lands while the command is still writing.
    src = str(Path(mullineux.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "mullineux.cli", "enumerate", "--e", "3", "--n", "50"],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"50\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")
