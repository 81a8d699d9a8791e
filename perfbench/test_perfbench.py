"""Tests of the benchmark itself: tiny runs, tracing reach, failure accounting."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import mullineux  # noqa: E402
import workloads  # noqa: E402
from layers import Tracer, layer_metrics  # noqa: E402
from timing import Reference, Sampler  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in named]
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("im", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_call_made_through_another_module_is_traced():
    original = mullineux.xu
    workloads.cold()
    with Tracer() as tracer:
        mullineux.xu((3, 1), 3)
    metrics = layer_metrics(tracer.stats)
    assert metrics["involution.xu_strip.calls"] >= 1
    assert metrics["core.check_partition.calls"] >= 1
    assert mullineux.xu is original


def test_wrong_answers_crashes_and_bad_exit_codes_count_as_failed():
    large = workloads.Large(1, tiny=True, seconds=0)
    large.items = [((5,), 3, "row", ("xu",)), ((1000,), 3, "row", ("kleshchev",))]
    sampler = workloads.Sampler()
    done = large.run_all(sampler, range(2))
    index, outcomes = done[0]
    start, seconds, _, _ = outcomes["xu"]
    outcomes["xu"] = (start, seconds, "ok", (1, 1, 1, 1, 1))  # not 3-regular, so not m_3((5,))
    tally = workloads.Tally()
    large.settle(done, sampler, tally, {m: workloads.Tally() for m in workloads.METHODS})

    cli = workloads.Cli(1, tiny=True, seconds=0)
    call = next(c for c in cli.calls if c["kind"] == "mullineux")
    tally.add("cli", 0.1, cli.status(call, 1, ""))
    tally.add("fine", 0.1, "ok")

    assert tally.statuses == {"wrong": 1, "error:RecursionError": 1, "exit:1": 1, "ok": 1}
    assert tally.wrong == 1
    assert tally.summary()["failed_share"] == 0.75


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_the_same_arguments_make_the_same_work(workload):
    make = workloads.WORKLOADS[workload]
    first, again, other = make(3, True, 8), make(3, True, 8), make(4, True, 8)
    assert vars(first) == vars(again)
    if workload != "difftest":  # one fixed command, whatever the seed
        assert vars(first) != vars(other)


def test_scale_uses_the_probe_samples_nearest_the_operation():
    durations = iter([1.0, 1.0, 2.0, 2.0, 2.0])
    ref = Reference(lambda: next(durations), nominal=1.0, every=0.0, nearest=3, warmup=0)
    for _ in range(5):
        ref.sample()
    late = ref.samples[-1][0]
    assert ref.scaled(late, 3.0) == 1.5
    assert ref.scaled(ref.samples[0][0] - 100.0, 3.0) == 3.0


def test_sampler_removes_its_own_time_and_scales_by_the_samples_inside():
    sampler = Sampler(nominal=1.0, nearest=2)
    sampler.starts, sampler.probes, sampler.costs = [1.0, 2.0, 3.0, 9.0], [0.5, 0.5, 0.25, 4.0], [0.6, 0.6, 0.3, 4.1]
    assert sampler.scaled(0.5, 3.0) == pytest.approx((3.0 - 1.5) / (1.25 / 3))  # three samples inside
    assert sampler.scaled(9.5, 0.1) == pytest.approx(0.1 / 4.0)  # none inside: the one before


def test_sampler_probes_while_a_block_runs():
    with Sampler() as sampler:
        deadline = workloads.clock() + 0.1
        while workloads.clock() < deadline:
            pass
    assert len(sampler.starts) >= 5
