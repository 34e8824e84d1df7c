"""Self-tests of the benchmark.  From the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import random
import time

import calibrate
import checks
import run
import tracer
import workloads
from workloads import Command

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def tiny_commands(seed):
    """Every subcommand on grids small enough for a test, lambda from the seed."""
    lam = workloads.seeded_lambdas(random.Random(seed))[0]
    return [
        workloads.growth((lam,), (8, 128), "g.csv"),
        workloads.asymptotics((lam,), (64, 128, 256, 512), "a.csv"),
        workloads.coeffs((lam,), (64,), "c.csv"),
        workloads.bounds((lam,), (8,), (0.0, 0.9), "b.csv"),
        Command("validate", ["validate", "--criteria", "4"]),
    ]


def test_smoke_pass_emits_every_metric(tmp_path):
    commands = tiny_commands(seed=1)
    correct, attempted, failures, metrics, samples, _ = run.timed_run(
        commands, str(tmp_path), ROOT, seconds=0.1, started=time.perf_counter())
    assert correct and attempted > 0
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(samples[name] >= 1 and metrics[name][0] > 0 for name in metrics)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(metrics[name][1] == units[name] for name in metrics)

    spans_path = tmp_path / "spans.jsonl"
    correct, attempted, failures, metrics, _, _ = run.traced_run(
        commands, str(tmp_path), ROOT, str(spans_path))
    assert correct and attempted > 0
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    assert {"cli.main", "simplex.min_l1", "airy.ai"} <= {s["name"] for s in spans}
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(metrics[name][1] == units[name] for name in metrics)

    last = json.loads(run.result_line(correct, attempted, failures, metrics))
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]


def test_times_scale_to_reference_speed(tmp_path, monkeypatch):
    monkeypatch.setattr(calibrate.Sampler, "speed", lambda self, windows: 0.5)
    commands = [Command("validate", ["validate", "--criteria", "4"])]
    _, _, _, metrics, _, detail = run.timed_run(commands, str(tmp_path), ROOT, seconds=0.1,
                                                started=time.perf_counter())
    assert detail["pass_speeds"] == [0.5]
    assert metrics["wall_s"][0] == detail["wall_raw_s"] / 2
    assert metrics["setup_s"][0] == detail["setup_raw_s"] / 2


def test_probes_inside_a_command_give_its_speed():
    sampler = calibrate.Sampler()
    ref = calibrate.REFERENCE_PROBE_S
    sampler.samples = [(0.0, 9.0), (1.0, ref / 2), (2.0, ref / 2), (3.0, ref), (9.5, 9.0)]
    assert sampler.speed([(0.5, 2.5)]) == 2.0
    assert sampler.speed([(0.5, 1.5), (2.5, 3.5)]) == 4 / 3  # median of ref/2 and ref
    assert sampler.speed([(4.0, 9.0)]) is None


def test_planted_growth_row_below_lower_bound_fails(tmp_path):
    cmd = workloads.growth((0.5,), (8, 16, 128), "g.csv")
    (tmp_path / "g.csv").write_text(
        "lambda,n,L,phi_D,phi_converged,sqrt_en,L_over_sqrt_n\n"
        "0.5,8,1.33,3.24,true,4.66,0.47\n"
        "0.5,16,1.46,1.2,true,6.59,0.36\n"  # phi_D below L: impossible
        "0.5,128,3.1,,,18.65,0.27\n")
    attempted, failures = checks.check(cmd, str(tmp_path), 0, "")
    assert attempted == 3
    assert len(failures) == 1 and "n=16" in failures[0]


def test_crashed_command_fails_every_operation(tmp_path):
    cmd = workloads.bounds((0.4, 0.6), (8, 16), (0.0, 0.9), "b.csv")
    attempted, failures = checks.check(cmd, str(tmp_path), 1, "")
    assert attempted == len(failures) == 8


def test_validate_counts_fail_lines():
    stdout = "PASS criterion  1 [x] (0.1s): ok\nFAIL criterion 11 [y] (0.5s): no\n"
    attempted, failures = checks.check(Command("validate", ["validate"]), ".", 1, stdout)
    assert attempted == 11 and len(failures) == 10  # one FAIL line, nine missing


def test_traced_counts_repeat_at_one_seed(tmp_path):
    counts = []
    for _ in range(2):
        _, _, _, metrics, _, _ = run.traced_run(tiny_commands(seed=7), str(tmp_path), ROOT,
                                                str(tmp_path / "spans.jsonl"))
        counts.append({name: metrics[name][0] for name in tracer.DETERMINISTIC})
    assert counts[0] == counts[1]
    assert all(counts[0][name] > 0 for name in tracer.DETERMINISTIC)


def test_same_seed_same_inputs():
    for name in workloads.NAMES:
        assert ([c.argv for c in workloads.build(name, 5)]
                == [c.argv for c in workloads.build(name, 5)])


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "validate", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
