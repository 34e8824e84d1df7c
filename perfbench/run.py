"""schaeffer benchmark: four CLI workloads, timed end to end, with output checks.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times the workload as a closed loop with one client: one
``python -m schaeffer.cli`` process at a time, each fresh, ``--workers 1``,
passes repeated until ``--seconds`` is spent.  It reports

    wall_s       median seconds of one pass through the workload's commands
    setup_s      median seconds of a fresh ``python -m schaeffer.cli --help``
    peak_rss_mb  median over passes of the largest child max-RSS in a pass

Both times are scaled to a reference CPU speed.  The run is pinned to one
CPU, and a thread times a 1-2 ms probe with none of the program in it every
50 ms beside the commands (calibrate.py).  Each pass is multiplied by
``REFERENCE_PROBE_S`` over the median probe time inside its commands, and
the set-up runs likewise by the probes inside them.  This takes out the
shared host's changes of speed, which are larger than the bounds; the
unscaled medians are in the JSON record as ``wall_raw_s`` and
``setup_raw_s``, and each pass's factor as ``pass_speeds``.

and checks every output (see checks.py): ``attempted`` and ``failed`` count
the checked rows, tables, tasks and criteria, so failed/attempted is the
fail ratio.  ``correct`` is false when a command ran past its deadline or
two passes of one run wrote different bytes.

``--trace 1`` runs the pass in-process through ``schaeffer.cli.main``: once
to warm up, once with every layer wrapped (see tracer.py) and once plain.
It prints the per-layer metrics of the traced pass and ``trace.overhead``,
traced over untraced in-process wall time, and writes the spans to
``.bench_build/trace-<workload>-seed<seed>.jsonl``.

The last line of standard output is the JSON result; the lines before it
are the human-readable report and a JSON record of the environment, the
inputs and the SHA-256 of every output file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import NamedTuple

import calibrate
import checks
import tracer
import workloads

SETUP_RUNS = 7  # measured --help runs, after one that fills the bytecode caches
RUN_LIMIT_S = 170.0  # a run must end within 180 s; no command may outlive this
_ELAPSED = re.compile(r"\(\d+(\.\d+)?s\)")  # validate's per-criterion timings


def environment(root: str) -> dict:
    import mpmath
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "loadavg_start": os.getloadavg(),
    }


class Finished(NamedTuple):
    """One finished CLI command."""

    wall: float
    code: int | None  # None when killed at the run deadline
    rss_mb: float  # the child's max RSS
    cpu: float  # the child's user + system CPU seconds
    stdout: str
    stderr: str
    window: tuple  # (start, end) in time.perf_counter() seconds


class Runner:
    """Runs CLI commands in fresh processes inside one work directory."""

    def __init__(self, root: str, workdir: str, started: float):
        self.workdir = workdir
        self.started = started
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")

    def run(self, argv) -> Finished:
        deadline = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        out_path = os.path.join(self.workdir, ".stdout")
        err_path = os.path.join(self.workdir, ".stderr")
        timed_out = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "schaeffer.cli", *argv],
                                    cwd=self.workdir, env=self.env, stdout=out, stderr=err)

            def expire():
                timed_out.set()
                proc.kill()

            timer = threading.Timer(deadline, expire)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
                cpu = usage.ru_utime + usage.ru_stime
            except ChildProcessError:  # reaped by the timer's kill
                proc.wait()
                rss_mb = cpu = 0.0
            except BaseException:  # interrupted: leave no child running
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        code = None if timed_out.is_set() else proc.returncode
        return Finished(wall, code, rss_mb, cpu, stdout, stderr, (t0, t0 + wall))


def output_digest(cmd, workdir, stdout) -> dict:
    """SHA-256 of each output file; validate's stdout without its timings."""
    if cmd.kind == "validate":
        return {"validate.stdout": hashlib.sha256(_ELAPSED.sub("", stdout).encode()).hexdigest()}
    digests = {}
    for name in cmd.outputs:
        path = os.path.join(workdir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        else:
            digests[name] = None
    return digests


def _clear_outputs(cmd, workdir):
    for name in cmd.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(workdir, name))


def check_pass(commands, workdir, results):
    """(attempted, failures) over one pass; results[i] = (exit code, stdout, stderr)."""
    attempted, failures = 0, []
    for cmd, (code, stdout, stderr) in zip(commands, results):
        if code is None:
            n = checks.ops_requested(cmd)
            f = [f"{cmd.kind} killed at the run deadline"] * n
        else:
            n, f = checks.check(cmd, workdir, code, stdout)
            if code != 0 and cmd.kind != "validate" and stderr.strip():
                f = [f"{x}: {stderr.strip().splitlines()[-1]}" for x in f]
        attempted += n
        failures += f
    return attempted, failures


@contextlib.contextmanager
def _on_one_cpu():
    """Runs this thread, and the threads and children it starts, on one CPU:
    each vCPU's speed drifts on its own, so the probes must share the CPU
    with the commands they time."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def timed_run(commands, workdir, root, seconds, started):
    runner = Runner(root, workdir, started)
    walls, rss, command_walls, command_cpus, speeds, windows = [], [], [], [], [], []
    attempted = 0
    failures = []
    digests = None
    reproducible = True
    with _on_one_cpu(), calibrate.Sampler() as sampler:
        setup, setup_windows = [], []
        for i in range(SETUP_RUNS + 1):
            r = runner.run(["--help"])
            if r.code != 0:
                raise RuntimeError(f"`schaeffer --help` exited with {r.code}")
            if i:
                setup.append(r.wall)
                setup_windows.append(r.window)
        setup_speed = sampler.speed(setup_windows)

        t_start = time.perf_counter()
        while True:
            runs = []
            for cmd in commands:
                _clear_outputs(cmd, workdir)
                runs.append(runner.run(cmd.argv))
            results = [(r.code, r.stdout, r.stderr) for r in runs]
            walls.append(sum(r.wall for r in runs))
            speeds.append(sampler.speed([r.window for r in runs]))
            windows += [r.window for r in runs]
            rss.append(max(r.rss_mb for r in runs))
            command_walls.append([r.wall for r in runs])
            command_cpus.append([r.cpu for r in runs])
            digest = _digests(commands, workdir, results)
            if digest != digests:  # identical bytes give identical check results
                pass_attempted, pass_failures = check_pass(commands, workdir, results)
                if digests is not None:
                    reproducible = False
                digests = digests or digest
            attempted += pass_attempted
            failures += pass_failures
            timed_out = any(code is None for code, _, _ in results)
            # stop once another pass would likely end over half a pass past the budget
            spent = time.perf_counter() - t_start
            if timed_out or spent + spent / len(walls) / 2 > seconds:
                break

    # a pass too short to hold a probe takes the run's speed
    run_speed = sampler.speed(setup_windows + windows) or 1.0
    speeds = [run_speed if v is None else v for v in speeds]
    setup_speed = setup_speed or run_speed
    scaled = [w * v for w, v in zip(walls, speeds)]
    metrics = {
        "wall_s": (statistics.median(scaled), "s"),
        "setup_s": (statistics.median(setup) * setup_speed, "s"),
        "peak_rss_mb": (statistics.median(rss), "MiB"),
    }
    samples = {"wall_s": len(walls), "setup_s": len(setup), "peak_rss_mb": len(rss)}
    detail = {"wall_raw_s": statistics.median(walls), "setup_raw_s": statistics.median(setup),
              "setup_speed": setup_speed, "pass_speeds": speeds, "probes": len(sampler.samples),
              "pass_walls_s": walls, "pass_peak_rss_mb": rss, "setup_runs_s": setup,
              "command_walls_s": command_walls, "command_cpu_s": command_cpus,
              "sha256": digests, "reproducible": reproducible}
    correct = reproducible and not timed_out
    return correct, attempted, failures, metrics, samples, detail


@contextlib.contextmanager
def _inside(workdir):
    here = os.getcwd()
    os.chdir(workdir)
    try:
        yield
    finally:
        os.chdir(here)


def inprocess_pass(commands, workdir):
    """Runs one pass through schaeffer.cli.main in this process; returns
    (wall seconds, [(exit code, stdout, stderr)]).  The caches that a fresh
    process would start without are emptied before each command."""
    from schaeffer import acceptance, asymptotics, cli

    results = []
    wall = 0.0
    with _inside(workdir):
        for cmd in commands:
            _clear_outputs(cmd, workdir)
            asymptotics.clear_truth_cache()
            acceptance._norm_cache.clear()
            out = io.StringIO()
            err = ""
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(list(cmd.argv))
            except SystemExit as ex:
                code = ex.code if isinstance(ex.code, int) else 1
            except Exception as ex:  # a crash of the program under test is a failed command
                code, err = 1, f"{type(ex).__name__}: {ex}"
            wall += time.perf_counter() - t0
            results.append((code, out.getvalue(), err))
    return wall, results


def _digests(commands, workdir, results) -> dict:
    digests = {}
    for cmd, (_, stdout, _) in zip(commands, results):
        digests.update(output_digest(cmd, workdir, stdout))
    return digests


def write_spans(spans, path):
    """One JSON object per span: name, start, end, parent index (-1 for none), info."""
    with open(path, "w") as fh:
        for name, start, end, parent, info in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "info": info}) + "\n")


def traced_run(commands, workdir, root, spans_path):
    """A warm-up pass, then a traced and an untraced in-process pass; the
    spans of the traced one are written to ``spans_path``.  ``correct`` is
    false when the traced pass wrote other bytes than the untraced one."""
    sys.path.insert(0, os.path.join(root, "src"))
    import schaeffer.cli  # noqa: F401  (import cost stays out of both timings)

    warmup_wall, _ = inprocess_pass(commands, workdir)
    t = tracer.Tracer()
    t.install()
    try:
        traced_wall, results = inprocess_pass(commands, workdir)
    finally:
        t.uninstall()
    attempted, failures = check_pass(commands, workdir, results)
    digests = _digests(commands, workdir, results)
    untraced_wall, untraced_results = inprocess_pass(commands, workdir)
    correct = digests == _digests(commands, workdir, untraced_results)

    write_spans(t.spans, spans_path)
    metrics = tracer.layer_metrics(t.spans)
    metrics["trace.overhead"] = (traced_wall / untraced_wall, "ratio")
    samples = {name: 1 for name in metrics}
    detail = {"warmup_wall_s": warmup_wall, "traced_wall_s": traced_wall,
              "untraced_wall_s": untraced_wall, "spans": len(t.spans),
              "spans_file": os.path.relpath(spans_path, root), "sha256": digests}
    return correct, attempted, failures, metrics, samples, detail


def _report(workload, seed, trace, commands, env, correct, attempted, failures, metrics,
            samples, detail):
    lines = [f"perfbench workload={workload} seed={seed} trace={trace}"]
    for cmd in commands:
        lines.append("  command: python -m schaeffer.cli " + " ".join(cmd.argv))
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:28s} {value:14.6g} {unit:6s} n={samples[name]}")
    if not trace:
        lines.append("  (wall_s is a median; too few passes for any tail percentile to "
                     "have 10 samples beyond it, so none is reported)")
        lines.append(f"  (times scaled to the reference CPU speed by {detail['probes']} "
                     f"probes; unscaled wall_s {detail['wall_raw_s']:.6g} s, "
                     f"setup_s {detail['setup_raw_s']:.6g} s)")
    ratio = len(failures) / attempted if attempted else 0.0
    lines.append(f"  fail_ratio                   {ratio:14.6g}        "
                 f"= {len(failures)} failed / {attempted} operations attempted")
    for f in sorted(set(failures)):
        lines.append(f"    FAILED x{failures.count(f)}: {f}")
    lines.append(f"  correct={str(correct).lower()}")
    print("\n".join(lines))
    record = {"workload": workload, "seed": seed, "trace": trace, "environment": env,
              "argv": [c.argv for c in commands], "fail_ratio": ratio,
              "fail_ratio_base": attempted, "samples": samples, **detail}
    print(json.dumps(record, default=str))


def result_line(correct, attempted, failures, metrics) -> str:
    """The JSON object printed as the last line of standard output."""
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "schaeffer", "cli.py")):
        print("perfbench: src/schaeffer not found; run from the repository root",
              file=sys.stderr)
        return 2
    commands = workloads.build(args.workload, args.seed)
    env = environment(root)
    base = os.path.join(root, ".bench_build")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"perfbench-{args.workload}-", dir=base)
    try:
        if args.trace:
            spans_path = os.path.join(base, f"trace-{args.workload}-seed{args.seed}.jsonl")
            result = traced_run(commands, workdir, root, spans_path)
        else:
            result = timed_run(commands, workdir, root, args.seconds, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct, attempted, failures, metrics, samples, detail = result
    env["loadavg_end"] = os.getloadavg()
    _report(args.workload, args.seed, args.trace, commands, env, *result)
    print(result_line(correct, attempted, failures, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
