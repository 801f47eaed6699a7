"""Closed-loop benchmark of the nhssh CLI.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. One client runs the workload's CLI
processes one after another, waits for each to exit, checks the files they
wrote, and starts another iteration while it would end less than half an
iteration past --seconds.
With --trace 0 it reports the end-to-end metrics of the untraced iterations;
with --trace 1 it alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones (see tracer.py). The last line of stdout
is one JSON object; the lines before it record the seed, the machine and each
iteration.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACER = BENCH / "tracer.py"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 9
DEADLINE_S = 170.0  # a run, set-up included, ends within this
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class SetupError(Exception):
    """The program could not be built or started; no result is printed."""


@dataclass
class Iteration:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    error: str | None = None
    layers: dict[str, float] = field(default_factory=dict)


def _output_stats(out: Path) -> tuple[dict[str, str], int, int]:
    """sha256 of each file written, CSV rows written, bytes written."""
    digests, rows, size = {}, 0, 0
    for path in sorted(out.iterdir()):
        digest = hashlib.sha256()
        with path.open("rb") as f:  # in chunks, to keep this process small
            for chunk in iter(lambda: f.read(1 << 20), b""):
                digest.update(chunk)
                size += len(chunk)
                if path.suffix == ".csv":
                    rows += chunk.count(b"\n")
        digests[path.name] = digest.hexdigest()
        rows -= path.suffix == ".csv"  # the header line
    return digests, rows, size


class Bench:
    """One benchmark run: a workload, its inputs from the seed, a work directory.

    A child's maximum RSS as the kernel reports it is never below its parent's
    at the time it started, so this process stays small: it never imports
    numpy, and the output checks run in a checker process (checks.py) that
    lives as long as the Bench. Use it as a context manager.
    """

    def __init__(self, workload_name: str, seed: int, work: Path) -> None:
        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.inputs = self.workload.make_inputs(seed)
        self.work = work
        self.deadline = time.perf_counter() + DEADLINE_S
        self.config = work / "workload.cfg"
        self.out = work / "out"
        self.log = work / "stderr.log"
        self.digests: dict[str, str] | None = None
        self.checker: subprocess.Popen | None = None
        self.machine: dict[str, object] = {}
        pythonpath = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.env = dict(os.environ, PYTHONPATH=pythonpath,
                        NHSSH_THREADS=str(self.workload.threads))

    def __enter__(self) -> "Bench":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.checker is not None:
            self.checker.stdin.close()
            try:
                self.checker.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.checker.kill()
                self.checker.wait()
            self.checker.stdout.close()

    def spawn(self, cmd: list[str]) -> tuple[float, float, float, int]:
        """Run one process to exit: wall s, CPU s, max RSS in MB, exit code."""
        with self.log.open("ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode

    def check(self) -> str | None:
        """Ask the checker about the output directory; the error, or None."""
        try:
            self.checker.stdin.write(f"{self.out}\n")
            self.checker.stdin.flush()
            reply = self.checker.stdout.readline()
        except BrokenPipeError:
            reply = ""
        if not reply:
            return f"the checker exited with {self.checker.poll()}; see {self.log}"
        return json.loads(reply)["error"]

    def build(self) -> None:
        """Byte-compile the sources, write the config and start the checker."""
        self.work.mkdir(parents=True, exist_ok=True)
        self.config.write_text(self.inputs.config_text(), encoding="ascii")
        _, _, _, code = self.spawn([sys.executable, "-m", "compileall", "-q", str(SRC)])
        if code != 0:
            raise SetupError(f"compileall failed with exit code {code}")
        with self.log.open("ab") as err:
            self.checker = subprocess.Popen(
                [sys.executable, str(BENCH / "checks.py"), self.workload.name, str(self.seed)],
                cwd=ROOT, env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=err, text=True,
            )
        line = self.checker.stdout.readline()
        if not line:
            raise SetupError(f"the checker did not start; see {self.log}")
        self.machine = json.loads(line)

    def setup_times(self) -> list[float]:
        """Fresh `nhssh validate` of an empty config: start-up, import, validation."""
        empty = self.work / "empty.cfg"
        empty.write_text("", encoding="ascii")
        cmd = [sys.executable, "-m", "nhssh.cli", "validate", "--config", str(empty)]
        times = []
        for repeat in range(SETUP_REPEATS + 1):
            wall, _, _, code = self.spawn(cmd)
            if code != 0:
                raise SetupError(f"nhssh validate failed with exit code {code}; see {self.log}")
            if repeat:  # the first one warms the file cache
                times.append(wall)
        return times

    def iteration(self, traced: bool) -> Iteration:
        result = Iteration(traced)
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        spans = []
        for k, scenario in enumerate(self.workload.scenarios):
            args = ["run", "--scenario", scenario, "--config", str(self.config),
                    "--out", str(self.out)]
            spans_file = self.work / f"spans{k}.json"
            if traced:
                cmd = [sys.executable, str(TRACER), str(spans_file), *args]
            else:
                cmd = [sys.executable, "-m", "nhssh.cli", *args]
            wall, cpu, rss, code = self.spawn(cmd)
            result.wall_s += wall
            result.cpu_s += cpu
            result.peak_rss_mb = max(result.peak_rss_mb, rss)
            if code != 0:
                lines = self.log.read_text(errors="replace").splitlines() or [""]
                result.error = f"nhssh run --scenario {scenario} exited with {code}: {lines[-1]}"
                return result
            if traced:
                spans.append(tracer.span_totals(json.loads(spans_file.read_text())))
        digests, rows, size = _output_stats(self.out)
        if self.digests not in (None, digests):
            result.error = "output bytes differ from an earlier iteration's"
            return result
        result.error = self.check()
        if result.error:
            return result
        self.digests = digests
        if traced:
            result.layers = tracer.layer_metrics(tracer.merge_totals(spans), rows, size)
        return result

    def loop(self, seconds: float, trace: bool) -> list[Iteration]:
        """Iterate while the next iteration would end less than half of one past `seconds`.

        So a run overshoots `seconds` by at most half of its longest iteration.
        With tracing, untraced and traced iterations alternate, at least one each.
        """
        start = time.perf_counter()
        done: list[Iteration] = []
        longest = 0.0
        while True:
            traced = trace and len(done) % 2 == 1
            began = time.perf_counter()
            done.append(self.iteration(traced))
            longest = max(longest, time.perf_counter() - began)
            enough = len(done) >= (2 if trace else 1)
            if enough and time.perf_counter() - start + longest / 2 > seconds:
                return done


def _median(values: list[float]) -> float:
    if not values:
        return float("nan")
    if all(isinstance(v, int) for v in values):  # counts stay whole numbers
        return statistics.median_low(values)
    return statistics.median(values)


def summarize(iterations: list[Iteration], setup: list[float], trace: bool) -> dict:
    failed = sum(it.error is not None for it in iterations)
    plain = [it for it in iterations if not it.traced]
    if trace:
        traced = [it for it in iterations if it.traced and it.error is None]
        values = {name: _median([it.layers[name] for it in traced])
                  for name, _, _ in tracer.PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (_median([it.wall_s for it in iterations if it.traced])
                                      - _median([it.wall_s for it in plain]))
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    else:
        values = {name: _median([getattr(it, name) for it in plain])
                  for name, _ in END_TO_END if name != "setup_s"}
        values["setup_s"] = _median(setup)
        units = dict(END_TO_END)
    return {
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload, print its record lines, and return its result."""
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    try:
        with Bench(name, seed, work) as bench:
            bench.build()
            setup = bench.setup_times()
            iterations = bench.loop(seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    result = summarize(iterations, setup, trace)
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": bench.machine, "setup_s": setup,
        "iterations": [{"traced": it.traced, "wall_s": it.wall_s, "cpu_s": it.cpu_s,
                        "peak_rss_mb": it.peak_rss_mb, "error": it.error}
                       for it in iterations],
    }
    print("info " + json.dumps(info))
    for it in iterations:
        if it.error:
            print(f"{name} failed: {it.error}")
    print(f"{name} error_rate: {result['failed'] / result['attempted']:.4f}"
          f" ({result['failed']} of {result['attempted']} iterations)")
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric}: {entry['value']:.6g} {entry['unit']}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nhssh" / "cli.py").is_file():
        print(f"error: no nhssh sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (result,) = results.values()
    else:  # metric names are prefixed with their workload
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
