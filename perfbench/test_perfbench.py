"""Tests of the benchmark itself. The tier-1 suite collects tests/ only; run these with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
from nhssh.scenarios import parse_config, scenario_v_grid, time_grid  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_names_what_the_harness_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert list(checks.CHECKS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(m) for m in tracer.PER_LAYER
    ]


@pytest.mark.parametrize("seed", [0, 1, 7, 123456])
def test_seeds_move_inputs_but_keep_the_work_size(seed):
    for workload in workloads.WORKLOADS.values():
        inputs = workload.make_inputs(seed)
        assert (inputs.config_text() == "") == (seed == 0)
        cfg = parse_config(inputs.config_text())
        scenario = workload.scenarios[0]
        if inputs.grid:
            grid = scenario_v_grid(replace(cfg, scenario=scenario))
            assert grid == list(inputs.grid)
            assert len(grid) == (191 if scenario == "spectrum" else 41)
        else:
            assert cfg.v_final == inputs.v_final and 1.4 <= cfg.v_final <= 1.6
            assert list(time_grid(cfg)) == [k * workloads.DT for k in range(1001)]


def test_the_harness_process_stays_small():
    # A child's reported peak RSS includes its parent's, so run.py must not load numpy.
    code = "import sys, run; assert 'numpy' not in sys.modules, 'numpy imported'"
    subprocess.run([sys.executable, "-c", code], cwd=run.BENCH, check=True, timeout=60)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        (1, "parallel.thread_map", 0.0, 10.0, None, 2),
        (2, "parallel.item", 1.0, 6.0, 1, 0),
        (3, "parallel.item", 4.0, 9.0, 1, 0),
        (4, "linalg.eig", 2.0, 3.0, 2, 0),
    ]
    totals = tracer.span_totals(spans)
    assert totals["parallel.thread_map"]["self"] == pytest.approx(2.0)
    assert totals["parallel.item"]["self"] == pytest.approx(9.0)
    metrics = tracer.layer_metrics(totals, 0, 0)
    assert metrics["parallel.thread_map.busy_s"] == pytest.approx(10.0)
    assert metrics["parallel.efficiency"] == pytest.approx(0.5)
    assert metrics["linalg.eig.calls"] == 1


def test_traced_cli_counts_the_kernels_behind_each_call(tmp_path):
    config = tmp_path / "small.cfg"
    config.write_text("n_cells = 10\nregion_start = 9\nregion_end = 12\n"
                      "v_grid_start = 0.5\nv_grid_stop = 0.9\nv_grid_step = 0.1\n")
    spans_file = tmp_path / "spans.json"
    subprocess.run(
        [sys.executable, str(run.TRACER), str(spans_file), "run", "--scenario", "spectrum",
         "--config", str(config), "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(run.SRC)}, check=True, timeout=60,
        stdout=subprocess.DEVNULL,
    )
    totals = tracer.span_totals(json.loads(spans_file.read_text()))
    metrics = tracer.layer_metrics(totals, 0, 0)
    assert metrics["linalg.eig.calls"] == 5
    assert metrics["linalg.inv.calls"] == 5
    assert metrics["linalg.svd.calls"] == 10  # cond and the completeness 2-norm
    assert metrics["spectral.spectrum_sweep.rows"] == 5 * 20
    assert metrics["observables.calls"] == 2 * 5 * 20
    assert metrics["scenarios.write_s"] > 0
    assert metrics["parallel.efficiency"] == pytest.approx(1.0, abs=0.01)


def _rewrite(path, edit):
    lines = path.read_text(encoding="ascii").split("\n")
    path.write_text("\n".join(edit(lines)), encoding="ascii")


def test_corrupted_outputs_count_as_failed_iterations(tmp_path):
    with run.Bench("quench-pair", 0, tmp_path) as bench:
        bench.build()
        iterations = _corrupted_iterations(bench)
    assert "propagator" in iterations[0].error
    assert iterations[1].error is None
    assert "differ from an earlier iteration" in iterations[2].error
    result = run.summarize(iterations, [0.2], trace=False)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 2)


def _corrupted_iterations(bench):
    """Three iterations: a wrong density at a checked time, a clean run, one flipped pixel."""
    spawn, corruption = bench.spawn, []

    def corrupting_spawn(cmd):
        outcome = spawn(cmd)
        if corruption and "bipartite" in cmd:
            corruption.pop()()
        return outcome

    bench.spawn = corrupting_spawn

    def density_at_t0():  # t = 0 is always among the sampled times
        def edit(lines):
            t, site, _ = lines[1].split(",")
            return [lines[0], f"{t},{site},0.5", *lines[2:]]
        _rewrite(bench.out / "lightcone_left.csv", edit)

    def last_pixel():  # no check reads pixels; only the sha256 comparison sees it
        pgm = bench.out / "lightcone_right.pgm"
        data = bytearray(pgm.read_bytes())
        data[-1] ^= 1
        pgm.write_bytes(bytes(data))

    iterations = []
    for corrupt in (density_at_t0, None, last_pixel):
        if corrupt:
            corruption.append(corrupt)
        iterations.append(bench.iteration(traced=False))
    return iterations
