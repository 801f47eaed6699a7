import filecmp
import math
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nhssh import bands, config, dynamics, scenarios, spectral
from nhssh.cli import main as cli_main
from nhssh.config import (
    SCENARIO_KEYS,
    ConfigError,
    ScenarioConfig,
    apply_overrides,
    parse_config,
    scenario_lattice,
    scenario_v_grid,
)
from nhssh.dynamics import Edge, edge_states, evolve_propagator
from nhssh.lattice import build_hamiltonian
from nhssh.observables import bipartite_norms, default_split
from nhssh.spectral import eigendecompose
from nhssh.scenarios import compute_ratio_sweep, ratio_crossing, run_scenario, time_grid

GOLDEN_DIR = Path(__file__).parent / "golden"

# Small centered block (9 + 12 = 2N + 1 for N = 10); v_initial low enough to
# keep the zero-mode pair far below the edge-state threshold.
TINY = dict(
    n_cells=10,
    region_start=9,
    region_end=12,
    u_re=0.75,
    u_im=0.75,
    v_initial=0.1,
    v_final=1.5,
    t_max=10.0,
    dt=0.5,
    t_sample=10.0,
)

TINY_SCENARIOS = {
    "spectrum": dict(TINY, scenario="spectrum", v_grid_start=0.5,
                     v_grid_stop=1.5, v_grid_step=0.5),
    "lightcone": dict(TINY, scenario="lightcone"),
    "bipartite": dict(TINY, scenario="bipartite"),
    "ratio-sweep": dict(TINY, scenario="ratio-sweep", v_grid_start=1.0,
                        v_grid_stop=1.5, v_grid_step=0.25),
    "reshuffle": dict(TINY, scenario="reshuffle"),
}


def tiny_config(scenario: str, out_dir: Path) -> ScenarioConfig:
    return ScenarioConfig(**TINY_SCENARIOS[scenario], output_dir=str(out_dir))


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_empty_config_is_flagship_default():
    cfg = parse_config("")
    assert cfg.n_cells == 110
    assert (cfg.region_start, cfg.region_end) == (109, 112)
    assert (cfg.u_re, cfg.u_im) == (0.75, 0.75)
    assert cfg.v_initial == 0.25
    assert cfg.w == 1.0


def test_single_key_override():
    cfg = parse_config("u_im = 0.25\n")
    assert cfg.u_im == 0.25
    assert cfg.u_re == 0.75


def test_comments_and_blank_lines():
    text = "# full-line comment\n\nscenario = lightcone  # trailing comment\n"
    assert parse_config(text).scenario == "lightcone"


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match=r"line 3.*no_such_key"):
        parse_config("\n\nno_such_key = 1\n")


def test_bad_value_reports_line_and_key():
    with pytest.raises(ConfigError, match=r"line 1.*n_cells"):
        parse_config("n_cells = ten\n")


def test_missing_equals_sign_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just words\n")


def test_region_bounds_error_names_key():
    with pytest.raises(ConfigError, match="region_start"):
        parse_config("region_start = 300\n")


def test_region_none_gives_pure_chain():
    cfg = parse_config("region_start = none\nregion_end = none\n")
    assert cfg.region_start is None and cfg.region_end is None
    with pytest.raises(ConfigError, match="region"):
        parse_config("region_start = none\n")


@pytest.mark.parametrize("line, key", [
    ("scenario = unknown", "scenario"),
    ("side = up", "side"),
    ("dt = 0", "dt"),
    ("threshold = -1", "threshold"),
    ("v_initial = -0.5", "v_initial"),
    ("v_grid_step = -0.1", "v_grid_step"),
])
def test_field_validation(line, key):
    # Each key is checked by a scenario that reads it.
    scenario = "spectrum" if key in SCENARIO_KEYS["spectrum"] else "lightcone"
    with pytest.raises(ConfigError, match=key):
        parse_config(f"scenario = {scenario}\n{line}\n")


def test_config_is_valid_by_construction():
    with pytest.raises(ConfigError, match="dt"):
        ScenarioConfig(scenario="lightcone", dt=0)
    with pytest.raises(ConfigError, match="side"):
        replace(ScenarioConfig(scenario="lightcone"), side="up")


def test_apply_overrides_matches_file_parsing():
    cfg = apply_overrides(ScenarioConfig(), ["u_im=0.25", "side=left"])
    assert cfg.u_im == 0.25 and cfg.side == "left"
    with pytest.raises(ConfigError, match="no_such"):
        apply_overrides(ScenarioConfig(), ["no_such=1"])


def test_grid_defaults_per_scenario():
    spectrum = scenario_v_grid(ScenarioConfig(scenario="spectrum"))
    assert len(spectrum) == 191
    assert spectrum[0] == pytest.approx(0.1) and spectrum[-1] == pytest.approx(2.0)
    ratio = scenario_v_grid(ScenarioConfig(scenario="ratio-sweep"))
    assert len(ratio) == 41
    reshuffle = scenario_v_grid(ScenarioConfig(scenario="reshuffle"))
    assert reshuffle == pytest.approx([1.125, 1.5])


def test_scenario_names_are_the_runners():
    assert tuple(scenarios._RUNNERS) == config.SCENARIOS


def built_grid(start: float, stop: float, step: float) -> list[float]:
    """scenario_v_grid of a grid that ScenarioConfig may reject."""
    return scenario_v_grid(SimpleNamespace(
        scenario="spectrum", v_grid_start=start, v_grid_stop=stop, v_grid_step=step))


def increasing(grid: list[float]) -> bool:
    return all(b > a for a, b in zip(grid, grid[1:]))


@pytest.mark.parametrize("start", [0.1, 1.0, 1.5, 1000.0])
def test_grid_step_rule_against_the_built_grid(start):
    """Just above twice the ulp of the last point the step is accepted and the
    built points increase; at or below it the step is rejected, and at half an
    ulp the built grid repeats a point."""
    bound = 2 * math.ulp(start)
    stop = start + 2.5 * bound  # three points, the last in start's binade

    def grid_config(step: float) -> ScenarioConfig:
        return ScenarioConfig(scenario="spectrum", v_grid_start=start,
                              v_grid_stop=stop, v_grid_step=step)

    grid = scenario_v_grid(grid_config(math.nextafter(bound, math.inf)))
    assert len(grid) == 3 and math.ulp(grid[-1]) == math.ulp(start)
    assert increasing(grid)
    for step in (bound, math.nextafter(bound, 0.0), bound / 4):
        with pytest.raises(ConfigError, match="v_grid_step"):
            grid_config(step)
    assert not increasing(built_grid(start, stop, bound / 4))


def test_grid_step_rule_ignores_one_point_grids_and_rejects_overflowing_counts():
    one_point = ScenarioConfig(v_grid_start=1.0, v_grid_stop=1.0, v_grid_step=1e-300)
    assert scenario_v_grid(one_point) == [1.0]
    # (stop - start) / step overflows to inf.
    with pytest.raises(ConfigError, match="v_grid_step"):
        ScenarioConfig(v_grid_start=0.0, v_grid_stop=2.0, v_grid_step=5e-324)


@pytest.mark.parametrize("changes, stop, key", [
    ({"scenario": "ratio-sweep", "v_grid_start": 0.0, "v_grid_step": 1.0},
     "v_grid_stop", "v_grid_step"),
    ({"scenario": "lightcone", "dt": 1.0}, "t_max", "dt"),
])
def test_grid_of_a_million_points_validates_without_being_built(changes, stop, key,
                                                                monkeypatch):
    def no_grid(*span):
        raise AssertionError(f"grid {span} built")

    monkeypatch.setattr(config, "_grid", no_grid)
    assert config._grid_count(0.0, 999999.0, 1.0) == 10**6
    ScenarioConfig(**changes, **{stop: 999999.0})
    with pytest.raises(ConfigError, match=key):
        ScenarioConfig(**changes, **{stop: 1e6})


def test_time_grid_contains_sample_default():
    cfg = ScenarioConfig()
    grid = time_grid(cfg)
    assert len(grid) == 1001
    assert grid[0] == 0.0 and grid[-1] == 500.0
    assert np.any(np.isclose(grid, cfg.t_sample, rtol=0, atol=1e-9))


# ---------------------------------------------------------------------------
# Scenario outputs
# ---------------------------------------------------------------------------

def read_lines(path: Path) -> list[str]:
    return path.read_bytes().decode("ascii").splitlines()


def test_spectrum_scenario_output(tmp_path):
    files = run_scenario(tiny_config("spectrum", tmp_path))
    lines = read_lines(tmp_path / "spectrum.csv")
    assert lines[0] == "v_over_w,index,branch,re_e,im_e,com,side"
    assert len(lines) == 1 + 3 * 20
    branches = {int(line.split(",")[2]) for line in lines[1:]}
    assert branches == set(range(20))
    assert files == [tmp_path / "spectrum.csv"]


def test_lightcone_scenario_output(tmp_path):
    files = run_scenario(tiny_config("lightcone", tmp_path))
    names = [f.name for f in files]
    assert names == [
        "lightcone_left.csv", "lightcone_left.pgm", "lightcone_left_clamp.txt",
        "lightcone_right.csv", "lightcone_right.pgm", "lightcone_right_clamp.txt",
    ]
    lines = read_lines(tmp_path / "lightcone_left.csv")
    assert lines[0] == "t,site,density"
    assert len(lines) == 1 + 21 * 20  # (#times) x (#sites)
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"


def test_lightcone_heatmap_structure(tmp_path):
    run_scenario(tiny_config("lightcone", tmp_path))
    blob = (tmp_path / "lightcone_left.pgm").read_bytes()
    header, rest = blob.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    width, height = map(int, dims.split())
    assert (width, height) == (21, 20)
    maxval, payload = rest.split(b"\n", 1)
    assert maxval == b"65535"
    assert len(payload) == 2 * width * height
    pixels = np.frombuffer(payload, dtype=">u2")
    assert pixels.max() == 65535  # clamp maps the top percentile to full scale
    sidecar = (tmp_path / "lightcone_left_clamp.txt").read_text()
    assert "rho_max" in sidecar and "percentile" in sidecar


def test_flagship_heatmap_pixels_are_bitwise_the_out_of_place_expression(tmp_path):
    cfg = ScenarioConfig(scenario="lightcone", output_dir=str(tmp_path))
    times = time_grid(cfg)
    tables = dynamics._quench_tables(scenarios._quench_spec(cfg), lambda s: np.abs(s) ** 2)
    for side, densities in tables.items():
        pgm = tmp_path / f"{side.value}.pgm"
        # _write_heatmap turns the table it is given into pixels.
        scenarios._write_heatmap(pgm, tmp_path / f"{side.value}.txt", times, densities.copy())
        image = densities.T
        rho_max = float(np.percentile(densities, 99.0))
        pixels = np.round(np.clip(image / rho_max, 0.0, 1.0) * 65535)
        header = f"P5\n{times.size} {densities.shape[1]}\n65535\n".encode("ascii")
        assert pgm.read_bytes() == header + pixels.astype(">u2").tobytes()


@settings(max_examples=60, deadline=None)
@example(values=np.array([0.25]))
@example(values=np.array([1.0, 0.0]))
@example(values=np.zeros(5000))
@example(values=np.linspace(0.0, 1.0, 101))
# Here the 99th percentile lerps down from the upper neighbour: from the lower
# one it would differ in the last bit.
@example(values=np.array([0.809, 0.501, 0.573, 0.574, 0.395, 0.63]))
@given(values=arrays(np.float64, st.integers(1, 5000),
                     elements=st.floats(allow_nan=False, allow_infinity=False)
                     | st.sampled_from([0.0, 0.5, 1.0])))
def test_clamp_is_numpys_99th_percentile_bit_for_bit(values):
    before = values.copy()
    clamp = scenarios._clamp(values)
    assert np.array_equal(values, before)
    assert np.float64(clamp).tobytes() == np.float64(np.percentile(values, 99.0)).tobytes()


# One flagship trajectory, 1001 samples x 220 sites of complex amplitudes, is
# 3.36 MB; these bounds stay below what whole trajectories would take.
@pytest.mark.parametrize("scenario, bound_mb", [("bipartite", 6.7), ("lightcone", 10.0)])
def test_flagship_quench_scenarios_hold_no_whole_trajectories(scenario, bound_mb, tmp_path):
    # A short run first, so that first-call allocations are not measured.
    run_scenario(ScenarioConfig(scenario=scenario, t_max=1.0, output_dir=str(tmp_path / "warm")))
    tracemalloc.start()
    try:
        run_scenario(ScenarioConfig(scenario=scenario, output_dir=str(tmp_path)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2**20


def test_write_table_streams_the_bytes_of_one_joined_text(tmp_path):
    rows = 200_000
    rng = np.random.default_rng(7)
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    floats[:6] = [-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-320]
    floats[rng.integers(0, rows, 50)] = np.nan
    columns = {
        "x": floats,
        "k": np.arange(-rows // 2, rows - rows // 2),
        "side": ["left", "right", "center"] * (rows // 3) + ["left"] * (rows % 3),
    }
    # The reference: every row's text joined in memory, then written at once.
    reference = "x,k,side\n" + "".join(
        f"{format(x, '.12g')},{k},{side}\n"
        for x, k, side in zip(floats.tolist(), columns["k"].tolist(), columns["side"])
    )
    expected = reference.encode("ascii")
    for special in (b"\n-0,", b"\n0,", b"\nnan,", b"\ninf,", b"\n-inf,"):
        assert special in expected

    path = tmp_path / "table.csv"
    tracemalloc.start()
    try:
        scenarios._write_table(path, "x,k,side",
                               scenarios._flat_rows("%.12g,%s,%s", *columns.values()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == expected
    # A writer that joins the whole text first holds at least the file.
    assert peak < len(expected) / 4


# Floats whose text is easy to get wrong: signed zeros, subnormals, the ends
# of the exponent range and the non-finite values.
_AWKWARD_FLOATS = [0.0, -0.0, -1.5, 5e-324, -2.5e-310, 1e300, -1e300, 1e-300,
                   -1e-300, math.inf, -math.inf, math.nan]


@settings(max_examples=40, deadline=None)
@example(rows=4097, floats=_AWKWARD_FLOATS, ints=[-(2**63), 0, 2**63 - 1],
         texts=["left", "", "right"], as_arrays=True)
@example(rows=0, floats=[1.0], ints=[1], texts=["x"], as_arrays=False)
@given(
    rows=st.sampled_from([0, 1, 4096, 4097]),
    floats=st.lists(st.one_of(st.sampled_from(_AWKWARD_FLOATS), st.floats()),
                    min_size=1, max_size=64),
    ints=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=16),
    texts=st.lists(st.text("abcxyz_-. ", max_size=8), min_size=1, max_size=8),
    as_arrays=st.booleans(),
)
def test_write_table_writes_the_bytes_of_a_per_row_format_reference(
        tmp_path_factory, rows, floats, ints, texts, as_arrays):
    def cycled(values):
        return [values[k % len(values)] for k in range(rows)]

    x, k, side = cycled(floats), cycled(ints), cycled(texts)
    columns = {"x": np.array(x) if as_arrays else x,
               "k": np.array(k, dtype=np.int64) if as_arrays else k,
               "side": side}
    expected = "x,k,side\n" + "".join(
        f"{format(a, '.12g')},{str(b)},{str(c)}\n" for a, b, c in zip(x, k, side)
    )
    path = tmp_path_factory.mktemp("table") / "table.csv"
    scenarios._write_table(path, "x,k,side",
                           scenarios._flat_rows("%.12g,%s,%s", *columns.values()))
    assert path.read_bytes() == expected.encode("ascii")


# 5 labels of 1000 rows fill one block with 4 and the next with 1; 4097 rows
# take a block to themselves.
@pytest.mark.parametrize("labels, inner", [(0, 3), (1, 1), (5, 1000), (3, 4097)])
def test_grid_rows_write_the_bytes_of_a_per_row_format_reference(tmp_path, labels, inner):
    rows = labels * inner
    label_text = [format(x, ".12g") for x in _AWKWARD_FLOATS[:labels]]
    sites = range(-1, inner - 1)
    x = np.resize(np.array(_AWKWARD_FLOATS), rows).reshape(labels, inner)
    k = np.arange(rows, dtype=np.int64).reshape(labels, inner) - 2**62
    side = np.resize(np.array(["left", "", "right"], dtype=object), rows).reshape(labels, inner)
    expected = "x,site,a,k,side\n" + "".join(
        f"{label_text[g]},{site},{format(x[g, j], '.12g')},{k[g, j]},{side[g, j]}\n"
        for g in range(labels) for j, site in enumerate(sites)
    )
    blocks = list(scenarios._grid_rows(label_text, sites, "%.12g,%s,%s", x, k, side))
    for row_format, values in blocks:
        count = row_format.count("\n")
        assert count <= max(scenarios._BLOCK_ROWS, inner)
        assert len(values) == 3 * count
    path = tmp_path / "grid.csv"
    scenarios._write_table(path, "x,site,a,k,side", blocks)
    assert path.read_bytes() == expected.encode("ascii")


def test_bipartite_scenario_output(tmp_path):
    run_scenario(tiny_config("bipartite", tmp_path))
    lines = read_lines(tmp_path / "bipartite.csv")
    assert lines[0] == "t,rho_left,rho_right,side_init"
    assert len(lines) == 1 + 2 * 21
    sides = [line.split(",")[3] for line in lines[1:]]
    assert sides == ["left"] * 21 + ["right"] * 21
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(1.0, abs=1e-6)


def test_ratio_sweep_scenario_output(tmp_path):
    run_scenario(tiny_config("ratio-sweep", tmp_path))
    lines = read_lines(tmp_path / "ratio_sweep.csv")
    assert lines[0] == "v_over_w,rho_right_init_right_half,rho_left_init_left_half,ratio"
    assert len(lines) == 1 + 3
    for line in lines[1:]:
        _, rho_r, rho_l, ratio = map(float, line.split(","))
        assert ratio == pytest.approx(rho_r / rho_l, rel=1e-9)


def test_reshuffle_scenario_output(tmp_path):
    run_scenario(tiny_config("reshuffle", tmp_path))
    lines = read_lines(tmp_path / "reshuffle.csv")
    assert lines[0] == "v_over_w,index,re_e,im_e,com,side"
    assert len(lines) == 1 + 2 * 20


def test_reshuffle_is_spectrum_without_branch_column(tmp_path):
    grid = dict(v_grid_start=0.5, v_grid_stop=1.5, v_grid_step=0.5)
    run_scenario(ScenarioConfig(**dict(TINY_SCENARIOS["spectrum"], **grid),
                                output_dir=str(tmp_path)))
    run_scenario(ScenarioConfig(**dict(TINY_SCENARIOS["reshuffle"], **grid),
                                output_dir=str(tmp_path)))
    spectrum = [line.split(",") for line in read_lines(tmp_path / "spectrum.csv")]
    reshuffle = [line.split(",") for line in read_lines(tmp_path / "reshuffle.csv")]
    assert reshuffle == [cells[:2] + cells[3:] for cells in spectrum]


def test_scenarios_are_deterministic(tmp_path):
    for scenario in TINY_SCENARIOS:
        out_a = tmp_path / f"{scenario}-a"
        out_b = tmp_path / f"{scenario}-b"
        files_a = run_scenario(tiny_config(scenario, out_a))
        files_b = run_scenario(tiny_config(scenario, out_b))
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert filecmp.cmp(fa, fb, shallow=False), fa.name


# A valid value, other than TINY's or the default, for each key that some
# scenario does not read.
UNREAD_VALUES = dict(v_initial=0.2, v_final=1.2, side="left", t_max=7.0, dt=0.25,
                     t_sample=5.0, zero_mode_tol=1e-2, v_grid_start=0.7, v_grid_stop=1.4,
                     v_grid_step=0.35, threshold=2.0)


@pytest.mark.parametrize("scenario", sorted(TINY_SCENARIOS))
def test_keys_a_scenario_does_not_read_change_none_of_its_bytes(scenario, tmp_path):
    base = tiny_config(scenario, tmp_path / "base")
    reference = run_scenario(base)
    unread = [f.name for f in fields(ScenarioConfig)
              if f.name not in SCENARIO_KEYS[scenario]]
    assert set(unread) <= set(UNREAD_VALUES)
    for key in unread:
        assert getattr(base, key) != UNREAD_VALUES[key], key
        cfg = replace(base, output_dir=str(tmp_path / key), **{key: UNREAD_VALUES[key]})
        written = run_scenario(cfg)
        assert [p.name for p in written] == [p.name for p in reference], key
        for ref, path in zip(reference, written):
            assert path.read_bytes() == ref.read_bytes(), (key, path.name)


@pytest.mark.parametrize("scenario", sorted(TINY_SCENARIOS))
def test_golden_files(scenario, tmp_path):
    """Schema lock: headers byte-exact, numbers equal to committed references."""
    files = run_scenario(tiny_config(scenario, tmp_path))
    for produced in files:
        if produced.suffix != ".csv":
            continue
        golden = GOLDEN_DIR / produced.name
        got = read_lines(produced)
        want = read_lines(golden)
        assert got[0] == want[0]
        assert len(got) == len(want)
        for line_got, line_want in zip(got[1:], want[1:]):
            for cell_got, cell_want in zip(line_got.split(","), line_want.split(",")):
                try:
                    np.testing.assert_allclose(float(cell_got), float(cell_want),
                                               rtol=1e-9, atol=1e-12)
                except ValueError:
                    assert cell_got == cell_want


def test_thread_count_does_not_change_output(tmp_path, monkeypatch):
    for scenario in ("spectrum", "lightcone", "ratio-sweep"):
        runs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("NHSSH_THREADS", threads)
            runs.append(run_scenario(tiny_config(scenario, tmp_path / scenario / threads)))
        assert [f.name for f in runs[0]] == [f.name for f in runs[1]]
        for fa, fb in zip(*runs):
            assert filecmp.cmp(fa, fb, shallow=False), f"{scenario}: {fa.name} differs"


def test_thread_count_does_not_change_flagship_size_sweeps(tmp_path, monkeypatch):
    """220 sites, where a serial eig would run on several BLAS threads."""
    grids = {
        "spectrum": dict(v_grid_start=1.0, v_grid_stop=1.1, v_grid_step=0.1 / 3),
        "ratio-sweep": dict(v_grid_start=1.0, v_grid_stop=1.05, v_grid_step=0.025),
    }
    for scenario, grid in grids.items():
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("NHSSH_THREADS", threads)
            cfg = ScenarioConfig(scenario=scenario, **grid,
                                 output_dir=str(tmp_path / scenario / threads))
            runs.append(run_scenario(cfg))
        assert len(scenario_v_grid(cfg)) == {"spectrum": 4, "ratio-sweep": 3}[scenario]
        assert [f.name for f in runs[0]] == [f.name for f in runs[1]]
        for fa, fb in zip(*runs):
            assert filecmp.cmp(fa, fb, shallow=False), f"{scenario}: {fa.name} differs"


@pytest.mark.parametrize("scenario", ["lightcone", "bipartite"])
def test_flagship_quench_bytes_do_not_depend_on_the_callers_blas_threads(
        scenario, tmp_path, blas_threads):
    """220 sites, where the caller's BLAS threads would split eig, inv and GEMM."""
    _, set_ = blas_threads
    runs = []
    for count in (1, 2):
        set_(count)
        cfg = ScenarioConfig(scenario=scenario, t_max=50.0,
                             output_dir=str(tmp_path / str(count)))
        runs.append(run_scenario(cfg))
    assert [f.name for f in runs[0]] == [f.name for f in runs[1]]
    for fa, fb in zip(*runs):
        assert filecmp.cmp(fa, fb, shallow=False), f"{scenario}: {fa.name} differs"


def test_ratio_crossing_detector():
    assert ratio_crossing([1.0, 2.0], [1.5, 0.5]) == pytest.approx(1.5)
    assert ratio_crossing([1.0, 2.0], [0.5, 1.5]) == pytest.approx(1.5)
    assert ratio_crossing([1.0, 2.0, 3.0], [1.2, 1.1, 1.05]) is None
    assert ratio_crossing([1.0, 2.0], [1.0, 0.5]) == 1.0
    assert ratio_crossing([1.0], [2.0]) is None
    assert ratio_crossing(np.array([1.0, 2.0]), np.array([1.5, 0.5])) == pytest.approx(1.5)
    assert ratio_crossing(np.array([1.0, 2.0, 3.0]), np.array([1.2, 1.0, 0.5])) == 2.0
    assert ratio_crossing(np.array([1.0, 2.0]), np.array([1.2, 1.0])) == 2.0
    assert ratio_crossing(np.array([1.0, 2.0]), np.array([1.2, 1.1])) is None


def test_compute_ratio_sweep_rows_match_grid(tmp_path):
    cfg = tiny_config("ratio-sweep", tmp_path)
    sweep = compute_ratio_sweep(cfg)
    assert sweep["v_over_w"].tolist() == pytest.approx([1.0, 1.25, 1.5])


def single_point_ratio_config(v_final: float, t_sample: float, **lattice) -> ScenarioConfig:
    """60-site ratio sweep from v/w = 0.25 with one final grid point."""
    return ScenarioConfig(scenario="ratio-sweep", n_cells=30, v_initial=0.25,
                          v_grid_start=v_final, v_grid_stop=v_final,
                          t_sample=t_sample, **lattice)


def test_ratio_sweep_symmetric_chain_is_unity():
    cfg = single_point_ratio_config(1.5, 20.0, region_start=None, region_end=None)
    [ratio] = compute_ratio_sweep(cfg)["ratio"]
    assert ratio == pytest.approx(1.0, abs=1e-6)


def test_ratio_sweep_mirror_inversion():
    # M H(u_re, u_im) M = H(u_re, -u_im) with M the site flip, which swaps the
    # edge states, so the mirrored ratio is 1 / ratio; G H(u_re, u_im) G =
    # -H(-u_re, u_im)* with G = +1 on A and -1 on B sites keeps every density.
    small = single_point_ratio_config(1.3, 40.0, region_start=29, region_end=32,
                                      u_re=0.75, u_im=0.75)
    roundoff = np.finfo(float).eps / 2
    # Each weight sums at most `terms` rounded Chebyshev terms, so it errs by
    # about terms * u relative; each identity compares two ratios of two weights.
    safety = 10
    for cfg in (small, ScenarioConfig(scenario="ratio-sweep")):
        ratio = compute_ratio_sweep(cfg)["ratio"]
        mirrored = compute_ratio_sweep(replace(cfg, u_im=-cfg.u_im))["ratio"]
        flipped = compute_ratio_sweep(replace(cfg, u_re=-cfg.u_re))["ratio"]
        # The half-width a of a lane's spectral enclosure is at most 2 ||H||_1;
        # a one-step lane's Bessel table holds ceil(1.5 a t) + 201 terms.
        norm = max(np.linalg.norm(build_hamiltonian(scenario_lattice(cfg, v)), 1)
                   for v in scenario_v_grid(cfg))
        assert 2 * norm * cfg.t_sample <= bands._CHEBYSHEV_MAX_ARGUMENT
        terms = math.ceil(1.5 * 2 * norm * cfg.t_sample) + 201
        bound = safety * 4 * terms * roundoff
        assert np.max(np.abs(ratio * mirrored - 1.0)) <= bound
        assert np.max(np.abs(flipped / ratio - 1.0)) <= bound


@pytest.mark.parametrize("t_sample", [100.0, 160.0])
def test_asymmetry_switch_window_holds_across_the_reflection_window(t_sample):
    """Criterion 6's crossing window, and criterion 7's ordering, at both ends
    of the flagship's first reflection, t in [100, 170]."""
    crossings = {}
    for u_im in (0.75, 1.0):
        sweep = compute_ratio_sweep(ScenarioConfig(scenario="ratio-sweep", u_im=u_im,
                                                   t_sample=t_sample))
        crossings[u_im] = ratio_crossing(sweep["v_over_w"], sweep["ratio"])
    assert crossings[0.75] is not None and 1.15 <= crossings[0.75] <= 1.35
    assert crossings[1.0] is not None and crossings[1.0] > crossings[0.75]


def switch_point(**changes) -> float | None:
    """``ratio_crossing`` of the ratio sweep on the default grid."""
    sweep = compute_ratio_sweep(ScenarioConfig(scenario="ratio-sweep", **changes))
    return ratio_crossing(sweep["v_over_w"], sweep["ratio"])


def test_asymmetry_switch_converges_with_chain_length():
    """The crossing is a property of the model, not of the 220-site chain: a
    4-site block starting on an A site within one site of the centre, sampled
    at a time that scales with the chain, crosses at the same v/w at 110, 220
    and 330 sites (measured spread 7.7e-5)."""
    crossings = [
        switch_point(n_cells=n_cells, region_start=start, region_end=start + 3,
                     t_sample=120.0 * n_cells / 110)
        for n_cells, start in ((55, 55), (110, 109), (165, 165))
    ]
    assert None not in crossings
    assert max(crossings) - min(crossings) < 3e-4


def test_asymmetry_switch_moves_up_with_block_strength():
    """Criteria 7-9 as a trend: with u_re = 0.75 the crossing rises with u_im
    (1.096, 1.196, 1.425 measured), and a purely imaginary block never
    crosses."""
    crossings = [switch_point(u_re=0.75, u_im=u_im) for u_im in (0.25, 0.65, 1.05)]
    assert None not in crossings
    assert all(low < high for low, high in zip(crossings, crossings[1:]))
    for u_im in (0.25, 1.05):
        assert switch_point(u_re=0.0, u_im=u_im) is None


def test_one_point_ratio_sweep_equals_its_point_in_the_flagship_sweep():
    flagship = compute_ratio_sweep(ScenarioConfig(scenario="ratio-sweep"))
    assert flagship["v_over_w"].size == 41
    for k in (0, 17, 40):
        v = float(flagship["v_over_w"][k])
        single = compute_ratio_sweep(ScenarioConfig(scenario="ratio-sweep",
                                                    v_grid_start=v, v_grid_stop=v))
        for name, column in single.items():
            assert column.tobytes() == flagship[name][k : k + 1].tobytes(), name


def test_ratio_sweep_at_t_zero_is_the_initial_edge_state_ratio():
    cfg = replace(single_point_ratio_config(1.3, 0.0, region_start=29, region_end=32,
                                            u_re=0.75, u_im=0.75), v_grid_stop=1.5)
    sweep = compute_ratio_sweep(cfg)
    lattice = scenario_lattice(cfg, cfg.v_initial)
    psi0 = edge_states(build_hamiltonian(lattice))
    rho_left, _ = bipartite_norms(psi0[Edge.LEFT], default_split(lattice))
    _, rho_right = bipartite_norms(psi0[Edge.RIGHT], default_split(lattice))
    assert sweep["v_over_w"].size == 9
    assert sweep["rho_left_init_left_half"].tolist() == [rho_left] * 9
    assert sweep["rho_right_init_right_half"].tolist() == [rho_right] * 9
    assert sweep["ratio"].tolist() == [rho_right / rho_left] * 9


class _StopAtEig(Exception):
    pass


@pytest.mark.parametrize("scenario", config.SCENARIOS)
def test_every_scenario_runs_its_eig_on_one_blas_thread(scenario, tmp_path,
                                                        monkeypatch, blas_threads):
    get, _ = blas_threads
    counts = []
    real_eig, real_eigvals = np.linalg.eig, spectral._eigvals

    def reading_eig(h):
        counts.append(get())
        return real_eig(h)

    def reading_eigvals(h):
        counts.append(get())
        return real_eigvals(h)

    def failing_eig(h):
        counts.append(get())
        raise _StopAtEig

    # eig decomposes the quench matrices; _eigvals gives the sweeps' eigenvalues.
    monkeypatch.setattr(np.linalg, "eig", reading_eig)
    monkeypatch.setattr(spectral, "_eigvals", reading_eigvals)
    run_scenario(tiny_config(scenario, tmp_path / "run"))
    assert counts and set(counts) == {1}
    assert get() == 2

    counts.clear()
    monkeypatch.setattr(np.linalg, "eig", failing_eig)
    monkeypatch.setattr(spectral, "_eigvals", failing_eig)
    with pytest.raises(_StopAtEig):
        run_scenario(tiny_config(scenario, tmp_path / "fail"))
    assert counts == [1]
    assert get() == 2


def test_ratio_sweep_zero_denominator(tmp_path, monkeypatch):
    # The left-half weight in the denominator vanishes, is so small that the
    # ratio overflows, or is NaN: the grid point fails the one finiteness rule.
    for left in (0.0, 1e-320, np.nan):
        monkeypatch.setattr(scenarios, "bipartite_norms", lambda states, split: (
            np.full(len(states), left), np.ones(len(states))))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeError, match="not finite"):
                compute_ratio_sweep(tiny_config("ratio-sweep", tmp_path))


def test_bipartite_both_sides_decomposes_each_matrix_once(tmp_path, monkeypatch):
    calls = []
    real_eig = np.linalg.eig

    def counting_eig(h):
        calls.append(h.shape)
        return real_eig(h)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    run_scenario(tiny_config("bipartite", tmp_path))
    assert len(calls) == 2  # H_initial and H_final, shared by both sides


def test_flagship_bipartite_decomposes_pt_hamiltonians_in_real_form(tmp_path, monkeypatch):
    calls = []
    real_eig = np.linalg.eig

    def recording_eig(h):
        calls.append(h.dtype)
        return real_eig(h)

    monkeypatch.setattr(np.linalg, "eig", recording_eig)
    for region, dtype in (((109, 112), np.float64), ((107, 110), np.complex128)):
        calls.clear()
        cfg = ScenarioConfig(scenario="bipartite", region_start=region[0],
                             region_end=region[1], output_dir=str(tmp_path / str(region[0])))
        run_scenario(cfg)
        assert calls == [np.dtype(dtype)] * 2, region


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def tiny_args(scenario: str, out: Path) -> list[str]:
    sets = [f"{k}={v}" for k, v in TINY_SCENARIOS[scenario].items()
            if k != "scenario" and k in SCENARIO_KEYS[scenario]]
    args = ["run", "--scenario", scenario, "--out", str(out)]
    for item in sets:
        args += ["--set", item]
    return args


def test_cli_run_success(tmp_path, capsys):
    assert cli_main(tiny_args("ratio-sweep", tmp_path)) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed == [str(tmp_path / "ratio_sweep.csv")]


def test_cli_config_error_exit_code(tmp_path, capsys):
    code = cli_main(["run", "--scenario", "spectrum", "--out", str(tmp_path),
                     "--set", "region_start=999"])
    assert code == 2
    assert "region_start" in capsys.readouterr().err


def test_cli_bad_thread_count_is_config_error(tmp_path, capsys, monkeypatch):
    config = tmp_path / "empty.cfg"
    config.write_text("")
    for raw in ("abc", "0", "-3"):
        monkeypatch.setenv("NHSSH_THREADS", raw)
        assert cli_main(tiny_args("reshuffle", tmp_path)) == 2, raw
        assert "NHSSH_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "reshuffle.csv").exists()
        assert cli_main(["validate", "--config", str(config)]) == 2, raw
        assert "NHSSH_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("assignment", [
    "dt=nan",
    "t_max=inf",
    "v_grid_stop=inf",
    "zero_mode_tol=nan",
    "u_im=-inf",
    "v_grid_start=-0.5",
])
def test_cli_rejects_non_finite_values_and_negative_grid_start(tmp_path, capsys, assignment):
    key, value = assignment.split("=")
    # The ratio sweep reads no time grid; the light cone reads one.
    scenario = "ratio-sweep" if key in SCENARIO_KEYS["ratio-sweep"] else "lightcone"
    config = tmp_path / "case.cfg"
    config.write_text(f"scenario = {scenario}\n{key} = {value}\n")
    assert cli_main(["validate", "--config", str(config)]) == 2
    assert key in capsys.readouterr().err
    assert cli_main(tiny_args(scenario, tmp_path) + ["--set", assignment]) == 2
    assert key in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_cli_grid_step_too_small_to_separate_points_exit_code(tmp_path, capsys):
    # A step below one ulp of 1.0: the built points round onto each other.
    sets = ["n_cells=10", "region_start=9", "region_end=12", "v_grid_start=1.0",
            "v_grid_stop=1.000000000000001", "v_grid_step=1e-16"]
    assert not increasing(built_grid(1.0, 1.000000000000001, 1e-16))
    config_file = tmp_path / "case.cfg"
    config_file.write_text("".join(f"{item}\n" for item in sets))
    assert cli_main(["validate", "--config", str(config_file)]) == 2
    assert "v_grid_step" in capsys.readouterr().err
    for scenario in ("spectrum", "ratio-sweep"):
        out = tmp_path / scenario
        args = ["run", "--scenario", scenario, "--out", str(out)]
        for item in sets:
            args += ["--set", item]
        assert cli_main(args) == 2, scenario
        assert "v_grid_step" in capsys.readouterr().err
        assert not out.exists()


# Grids of 10**12 + 1, 10**12 + 1 and 10**17 + 1 points.
@pytest.mark.parametrize("scenario, sets, key", [
    ("ratio-sweep", ["v_grid_stop=1e12", "v_grid_step=1"], "v_grid_step"),
    ("lightcone", ["t_max=1e12", "dt=1"], "dt"),
    ("bipartite", ["t_max=1", "dt=1e-17"], "dt"),
])
def test_cli_grid_of_more_than_a_million_points_exit_code(scenario, sets, key, tmp_path,
                                                         capsys, monkeypatch):
    def no_run(cfg):
        raise AssertionError("run_scenario called")

    monkeypatch.setattr(scenarios, "run_scenario", no_run)
    config_file = tmp_path / "case.cfg"
    config_file.write_text("".join(f"{item}\n" for item in [f"scenario={scenario}", *sets]))
    assert cli_main(["validate", "--config", str(config_file)]) == 2
    assert key in capsys.readouterr().err
    out = tmp_path / "out"
    args = ["run", "--scenario", scenario, "--out", str(out)]
    for item in sets:
        args += ["--set", item]
    assert cli_main(args) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


# Each key is finite, but v = (v/w) * w overflows at a v/w the scenario reads:
# the last grid point of the ratio sweep is 1 + 18000 * 1e303. Or a band entry
# of H is finite but its square, which the sweeps' centres of mass form, is
# not: such a key is named as "<entry>**2".
@pytest.mark.parametrize("scenario, sets, key", [
    ("lightcone", ["v_initial=1e308"], "v_initial"),
    ("bipartite", ["v_final=1e308"], "v_final"),
    ("spectrum", ["v_grid_start=1e308", "v_grid_stop=1e308"], "v_grid_start"),
    ("ratio-sweep", ["v_grid_stop=1.8e307", "v_grid_step=1e303"], "v_grid_stop"),
    pytest.param("reshuffle", ["n_cells=10", "region_start=9", "region_end=12", "w=1e160"],
                 "w**2", id="reshuffle-w-squared"),
    pytest.param("spectrum", ["u_re=1e308", "u_im=1e308"], "u_re**2",
                 id="spectrum-u_re-squared"),
    pytest.param("ratio-sweep", ["u_im=-2e154"], "u_im**2", id="ratio-sweep-u_im-squared"),
    pytest.param("lightcone", ["v_initial=1e154"], "(v_initial * w)**2",
                 id="lightcone-v_initial-hopping-squared"),
    pytest.param("ratio-sweep", ["v_grid_stop=1e154", "v_grid_step=1e153"],
                 "(v_grid_stop * w)**2", id="ratio-sweep-v_grid_stop-hopping-squared"),
])
def test_cli_overflowing_hopping_exit_code(scenario, sets, key, tmp_path, capsys,
                                          monkeypatch):
    def no_run(cfg):
        raise AssertionError("run_scenario called")

    monkeypatch.setattr(scenarios, "run_scenario", no_run)
    sets = ["w=10", *sets]
    message = f"{key} must be finite" if key.endswith("**2") else f"{key} * w must be finite"
    config_file = tmp_path / "case.cfg"
    config_file.write_text("".join(f"{item}\n" for item in [f"scenario={scenario}", *sets]))
    assert cli_main(["validate", "--config", str(config_file)]) == 2
    assert message in capsys.readouterr().err
    out = tmp_path / "out"
    args = ["run", "--scenario", scenario, "--out", str(out)]
    for item in sets:
        args += ["--set", item]
    assert cli_main(args) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_unreadable_config_exit_code(tmp_path, capsys):
    code = cli_main(["run", "--scenario", "spectrum",
                     "--config", str(tmp_path / "missing.cfg")])
    assert code == 2


def test_cli_config_file_not_utf8_exit_code(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"\xff\xfe scenario = spectrum\n")
    out = tmp_path / "out"
    for args in (["validate", "--config", str(config)],
                 ["run", "--scenario", "bipartite", "--config", str(config),
                  "--out", str(out)]):
        assert cli_main(args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config file:"), err
        assert "Traceback" not in err
    assert not out.exists()


def test_cli_simulation_error_exit_code(tmp_path, capsys):
    # v_initial beyond the transition: no edge state to quench from.
    code = cli_main(["run", "--scenario", "lightcone", "--out", str(tmp_path),
                     "--set", "n_cells=10", "--set", "region_start=9",
                     "--set", "region_end=12", "--set", "v_initial=1.5",
                     "--set", "t_max=5"])
    assert code == 3
    assert "lightcone" in capsys.readouterr().err


def test_cli_linalg_error_exit_code(tmp_path, capsys, monkeypatch):
    def failing_eig(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", failing_eig)
    assert cli_main(tiny_args("lightcone", tmp_path)) == 3
    err = capsys.readouterr().err
    assert "lightcone" in err and "did not converge" in err


def test_cli_memory_error_exit_code(tmp_path, capsys, monkeypatch):
    # A valid config can ask for more memory than there is (n_cells=1000000
    # asks build_hamiltonian for 58 TiB); whether such an allocation fails at
    # once depends on the machine, so the failure is raised here instead.
    def out_of_memory(cfg):
        raise MemoryError("Unable to allocate 58.2 TiB")

    monkeypatch.setattr(scenarios, "run_scenario", out_of_memory)
    assert cli_main(tiny_args("bipartite", tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("simulation error in scenario 'bipartite':"), err
    assert "Unable to allocate" in err and "Traceback" not in err


def test_cli_propagator_series_failure_exit_code(tmp_path, capsys, monkeypatch):
    # Every eigenbasis is past the condition ceiling, so the propagator route
    # runs, and with no series terms no step meets its tail bound.
    monkeypatch.setattr(dynamics, "CONDITION_CEILING", 0.0)
    monkeypatch.setattr(dynamics, "_TAYLOR_MAX_TERMS", 0)
    assert cli_main(tiny_args("lightcone", tmp_path)) == 3
    err = capsys.readouterr().err
    assert "lightcone" in err and "propagator step dt=" in err
    assert "series misses its tail bound" in err


def test_cli_t_sample_beyond_the_chebyshev_step_count_exit_code(tmp_path, capsys):
    args = tiny_args("ratio-sweep", tmp_path) + ["--set", "t_sample=1e300"]
    assert cli_main(args) == 3
    err = capsys.readouterr().err
    assert "ratio-sweep" in err and "Chebyshev steps" in err
    assert not (tmp_path / "ratio_sweep.csv").exists()


# A 20-site chain whose norm stays 1 needs 2 * 10^6 steps at t = 10^9 (a = 2).
# Past the step cap it is refused before any work, not run for hours.
def test_cli_t_sample_past_the_chebyshev_step_cap_exit_code(tmp_path, capsys):
    args = ["run", "--scenario", "ratio-sweep", "--out", str(tmp_path)]
    for item in ("n_cells=10", "region_start=9", "region_end=12", "u_re=0", "u_im=0",
                 "t_sample=1e9", "v_grid_stop=1.0"):
        args += ["--set", item]
    assert cli_main(args) == 3
    err = capsys.readouterr().err
    assert "ratio-sweep" in err and "Chebyshev steps" in err
    assert not list(tmp_path.glob("*.csv"))


# A block mode with Im E ~ 0.31 at v/w = 0.5 overflows exp(-iEt) by t = 5000.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scenario", ["lightcone", "bipartite"])
def test_cli_overflowing_quench_exit_code(tmp_path, capsys, scenario):
    args = ["run", "--scenario", scenario, "--out", str(tmp_path)]
    for item in ("n_cells=30", "region_start=29", "region_end=32", "v_final=0.5",
                 "t_max=5000", "dt=100"):
        args += ["--set", item]
    assert cli_main(args) == 3
    err = capsys.readouterr().err
    assert scenario in err and "edge state is not finite at t=" in err
    assert not list(tmp_path.glob("*.csv"))


# The same mode overflows at sample 232 (t = 2320) of a dt = 10 grid: in the
# second block of the spectral route.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scenario", ["lightcone", "bipartite"])
def test_cli_quench_overflowing_after_the_first_block_exit_code(tmp_path, capsys, scenario):
    overrides = {"n_cells": 30, "region_start": 29, "region_end": 32, "v_final": 0.5,
                 "t_max": 5000.0, "dt": 10.0}
    cfg = ScenarioConfig(scenario=scenario, **overrides)
    times = time_grid(cfg)
    # The left edge state goes first; its first non-finite sample, from the
    # whole-grid spectral expression.
    es = eigendecompose(build_hamiltonian(scenario_lattice(cfg, cfg.v_final)))
    psi0 = edge_states(build_hamiltonian(scenario_lattice(cfg, cfg.v_initial)))[Edge.LEFT]
    coeff = es.left_vectors.conj().T @ psi0
    phases = np.exp(-1j * np.outer(es.eigenvalues, times))
    finite = np.isfinite(es.right_vectors @ (coeff[:, np.newaxis] * phases)).all(axis=0)
    first = int(np.argmin(finite))
    assert not finite[first] and first >= dynamics._TIME_BLOCK

    args = ["run", "--scenario", scenario, "--out", str(tmp_path)]
    for key, value in overrides.items():
        args += ["--set", f"{key}={value}"]
    assert cli_main(args) == 3
    err = capsys.readouterr().err
    assert scenario in err
    assert f"left edge state is not finite at t={times[first]:g}" in err
    assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*.pgm"))


# Block modes with Im E up to 0.064 grow |psi|^2 past the float range by t = 10000.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_overflowing_ratio_sweep_exit_code(tmp_path, capsys):
    args = ["run", "--scenario", "ratio-sweep", "--out", str(tmp_path)]
    for item in ("n_cells=30", "region_start=29", "region_end=32", "t_sample=10000",
                 "v_grid_stop=1.1"):
        args += ["--set", item]
    assert cli_main(args) == 3
    err = capsys.readouterr().err
    assert "ratio-sweep" in err and "at v/w=1 is not finite at t=10000" in err
    assert not list(tmp_path.glob("*.csv"))


# A one-site block's Im d sums to -+u_im. Centred at the midpoint of the
# imaginary side, the expansion puts every near-real eigenvalue off the scaled
# real axis: rho_right read 1.4e25 at site 109, where the propagator gives 0.166.
@pytest.mark.parametrize("site", [109, 110])
def test_one_site_block_ratio_sweep_matches_the_propagator(site):
    cfg = ScenarioConfig(scenario="ratio-sweep", region_start=site, region_end=site,
                         v_grid_stop=1.1)
    columns = compute_ratio_sweep(cfg)
    lattice = scenario_lattice(cfg, cfg.v_initial)
    psi0 = edge_states(build_hamiltonian(lattice))
    split = default_split(lattice)
    for g, ratio in enumerate(scenario_v_grid(cfg)):
        h = build_hamiltonian(scenario_lattice(cfg, ratio))
        [left], _ = bipartite_norms(
            evolve_propagator(h, psi0[Edge.LEFT], [cfg.t_sample]).states, split)
        _, [right] = bipartite_norms(
            evolve_propagator(h, psi0[Edge.RIGHT], [cfg.t_sample]).states, split)
        assert columns["rho_left_init_left_half"][g] == pytest.approx(left, rel=1e-8)
        assert columns["rho_right_init_right_half"][g] == pytest.approx(right, rel=1e-8)


# Near an end of the chain the edge state weights a strongly damped block mode
# whose expansion terms cancel: the sum is finite and off by 2 (site 21) to
# 8.5e6 (site 7) relative. Its estimated rounding error turns it into NaN.
@pytest.mark.parametrize("site", [7, 13, 21])
def test_cli_ratio_sweep_that_loses_its_digits_exit_code(site, tmp_path, capsys):
    args = ["run", "--scenario", "ratio-sweep", "--out", str(tmp_path)]
    for item in (f"region_start={site}", f"region_end={site}", "v_grid_stop=1.1"):
        args += ["--set", item]
    assert cli_main(args) == 3
    err = capsys.readouterr().err
    assert "ratio-sweep" in err and "at v/w=1 is not finite at t=120" in err
    assert "lost its digits" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("scenario", ["lightcone", "bipartite", "ratio-sweep"])
@pytest.mark.parametrize("start, end", [("none", "none"), (1, 2)])
def test_cli_one_cell_chain_has_no_edge_states_exit_code(scenario, start, end, tmp_path,
                                                         capsys):
    args = ["run", "--scenario", scenario, "--out", str(tmp_path), "--set", "n_cells=1",
            "--set", f"region_start={start}", "--set", f"region_end={end}"]
    assert cli_main(args) == 3
    err = capsys.readouterr().err
    assert scenario in err and "edge states need a chain of at least 4 sites, got 2" in err
    assert not list(tmp_path.glob("*.csv"))


# u = -+i puts an exceptional point of the block's central bond at E = 0, so a
# block mode joins the two edge modes below the zero-mode tolerance.
@pytest.mark.parametrize("scenario", ["bipartite", "ratio-sweep"])
def test_cli_block_mode_at_zero_energy_has_no_edge_states_exit_code(scenario, tmp_path,
                                                                     capsys):
    args = ["run", "--scenario", scenario, "--out", str(tmp_path), "--set", "u_re=0",
            "--set", "u_im=1.0"]
    assert cli_main(args) == 3
    err = capsys.readouterr().err
    assert scenario in err and "edge states need exactly 2 modes with |E| < 0.001, found 4" in err
    assert not list(tmp_path.glob("*.csv"))


# The three smallest |E| of the flagship's initial H are 8.5e-16, 2.8e-15 and
# 8.3e-2: a zero_mode_tol of 0.1 admits a block mode, one of 0.05 only the pair.
ZERO_MODE_TOL_RUNS = {"lightcone": "t_max=5", "bipartite": "t_max=5",
                      "ratio-sweep": "v_grid_stop=1.05"}


@pytest.mark.parametrize("scenario", sorted(ZERO_MODE_TOL_RUNS))
def test_cli_zero_mode_tol_reaches_every_quench_scenario(scenario, tmp_path, capsys):
    args = ["run", "--scenario", scenario, "--out", str(tmp_path),
            "--set", ZERO_MODE_TOL_RUNS[scenario], "--set", "zero_mode_tol=0.1"]
    assert cli_main(args) == 3
    err = capsys.readouterr().err
    assert scenario in err and "edge states need exactly 2 modes with |E| < 0.1, found 3" in err
    assert not list(tmp_path.glob("*.csv"))


def test_cli_zero_mode_tol_between_the_pair_and_the_block_mode_changes_no_byte(tmp_path):
    base = ["run", "--scenario", "bipartite", "--set", "t_max=5"]
    assert cli_main([*base, "--out", str(tmp_path / "default")]) == 0
    assert cli_main([*base, "--set", "zero_mode_tol=0.05", "--out", str(tmp_path / "tol")]) == 0
    assert filecmp.cmp(tmp_path / "default" / "bipartite.csv", tmp_path / "tol" / "bipartite.csv",
                       shallow=False)


def test_cli_run_that_exits_3_leaves_no_output_directory(tmp_path, capsys):
    # The 20-site chain's smallest |E| is 6.3e-7: no edge state below 1e-30.
    out = tmp_path / "out"
    code = cli_main(["run", "--scenario", "bipartite", "--out", str(out), "--set", "n_cells=10",
                     "--set", "region_start=9", "--set", "region_end=12", "--set", "t_max=5",
                     "--set", "zero_mode_tol=1e-30"])
    assert code == 3
    assert "edge states" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("assignment, key", [
    ("t_sample=-1", "t_sample"),
    ("v_grid_stop=0.5", "v_grid_stop"),  # below the ratio sweep's start, 1.0
])
def test_cli_rejects_negative_t_sample_and_a_grid_that_stops_before_it_starts(
        assignment, key, tmp_path, capsys):
    args = ["run", "--scenario", "ratio-sweep", "--out", str(tmp_path), "--set", assignment]
    assert cli_main(args) == 2
    assert key in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("scenario, sets", [
    ("ratio-sweep", ["side=left"]),
    ("reshuffle", ["t_max=1", "dt=1e-17"]),  # a grid of 10^17 points, unread
    ("bipartite", ["t_sample=-1"]),
    ("spectrum", ["v_initial=0.5", "u_im=0.5", "v_final=nan"]),
])
def test_cli_refuses_a_set_of_a_key_the_scenario_does_not_read(scenario, sets, tmp_path,
                                                               capsys):
    out = tmp_path / "out"
    args = ["run", "--scenario", scenario, "--out", str(out)]
    for item in sets:
        args += ["--set", item]
    assert cli_main(args) == 2
    unread = [item.split("=")[0] for item in sets if not item.startswith("u_im")]
    err = capsys.readouterr().err
    assert err == f"config error: scenario {scenario} does not read --set {', '.join(unread)}\n"
    assert not out.exists()


def test_cli_accepts_unread_keys_in_a_config_file_and_validate_lists_them(tmp_path, capsys):
    config_file = tmp_path / "case.cfg"
    config_file.write_text("scenario = ratio-sweep\nside = left\ndt = nan\nt_sample = 10\n")
    assert cli_main(["validate", "--config", str(config_file)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: scenario=ratio-sweep, 220 sites, ")
    assert out.endswith(", v_initial/w=0.25; not read by ratio-sweep: side, dt\n")
    # Run as a scenario that reads dt, the same file is refused.
    assert cli_main(["run", "--scenario", "bipartite", "--config", str(config_file),
                     "--out", str(tmp_path / "out")]) == 2
    assert "dt must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # A scenario that does not read v_initial does not print it.
    config_file.write_text("scenario = spectrum\nv_initial = -1\n")
    assert cli_main(["validate", "--config", str(config_file)]) == 0
    assert capsys.readouterr().out == (
        "ok: scenario=spectrum, 220 sites, region=109..112, u=(0.75, 0.75); "
        "not read by spectrum: v_initial\n"
    )


def test_cli_validate_names_a_pure_chain(tmp_path, capsys):
    config = tmp_path / "pure.cfg"
    config.write_text("region_start = none\nregion_end = none\n")
    assert cli_main(["validate", "--config", str(config)]) == 0
    assert "region=none" in capsys.readouterr().out


def test_heatmap_of_a_zero_trajectory_is_black(tmp_path):
    times = np.array([0.0, 0.5, 1.0])
    scenarios._write_heatmap(tmp_path / "zero.pgm", tmp_path / "zero.txt", times,
                             np.zeros((3, 4)))
    assert (tmp_path / "zero.pgm").read_bytes() == b"P5\n3 4\n65535\n" + bytes(2 * 3 * 4)
    assert "rho_max: 0 (" in (tmp_path / "zero.txt").read_text()


def test_cli_validate(tmp_path, capsys):
    config = tmp_path / "case.cfg"
    config.write_text("scenario = bipartite\nu_im = 0.25\n")
    assert cli_main(["validate", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "bipartite" in out and "220 sites" in out

    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 1\n")
    assert cli_main(["validate", "--config", str(bad)]) == 2


def test_cli_config_file_plus_overrides(tmp_path):
    config = tmp_path / "case.cfg"
    config.write_text("\n".join(f"{k} = {v}" for k, v in
                                TINY_SCENARIOS["bipartite"].items()) + "\n")
    out = tmp_path / "out"
    code = cli_main(["run", "--scenario", "bipartite", "--config", str(config),
                     "--out", str(out), "--set", "side=left"])
    assert code == 0
    lines = read_lines(out / "bipartite.csv")
    assert len(lines) == 1 + 21  # one side only


def test_cli_scenario_and_overrides_are_checked_only_together(tmp_path, capsys):
    # The file's grid stop is valid for its own scenario (spectrum, start 0.1)
    # and below ratio-sweep's default start (1.0): only --set makes it valid.
    config = tmp_path / "case.cfg"
    config.write_text("v_grid_stop = 0.5\n")
    args = ["run", "--scenario", "ratio-sweep", "--config", str(config),
            "--out", str(tmp_path)]
    for item in [f"{k}={v}" for k, v in TINY.items()
                 if k in SCENARIO_KEYS["ratio-sweep"]] + ["v_grid_start=0.2",
                                                         "v_grid_step=0.25"]:
        args += ["--set", item]
    assert cli_main(args) == 0, capsys.readouterr().err
    assert read_lines(tmp_path / "ratio_sweep.csv")[1].startswith("0.2,")
    assert read_lines(tmp_path / "ratio_sweep.csv")[-1].startswith("0.45,")


def test_cli_set_beats_scenario_and_out_beats_set(tmp_path):
    args = tiny_args("spectrum", tmp_path) + ["--set", "scenario=reshuffle"]
    assert cli_main(args) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["reshuffle.csv"]
    out = tmp_path / "out"
    args = tiny_args("reshuffle", out) + ["--set", f"output_dir={tmp_path / 'set'}"]
    assert cli_main(args) == 0
    assert (out / "reshuffle.csv").exists() and not (tmp_path / "set").exists()
