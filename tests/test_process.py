"""Fresh-interpreter checks: what `import nhssh` loads, and the OpenBLAS thread
pool a CLI process starts with."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nhssh
from nhssh import parallel

SRC = Path(nhssh.__file__).resolve().parent.parent
PUBLIC = {
    "Edge": "dynamics",
    "QuenchSpec": "dynamics",
    "evolve_propagator": "dynamics",
    "initial_edge_state": "dynamics",
    "run_quench": "dynamics",
    "LatticeConfig": "config",
    "build_hamiltonian": "lattice",
    "eigendecompose": "spectral",
}

IMPORT_PROBE = """
import json, os, sys
before = dict(os.environ)
import {module}
print(json.dumps({{
    "numpy": "numpy" in sys.modules,
    "concurrent.futures": "concurrent.futures" in sys.modules,
    "environ_unchanged": dict(os.environ) == before,
}}))
"""

# Runs `nhssh validate` as `python -m nhssh.cli` would, then reads the pool.
BLAS_PROBE = """
import runpy, sys
sys.argv = ["nhssh", "validate", "--config", sys.argv[1]]
try:
    runpy.run_module("nhssh.cli", run_name="__main__")
except SystemExit as exit:
    assert not exit.code, exit.code
from nhssh import parallel
print(parallel._blas_threads()[0]())
"""


def python(args, env=None, **kwargs) -> str:
    """stdout of a fresh interpreter on `args`, with the source tree first on
    its path and OPENBLAS_NUM_THREADS taken out of its environment before
    `env` is applied."""
    child = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), child.get("PYTHONPATH")]))
    child.update(env or {})
    done = subprocess.run([sys.executable, *args], env=child, capture_output=True,
                          text=True, check=True, **kwargs)
    return done.stdout


@pytest.mark.parametrize("module,numpy", [
    ("nhssh", False), ("nhssh.config", False), ("nhssh.scenarios", True),
])
def test_import_loads_no_thread_pool_and_leaves_the_environment(module, numpy):
    loaded = json.loads(python(["-c", IMPORT_PROBE.format(module=module)]))
    assert loaded == {"numpy": numpy, "concurrent.futures": False, "environ_unchanged": True}


def test_band_kernels_import_no_other_nhssh_module():
    probe = "import json, sys, nhssh.bands; print(json.dumps(sorted(sys.modules)))"
    loaded = json.loads(python(["-c", probe]))
    assert [name for name in loaded if name.startswith("nhssh")] == ["nhssh", "nhssh.bands"]


def test_cli_validate_leaves_numpy_unloaded(tmp_path):
    """Both the ok path and the config-error path of `nhssh validate`."""
    empty = tmp_path / "empty.cfg"
    empty.write_text("", encoding="ascii")
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("no_such_key = 1\n", encoding="ascii")
    probe = (
        "import sys\n"
        "from nhssh.cli import main\n"
        "for path in sys.argv[1:]:\n"
        "    print('code', main(['validate', '--config', path]), 'numpy' in sys.modules)\n"
    )
    lines = python(["-c", probe, str(empty), str(unknown)]).splitlines()
    assert [line for line in lines if line.startswith("code ")] == [
        "code 0 False", "code 2 False"]


def test_cli_refuses_a_set_of_an_unread_key_before_numpy_loads(tmp_path):
    out = tmp_path / "out"
    probe = (
        "import sys\n"
        "from nhssh.cli import main\n"
        "code = main(['run', '--scenario', 'ratio-sweep', '--set', 'side=left',\n"
        "             '--out', sys.argv[1]])\n"
        "print('code', code, 'numpy' in sys.modules)\n"
    )
    assert python(["-c", probe, str(out)]).split()[-3:] == ["code", "2", "False"]
    assert not out.exists()


def test_cli_import_after_numpy_leaves_the_environment():
    """Once numpy has loaded OpenBLAS, a default would reach only children."""
    probe = IMPORT_PROBE.format(module="nhssh.cli").replace(
        "import json, os, sys", "import json, os, sys\nimport numpy")
    loaded = json.loads(python(["-c", probe]))
    assert loaded["numpy"] and loaded["environ_unchanged"]


def test_package_serves_exactly_the_public_names():
    assert sorted(nhssh.__all__) == sorted(PUBLIC)
    assert nhssh.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(nhssh, "no_such_name")


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_name_is_its_submodules_object(name):
    module = importlib.import_module(f"nhssh.{PUBLIC[name]}")
    assert getattr(nhssh, name) is getattr(module, name)


@pytest.mark.parametrize("caller,expected", [(None, 1), ("2", 2)])
def test_cli_process_loads_openblas_on_one_thread_unless_the_caller_says(
        caller, expected, tmp_path):
    if parallel._blas_threads() is None:
        pytest.skip("numpy's BLAS exports no known OpenBLAS thread-count getter")
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS caps its pool at the core count")
    empty = tmp_path / "empty.cfg"
    empty.write_text("", encoding="ascii")
    env = {} if caller is None else {"OPENBLAS_NUM_THREADS": caller}
    out = python(["-c", BLAS_PROBE, str(empty)], env)
    assert int(out.split()[-1]) == expected


def test_lightcone_run_leaves_numpy_ma_unimported(tmp_path):
    """The heatmap clamp needs no np.percentile, which loads numpy.ma."""
    probe = (
        "import sys\n"
        "from nhssh.cli import main\n"
        "sets = ['n_cells=10', 'region_start=9', 'region_end=12', 't_max=10']\n"
        "code = main(['run', '--scenario', 'lightcone', '--out', sys.argv[1],\n"
        "             *(arg for item in sets for arg in ('--set', item))])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    assert python(["-c", probe, str(tmp_path)]).split()[-2:] == ["0", "False"]
    assert (tmp_path / "lightcone_right_clamp.txt").is_file()


def test_threaded_cli_sweep_writes_the_serial_bytes(tmp_path):
    """The 220-site reshuffle sweep (two grid points) through `python -m
    nhssh.cli`: workers call an OpenBLAS loaded with one thread."""
    csv = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        python(["-m", "nhssh.cli", "run", "--scenario", "reshuffle", "--out", str(out)],
               {"NHSSH_THREADS": threads})
        csv[threads] = (out / "reshuffle.csv").read_bytes()
    assert csv["1"] == csv["2"]
