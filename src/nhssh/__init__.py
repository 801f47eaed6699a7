"""Quench dynamics in an SSH chain with an embedded non-Hermitian block.

Importing the package loads no submodule and sets nothing in the environment:
each public name below loads its submodule (and numpy) on first use, so
``python -m nhssh.cli`` reaches ``cli.py`` before numpy is loaded.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "Edge": "dynamics",
    "QuenchSpec": "dynamics",
    "evolve_propagator": "dynamics",
    "initial_edge_state": "dynamics",
    "run_quench": "dynamics",
    "LatticeConfig": "config",
    "build_hamiltonian": "lattice",
    "eigendecompose": "spectral",
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
