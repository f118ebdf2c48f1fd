"""Minmatrix workbench for non-iterative normal modal logics.

Normalizes degree <= 1 modal formulas into minmatrices, computes prime
orbits and characteristic minmatrices by substitution collapse, builds
the coordinate lattices of the corresponding systems, generates their
defining axioms, and checks their Kripke frame semantics exhaustively on
small frames.

``import mmw`` runs only ``mmw.context`` (with the ``formula`` and
``_record`` modules it imports), which every command needs.  The other
submodules are lazy: each is in ``sys.modules`` and bound here before
``context`` is imported, and its code runs on the first access to one of
its attributes, so a command compiles only the modules it uses.  The
names this package exports from them resolve through ``__getattr__``.

One import rule holds in every module of the package: a module imports
by name, at module level, only what it uses on every path, and reaches
any other mmw module through its lazy submodule (``from . import
lattice`` ... ``lattice.cmm_of(...)``).  No mmw module is imported
inside a function.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# lazy submodule -> the names the package exports from it
_LAZY = {
    "minmatrix": ("ContextMismatchError", "Minmatrix", "normalize"),
    "orbit": ("PrimeOrbit", "compute_orbits", "orbit_closed_form", "orbit_of"),
    "substitution": ("Substitution", "apply_formula", "apply_minmatrix", "apply_minterm",
                     "classify", "compose", "critical_substitution", "enumerate_primes",
                     "identity", "is_prime"),
    "lattice": ("CMM", "STAR", "SystemCoord", "build_hasse", "cmm_from_coords", "collapse",
                "coverage", "enumerate_cmms", "map_to_star"),
    "kripke": ("Frame", "Model", "correspondence_check", "eval_model", "find_countermodel",
               "valid_on_frame"),
    "axiom": ("alpha_D", "alpha_K", "alpha_prime_K", "named_systems", "system_of"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = ["CapExceededError", "Context", "DegreeError", "context", "enumerate_E",
           "Formula", "FormulaSyntaxError", "modal_degree", "parse", "render",
           "variables", *_HOME]


def _lazy_module(name: str):
    """The submodule ``name``, registered but not yet executed."""
    full = f"{__name__}.{name}"
    if full in sys.modules:                 # a reload of the package
        return sys.modules[full]
    spec = find_spec(full)
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    return module


for _name in _LAZY:
    globals()[_name] = _lazy_module(_name)
del _name

# after the lazy submodules, so ``context`` can import them at module level
from .context import CapExceededError, Context, DegreeError, context, enumerate_E
from .formula import (Formula, FormulaSyntaxError, modal_degree, parse, render,
                      variables)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)
