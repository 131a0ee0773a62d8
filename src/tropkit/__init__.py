"""Exact toolkit for tropical convexity and divisor theory on metric graphs.

Four layers, each usable on its own:

- ``tropical``: min-plus projective space over a finite weighted ground
  set; segments, pseudonorms, hull membership, residuated projection,
  extremals, independence, retraction.
- ``graphs``: compact connected metric graphs with exact piecewise-linear
  calculus, divisors, closed subsets, and electrical potentials solved
  over the rationals.
- ``divisors``: linear equivalence, chip-firing segments, linear systems
  with certified membership/projection/reduction, and reduced divisors by
  metric burning.
- ``trees``: one-dimensional systems (tropical trees), their skeletons,
  the reduced-divisor map as a verified pseudo-harmonic morphism,
  harmonization by branch attachment, and stable gonality witnesses.

Everything computes in ``fractions.Fraction``; no floats enter any
decision.  The ``tropkit`` command line (``cli``) serves the same
operations over JSON workspace files (``workspace``).

Importing the package loads no layer, only ``errors`` and ``rational``
(the one parser and printer of rationals); each layer loads on first use
of one of its names, so a program never compiles a layer it does not use.
``_LAZY`` is the one list of public names: each layer's ``__all__`` is its
entry there, so a new export is declared once.
"""

import importlib

from .errors import CertificateError, InputError
from .rational import as_fraction, rational_str

# layer -> the names it exports (its __all__), resolved by __getattr__ on first use
_LAZY = {
    "tropical": ("GroundSpace", "TropGeneratorSet", "TropPoint", "tp_argext", "tp_combine",
                 "tp_dist", "tp_extremals", "tp_fixed_point", "tp_independence", "tp_member",
                 "tp_norm", "tp_path", "tp_project", "tp_pseudonorm", "tp_retract"),
    "graphs": ("ClosedSubset", "Divisor", "Edge", "GraphPoint", "MetricGraph",
               "PLFunction", "mg_distance", "mg_jfunction", "mg_potential",
               "mg_resistance", "mg_validate"),
    "divisors": ("LinearSystem", "dv_b1", "dv_dhar", "dv_dhar_certificate",
                 "dv_dhar_trace", "dv_lin_equiv", "dv_path", "dv_rho", "ls_bases",
                 "ls_extremals", "ls_member", "ls_project", "ls_reduced"),
    "trees": ("Attachment", "Modification", "PseudoHarmonicMap", "SkeletonArc",
              "SubArcMap", "TreeSkeleton", "tt_critical", "tt_harmonize",
              "tt_is_dominant", "tt_is_tree", "tt_morphism", "tt_preimage",
              "tt_reduced_map", "tt_skeleton", "tt_support", "tt_verify_witness"),
    "workspace": ("Workspace", "divisor_from_json", "dumps_canonical", "load_workspace",
                  "parse_workspace", "point_from_json", "serialize_workspace",
                  "to_jsonable"),
}
_HOME = {name: layer for layer, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = ["CertificateError", "InputError", "as_fraction", "rational_str", *_HOME,
           "__version__"]
