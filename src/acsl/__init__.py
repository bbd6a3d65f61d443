"""Exact Abelian Chern-Simons link invariants.

Computes Wilson-line expectation values of oriented framed coloured
links in S^3 and, through integer-framed surgery presentations, in
closed oriented 3-manifolds such as S^1 x S^2 and S^1 x Sigma_g.  All
values live in rings of cyclotomic integers Z[zeta_n] and are compared
exactly; floats are used only for reporting and cross-checking.

Public names are resolved on first access (PEP 562), so importing the
package, or one of its modules, loads only the modules actually used.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "cyclotomic": (
        "CycNum",
        "OrderMismatch",
        "cyclotomic_polynomial",
        "root_power",
        "totient",
    ),
    "linkdiagram": (
        "OBSERVED",
        "SURGERY",
        "AmbiguousDiagram",
        "Diagram",
        "DiagramError",
        "FramedLink",
        "PDError",
        "linking_matrix",
        "mirror_diagram",
        "parse_crossings",
        "parse_pd",
        "reverse_component_diagram",
        "strand_orientations",
        "validate",
    ),
    "invariants": (
        "Invariant",
        "SurgeryComponentError",
        "coupling",
        "quadratic_form",
        "reduce_colours",
        "reverse_component",
        "s3_expectation",
        "satellite_expand",
        "simplicial_satellite",
    ),
    "surgery": (
        "DenominatorZero",
        "TermLimit",
        "blow_down",
        "blow_up",
        "gauss_sums",
        "handle_slide",
        "oracle_expectation",
        "oracle_sums",
        "surgery_expectation",
    ),
    "manifolds": (
        "HomologyData",
        "s1xs2_expectation",
        "s1xsigma_expectation",
        "s1xsigma_presentation",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

