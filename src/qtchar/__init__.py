"""q,t-characters of simply laced quantum affine algebras.

Computes fundamental- and standard-module q,t-characters by a
degree-by-degree expansion from the dominant monomial plus a twisted fusion
product, and decodes each coefficient polynomial into the Jordan filtration
structure of the corresponding l-weight space.
"""

from .charalg import (
    Character,
    Monomial,
    Window,
    parse_monomial,
    render_monomial,
)
from .errors import QtCharError
from .fm import audit_expansion, fundamental_qt, string_edges
from .fusion import FactorSpec, standard_module_qt, twisted_product
from .jordan import (
    JordanProfile,
    annotate_character,
    decode,
    encode,
    profile_from_blocks,
    sigma,
    validate_poincare,
)
from .rootdata import RootDatum, build_root_datum, parse_type
from .sl2 import Segment, decompose_segments, ladder_character, sl2_simple_qt
from .tpoly import TPoly

__version__ = "0.1.0"

__all__ = [
    "Character",
    "FactorSpec",
    "JordanProfile",
    "Monomial",
    "QtCharError",
    "RootDatum",
    "Segment",
    "TPoly",
    "Window",
    "annotate_character",
    "audit_expansion",
    "build_root_datum",
    "decode",
    "decompose_segments",
    "encode",
    "fundamental_qt",
    "ladder_character",
    "parse_monomial",
    "parse_type",
    "profile_from_blocks",
    "render_monomial",
    "sigma",
    "sl2_simple_qt",
    "standard_module_qt",
    "string_edges",
    "twisted_product",
    "validate_poincare",
]
