"""Hot-kernel backend selection.

The compiled Cython module is used when it imports; otherwise the
pure-Python twin, which has identical semantics.  ``benchmarks/`` compares
the two.
"""

from . import _pure
from ._common import CapExceeded

try:
    from . import _speedups as _impl  # type: ignore[attr-defined]
except ImportError:
    _impl = _pure

BACKEND = _impl.BACKEND
charpoly = _impl.charpoly
determinant = _impl.determinant
digraph_structure = _impl.digraph_structure
simple_cycle_classes = _impl.simple_cycle_classes
clique_polynomial_from_classes = _impl.clique_polynomial_from_classes
clique_identity_holds = _impl.clique_identity_holds
decode_matrix = _impl.decode_matrix
scan_primitive_unit_det = _impl.scan_primitive_unit_det

__all__ = [
    "BACKEND",
    "CapExceeded",
    "charpoly",
    "determinant",
    "digraph_structure",
    "simple_cycle_classes",
    "clique_polynomial_from_classes",
    "clique_identity_holds",
    "decode_matrix",
    "scan_primitive_unit_det",
    "_pure",
]
