"""Kernel selection: compiled extension if available, pure python otherwise.

Set KELLER_LAB_PURE=1 to force the pure kernel (useful for benchmarking and
for testing kernel equivalence).
"""

from __future__ import annotations

import os

# one implementation, the pure one, on both lanes
from keller_lab._purepoly import compose_terms  # noqa: F401

if os.environ.get("KELLER_LAB_PURE"):
    from keller_lab import _purepoly as _impl
else:
    try:
        from keller_lab import _fastpoly as _impl  # type: ignore[no-redef]
    except ImportError:
        from keller_lab import _purepoly as _impl  # type: ignore[no-redef]

IMPLEMENTATION = _impl.IMPLEMENTATION

add_terms = _impl.add_terms
sub_terms = _impl.sub_terms
scale_terms = _impl.scale_terms
mul_terms = _impl.mul_terms
pow_terms = _impl.pow_terms
eval_terms = _impl.eval_terms
