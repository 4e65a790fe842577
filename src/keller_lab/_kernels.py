"""The term-dict kernels that the package calls, re-exported from
``_purepoly``.

This module is kept, not folded into ``_purepoly``, because the benchmark's
tracer (``perfbench/tracing.py``) wraps the bindings here as well as those in
``_purepoly``, and reads ``IMPLEMENTATION`` as the package's
``KERNEL_IMPLEMENTATION``.
"""

from keller_lab._purepoly import (  # noqa: F401
    IMPLEMENTATION,
    add_terms,
    compose_terms,
    det_terms,
    eval_terms,
    lattice_values,
    mul_terms,
    pow_terms,
    scale_terms,
    segment_moments,
    sub_terms,
)
