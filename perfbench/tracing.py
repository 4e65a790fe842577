"""Spans and counters around keller_lab's layer boundaries, from outside.

The tracer replaces module attributes, class methods and dispatch-table
entries of keller_lab with thin wrappers while it is installed, and puts
the originals back on ``restore``, so untimed and untraced code runs the
program exactly as shipped.  Every binding the program calls
through is wrapped, e.g. both ``_kernels.mul_terms`` (used by ``poly``) and
``_purepoly.mul_terms`` (used by ``_purepoly.pow_terms``), so a call is
seen whichever name it goes through.  No file of the program changes.

A span has a name, a start, an end, the span that was open when it began
and the operation it belongs to.  Self time is a span's duration minus the
time its child spans cover.  A call that re-enters a span of the same name
(recursion, or one parse entry point calling another) stays inside the
outer span, so each traced name counts one call per outermost entry.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

_clock = time.perf_counter


class Tracer:
    """Collects self time, calls and counts per span name while active."""

    def __init__(self):
        self.active = False
        self.keep_spans = False
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [name, start, child_time, span_id]
        self._open = Counter()
        self._next_id = 0
        self._undo: list[tuple] = []
        self.op_id = 0
        self.reset()

    def reset(self) -> None:
        """Start a fresh tally (one round of a workload)."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = defaultdict(int)
        # maps passed to jacobian_matrix, held so that ids stay unique
        self.maps_seen: dict[int, object] = {}

    def tally(self) -> dict:
        """The current round's figures, for run.per_layer."""
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts), "peaks": dict(self.peaks),
                "maps": len(self.maps_seen)}

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, _clock(), 0.0, self._next_id])
        self._open[name] += 1

    def exit(self) -> None:
        end = _clock()
        name, start, child, span_id = self._stack.pop()
        self._open[name] -= 1
        duration = end - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if self.keep_spans:
            parent = self._stack[-1][3] if self._stack else None
            self.spans.append((self.op_id, span_id, parent, name, start, end))

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for op, span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({"op": op, "id": span_id,
                                      "parent": parent, "name": name,
                                      "start": start, "end": end}) + "\n")

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, name, after=None, name_of=None):
        """A stand-in for fn that records one span per outermost call.

        after(tracer, args, result) runs once the span has closed, to add
        counts; name_of(args) picks the span name from the arguments.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = name if name_of is None else name_of(args)
            stack = tracer._stack
            if stack and stack[-1][0] == span:
                return fn(*args, **kwargs)
            tracer.enter(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(tracer, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace owner.attr (module, class or dict entry) by a wrapper."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(original, name, **options)
        else:
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(original, name, **options))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every original that patch replaced."""
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()
        self.active = False


class _TracedJson:
    """Stands in for the json module inside cli, with dump traced."""

    def __init__(self, real, dump):
        self._real = real
        self.dump = dump

    def __getattr__(self, attr):
        return getattr(self._real, attr)


# -- what each layer boundary records ---------------------------------------

def _after_mul(tracer: Tracer, args, out) -> None:
    a, b = args[0], args[1]
    tracer.counts["kernel.mul.pairs"] += len(a) * len(b)
    tracer.counts["kernel.mul.terms_out"] += len(out)
    _compose_peak(tracer, args, out)


def _compose_peak(tracer: Tracer, args, out) -> None:
    """Largest kernel result inside a compose, its final sum included."""
    if tracer.is_open("poly.compose"):
        peaks = tracer.peaks
        peaks["poly.compose.peak_terms"] = max(
            peaks["poly.compose.peak_terms"], len(out))


def _after_jacobian(tracer: Tracer, args, out) -> None:
    tracer.maps_seen[id(args[0])] = args[0]


def _after_grid(tracer: Tracer, args, out) -> None:
    tracer.counts["certify.cells"] += len(out[0])


def _after_shear(tracer: Tracer, args, out) -> None:
    tracer.counts["certify.shear.angles_tried"] += out.evidence["angles_tried"]


def _det_name(args) -> str:
    return ("linalg.polydet_cofactor" if args[0].rows <= 4
            else "linalg.polydet_bareiss")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the imported keller_lab modules."""
    from keller_lab import (_kernels, _purepoly, certify, cli, factor,
                            families, jacobian, linalg, parser, poly)

    for module in (_kernels, _purepoly):
        tracer.patch(module, "mul_terms", "kernel.mul", after=_after_mul)
        tracer.patch(module, "pow_terms", "kernel.pow", after=_compose_peak)
        tracer.patch(module, "add_terms", "kernel.add", after=_compose_peak)
        tracer.patch(module, "sub_terms", "kernel.add")
        tracer.patch(module, "scale_terms", "kernel.add")
        tracer.patch(module, "eval_terms", "kernel.eval")

    tracer.patch(poly.Poly, "compose", "poly.compose")
    tracer.patch(poly.Poly, "restrict_segment", "poly.restrict_segment")
    tracer.patch(poly.Poly, "partial", "poly.partial")
    tracer.patch(poly.Poly, "divexact", "poly.divexact")

    for module in (jacobian, certify):
        tracer.patch(module, "jacobian_matrix", "jacobian.matrix",
                     after=_after_jacobian)

    tracer.patch(linalg.PolyMatrix, "det", None, name_of=_det_name)
    tracer.patch(linalg.RatMatrix, "det", "linalg.ratdet")
    for module in (linalg, factor):
        tracer.patch(module, "rat_solve", "linalg.rat_solve")

    for module in (poly, families, jacobian):
        tracer.patch(module, "z_power", "families.z_power")
    tracer.patch(families, "zshift_inverse", "families.inverse")
    for module in (families, factor):
        tracer.patch(module, "compose_zshift", "families.compose_zshift")

    tracer.patch(factor, "decompose_zshift", "factor.decompose")
    tracer.patch(factor, "rank_one_membership", "factor.membership")
    tracer.patch(factor, "planar_normal_form", "factor.normal_form")

    tracer.patch(certify, "segment_matrix", "certify.segment_matrix")
    tracer.patch(certify, "grid_cells", "certify.grid_cells",
                 after=_after_grid)
    tracer.patch(certify, "planar_shear_check", "certify.shear",
                 after=_after_shear)
    tracer.patch(certify, "certify_injective_sampling", "certify.sampling")

    for entry in ("parse_map", "parse_map_file"):
        tracer.patch(parser, entry, "parser.parse")

    tracer.patch(cli, "to_jsonable", "cli.serialize")
    tracer.patch(cli, "_write_csv", "cli.serialize")
    real_json = cli.__dict__["json"]
    cli.json = _TracedJson(real_json,
                           tracer.wrap(real_json.dump, "cli.serialize"))
    tracer._undo.append((cli, "json", real_json))
    for command in list(cli._HANDLERS):
        tracer.patch(cli._HANDLERS, command, "cli.handler")
