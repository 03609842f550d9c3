"""Span tracing of the inttiles layers from outside the library.

Each traced public function is rebound, in every inttiles module that holds
it, to a wrapper that records a span: id, parent id, layer name, the index
of the benchmark op that caused it, start and end (perf_counter_ns). Self
time is a span's duration minus the durations of its direct children; the
code is single-threaded, so children nest strictly inside their parent.
Spans stay in memory until the run writes them out.

Counters that describe the work of a layer (terms fed to the cyclotomic
test, products formed by the cyclic multiply, ...) are read from the call's
arguments and result after the span's clock has stopped.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ("polyring", "tilingset", "search", "cmcheck", "constructions", "cli")


def _nonzero(poly) -> int:
    return len(poly.coeffs) - poly.coeffs.count(0)


def _note_cyclotomic_divides(st, args, kwargs, result):
    f = args[1] if len(args) > 1 else kwargs["f"]
    st["true"] += bool(result)
    st["input_terms"] += len(f.coeffs) if hasattr(f, "coeffs") else len(f)


def _note_mul_mod_cyclic(st, args, kwargs, result):
    st["term_products"] += _nonzero(args[0]) * _nonzero(args[1])
    st["out_coeffs"] += len(result.coeffs)


def _note_is_tiling(st, args, kwargs, result):
    st["true"] += bool(result.tiles)


def _note_mask_polynomial(st, args, kwargs, result):
    st["coeffs"] += len(result.coeffs)


def _note_find_complement(st, args, kwargs, result):
    st["true"] += result is not None


def _note_minimal_tiling_period(st, args, kwargs, result):
    st["candidates"] += len(result.explored)


def _note_cli_main(st, args, kwargs, result):
    st["bytes_out"] += kwargs["out"].nbytes()


# layer name -> (module, attribute path inside it, counter hook)
LAYERS = {
    "polyring.cyclotomic_divides": ("polyring", "cyclotomic_divides", _note_cyclotomic_divides),
    "polyring.mul_mod_cyclic": ("polyring", "mul_mod_cyclic", _note_mul_mod_cyclic),
    "polyring.factorize": ("polyring", "factorize", None),
    "tilingset.is_tiling": ("tilingset", "is_tiling", _note_is_tiling),
    "tilingset.least_period": ("tilingset", "least_period", None),
    "tilingset.mask_polynomial": ("tilingset", "IntegerSet.mask_polynomial", _note_mask_polynomial),
    "search.minimal_tiling_period": ("search", "minimal_tiling_period", _note_minimal_tiling_period),
    "search.find_complement": ("search", "find_complement", _note_find_complement),
    "cmcheck.cm_report": ("cmcheck", "cm_report", None),
    "cmcheck.spectrum": ("cmcheck", "spectrum", None),
    "cmcheck.check_t1": ("cmcheck", "check_t1", None),
    "cmcheck.check_t2": ("cmcheck", "check_t2", None),
    "constructions.theorem2_generate": ("constructions", "theorem2_generate", None),
    "cli.main": ("cli", "main", _note_cli_main),
}


class Tracer:
    """Records spans for the layers in LAYERS while installed."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.stats: dict[str, Counter] = defaultdict(Counter)
        self.op = 0  # index of the benchmark op in progress, set by the caller
        self._stack: list[list[int]] = []  # [span id, summed child duration]
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, note):
        stack, stats, spans = self._stack, self.stats, self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                st = stats[name]
                st["calls"] += 1
                st["wall_ns"] += duration
                st["self_ns"] += duration - frame[1]
                spans.append((sid, parent[0] if parent else 0, name, self.op, start, end))
            if note is not None:
                note(st, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced name in every inttiles module that holds it."""
        modules = [importlib.import_module("inttiles")]
        modules += [importlib.import_module(f"inttiles.{m}") for m in MODULES]
        for name, (module, path, note) in LAYERS.items():
            owner = importlib.import_module(f"inttiles.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, note)
            if outer:  # a method: one class attribute serves every caller
                self._rebind(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write('["id","parent","name","op","start_ns","end_ns"]\n')
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _count(layer, key="calls"):
    return lambda stats, passes: stats[layer][key] / passes


def _seconds(layer, key):
    return lambda stats, passes: stats[layer][key] / passes / 1e9


def _share(layer, key, base_layer=None):
    return lambda stats, passes: _ratio(stats[layer][key], stats[base_layer or layer]["calls"])


def _timed(layer, *, wall=False):
    rows = [(f"{layer}.calls", "count", _count(layer))]
    if wall:
        rows.append((f"{layer}.wall_s", "s", _seconds(layer, "wall_ns")))
    rows.append((f"{layer}.self_s", "s", _seconds(layer, "self_ns")))
    return rows


_CD, _MM = "polyring.cyclotomic_divides", "polyring.mul_mod_cyclic"
_IT, _MP = "tilingset.is_tiling", "tilingset.mask_polynomial"
_MT, _FC = "search.minimal_tiling_period", "search.find_complement"
_CM, _SP = "cmcheck.cm_report", "cmcheck.spectrum"

# (metric, unit, value from (stats, traced passes)); counts and times are per pass
PER_LAYER = [
    *_timed(_CD),
    (f"{_CD}.true_ratio", "ratio", _share(_CD, "true")),
    (f"{_CD}.input_terms", "count", _count(_CD, "input_terms")),
    *_timed(_MM),
    (f"{_MM}.term_products", "count", _count(_MM, "term_products")),
    (f"{_MM}.out_coeffs", "count", _count(_MM, "out_coeffs")),
    *_timed("polyring.factorize"),
    *_timed(_IT, wall=True),
    (f"{_IT}.tiles_ratio", "ratio", _share(_IT, "true")),
    *_timed("tilingset.least_period"),
    *_timed(_MP),
    (f"{_MP}.coeffs", "count", _count(_MP, "coeffs")),
    *_timed(_MT, wall=True),
    *_timed(_FC),
    (f"{_FC}.found_ratio", "ratio", _share(_FC, "true")),
    ("search.candidates_per_call", "count", _share(_MT, "candidates")),
    *_timed(_CM, wall=True),
    *_timed(_SP),
    ("cmcheck.spectrum_calls_per_report", "count", _share(_SP, "calls", _CM)),
    ("cmcheck.check_t1.self_s", "s", _seconds("cmcheck.check_t1", "self_ns")),
    ("cmcheck.check_t2.self_s", "s", _seconds("cmcheck.check_t2", "self_ns")),
    *_timed("constructions.theorem2_generate", wall=True),
    *_timed("cli.main", wall=True),
    ("cli.bytes_out", "bytes", _count("cli.main", "bytes_out")),
]


def layer_metrics(stats: dict[str, Counter], passes: int) -> dict[str, tuple[float, str]]:
    """Every PER_LAYER metric as name -> (value, unit)."""
    return {name: (value(stats, passes), unit) for name, unit, value in PER_LAYER}
