"""Per-layer spans recorded from outside the library.

`Tracer.installed()` replaces every public function of each layer module
with a recording wrapper, in every namespace that binds it: `cyl_pair` is
wrapped in `specfun` and again in `potentials`, which imported it by name,
since a wrapper on `specfun.cyl_pair` alone would miss every call made from
`potentials`.  Methods of the classes a layer defines are wrapped on the
class, and the public functions of `numpy.linalg` form the `linalg` layer.
A span is attributed to the layer that defines the function, not to the
namespace it was called through.  A call whose caller belongs to another
layer (or is the benchmark) is a boundary call; per-layer call counts
count only those.

Spans stay in memory (four flat arrays) and are written once when the run
ends.  A span's self time is its duration minus the durations of its direct
children, which in one thread never overlap.  Names the library no longer
has (for example `closed_form_coeffs` or `_pair_upper`) are reported as
absent rather than failing the run; wrapping only visits names that exist.
"""
from __future__ import annotations

import contextlib
import dataclasses
import enum
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "elastodisk"
MODULE_LAYERS = (
    "specfun",
    "media",
    "potentials",
    "np_spectrum",
    "nocore",
    "calr",
    "fields",
    "artifacts",
    "cli",
)
LAYERS = MODULE_LAYERS + ("linalg",)

# Primitive 2x2 block builders of `potentials`; every other block routine
# (mode_matrix_boundary, two_radius_coupling) is made of these.
BLOCK_KEYS = (
    "potentials.slp_trace",
    "potentials.slp_traction_offboundary",
    "potentials.traction_matrix",
)

_KEEP_DUNDERS = ("__init__", "__post_init__")


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children.

    `parent` holds the index of the enclosing span within the same arrays,
    or -1 for a root span.
    """
    dur = end - start
    child = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return dur - child


def _freeze(v):
    if isinstance(v, np.ndarray):
        return (v.shape, v.tobytes())
    if isinstance(v, (list, tuple)):
        return tuple(_freeze(x) for x in v)
    return v


@dataclasses.dataclass
class PassTrace:
    """Aggregates of the spans of one traced pass."""

    self_ns: dict[str, int]
    boundary_calls: dict[str, int]
    key_calls: Counter
    key_inclusive_ns: dict[str, int]
    distinct: dict[str, int]
    watched_calls: dict[str, int]
    cache_hits: int | None
    cache_misses: int | None
    spans: int


class Tracer:
    """Wraps the layer modules and records one span per wrapped call."""

    def __init__(self):
        self.key_names: list[str] = []
        self.key_layer: list[int] = []
        self._key_ids: dict[str, int] = {}
        self.span_key = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._layer_stack: list[int] = []
        self._arg_sets: dict[str, set] = {"specfun": set(), "blocks": set()}
        self._arg_calls: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._pass_lo = 0
        self._cache0 = None
        self.modules = {}
        for layer in MODULE_LAYERS:
            try:
                self.modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:
                pass

    # -- wrapping -------------------------------------------------------

    def _key(self, layer: str, name: str) -> int:
        qual = f"{layer}.{name}"
        kid = self._key_ids.get(qual)
        if kid is None:
            kid = self._key_ids[qual] = len(self.key_names)
            self.key_names.append(qual)
            self.key_layer.append(LAYERS.index(layer))
        return kid

    def _wrapper(self, fn, layer: str, name: str):
        kid = self._key(layer, name)
        lid = LAYERS.index(layer)
        qual = self.key_names[kid]
        if layer == "specfun":
            watch, boundary_only = "specfun", True
        elif qual in BLOCK_KEYS:
            watch, boundary_only = "blocks", False
        else:
            watch, boundary_only = None, False
        keys, parents, starts, ends = self.span_key, self.parent, self.start, self.end
        stack, layer_stack = self._stack, self._layer_stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            if stack:
                parents.append(stack[-1])
                outer = layer_stack[-1]
            else:
                parents.append(-1)
                outer = -1
            if watch is not None and (not boundary_only or outer != lid):
                tracer._note_args(watch, kid, args, kwargs)
            keys.append(kid)
            ends.append(0)
            stack.append(idx)
            layer_stack.append(lid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                layer_stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _note_args(self, watch: str, kid: int, args, kwargs) -> None:
        self._arg_calls[watch] += 1
        item = (_freeze(args), _freeze(tuple(sorted(kwargs.items()))))
        if watch == "blocks":
            item = (kid,) + item
        try:
            self._arg_sets[watch].add(item)
        except TypeError:
            self._arg_sets[watch].add(repr(item))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_class(self, cls, layer: str) -> None:
        if issubclass(cls, (BaseException, enum.Enum)):
            return
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _KEEP_DUNDERS:
                continue
            if attr == "__init__" and dataclasses.is_dataclass(cls):
                continue  # generated; __post_init__ carries the real work
            name = f"{cls.__qualname__}.{attr}"
            if isinstance(val, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrapper(val.__func__, layer, name)))
            elif inspect.isfunction(val):
                self._patch(cls, attr, self._wrapper(val, layer, name))

    def _install(self) -> None:
        owner_layer = {mod.__name__: layer for layer, mod in self.modules.items()}
        wrapped: dict[int, object] = {}
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
                elif inspect.isfunction(obj) and not name.startswith("_"):
                    home = owner_layer.get(obj.__module__)
                    if home is None:
                        continue
                    if id(obj) not in wrapped:
                        wrapped[id(obj)] = self._wrapper(obj, home, obj.__qualname__)
                    self._patch(mod, name, wrapped[id(obj)])
        linalg = np.linalg
        for name in linalg.__all__:
            obj = linalg.__dict__.get(name)
            if callable(obj) and not inspect.isclass(obj):
                self._patch(linalg, name, self._wrapper(obj, "linalg", name))

    def _uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layers for the duration of the block, then restore them."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    # -- per-pass aggregation --------------------------------------------

    def _cache_info(self):
        cache = getattr(self.modules.get("specfun"), "_pair_upper", None)
        info = getattr(cache, "cache_info", None)
        return info() if info is not None else None

    def begin_pass(self) -> None:
        self._pass_lo = len(self.start)
        self._arg_sets = {"specfun": set(), "blocks": set()}
        self._arg_calls = Counter()
        self._cache0 = self._cache_info()

    def end_pass(self) -> PassTrace:
        lo, hi = self._pass_lo, len(self.start)
        start = np.frombuffer(self.start[lo:hi], dtype=np.int64)
        end = np.frombuffer(self.end[lo:hi], dtype=np.int64)
        key = np.frombuffer(self.span_key[lo:hi], dtype=np.int32)
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int32).astype(np.int64)
        parent = np.where(parent >= lo, parent - lo, -1)
        layer = np.asarray(self.key_layer, dtype=np.int64)[key]
        own = self_times(start, end, parent)
        outer = np.where(parent >= 0, layer[np.maximum(parent, 0)], -1)
        boundary = outer != layer
        nkeys = len(self.key_names)
        calls = np.bincount(key, minlength=nkeys)
        incl = np.bincount(key, weights=(end - start).astype(float), minlength=nkeys)
        self_ns = np.bincount(layer, weights=own.astype(float), minlength=len(LAYERS))
        bcalls = np.bincount(layer[boundary], minlength=len(LAYERS))
        cache1 = self._cache_info()
        hits = misses = None
        if self._cache0 is not None and cache1 is not None:
            hits = cache1.hits - self._cache0.hits
            misses = cache1.misses - self._cache0.misses
        return PassTrace(
            self_ns={name: int(self_ns[i]) for i, name in enumerate(LAYERS)},
            boundary_calls={name: int(bcalls[i]) for i, name in enumerate(LAYERS)},
            key_calls=Counter({self.key_names[i]: int(c) for i, c in enumerate(calls) if c}),
            key_inclusive_ns={self.key_names[i]: int(v) for i, v in enumerate(incl) if v},
            distinct={w: len(s) for w, s in self._arg_sets.items()},
            watched_calls=dict(self._arg_calls),
            cache_hits=hits,
            cache_misses=misses,
            spans=hi - lo,
        )

    def save(self, path) -> None:
        """Write every recorded span: key index, parent index, start/end ns."""
        np.savez_compressed(
            path,
            key=np.frombuffer(self.span_key, dtype=np.int32).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.int64).copy(),
            end=np.frombuffer(self.end, dtype=np.int64).copy(),
            key_names=np.array(self.key_names),
            key_layer=np.array([LAYERS[i] for i in self.key_layer]),
        )

    def known(self, qual: str) -> bool:
        return qual in self._key_ids


def layer_metrics(t: PassTrace, items: int, tracer: Tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced pass, plus the names found absent.

    Counts are per item, times are seconds in the pass, and an inclusive
    time (`*_s` named after a function) covers that function's callees.
    """
    absent: list[str] = []

    def per_item(n: int) -> float:
        return n / items

    def self_s(layer: str) -> float:
        return t.self_ns[layer] * 1e-9

    def calls(qual: str) -> int:
        if not tracer.known(qual):
            absent.append(qual)
        return t.key_calls.get(qual, 0)

    def inclusive_s(qual: str) -> float:
        if not tracer.known(qual):
            absent.append(qual)
        return t.key_inclusive_ns.get(qual, 0) * 1e-9

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    absent += [f"{PACKAGE}.{layer}" for layer in MODULE_LAYERS if layer not in tracer.modules]
    if t.cache_hits is None:
        absent.append("specfun._pair_upper")
    m = {
        "specfun.calls_per_item": per_item(t.boundary_calls["specfun"]),
        "specfun.self_s": self_s("specfun"),
        "specfun.cache_hit_ratio": ratio(t.cache_hits or 0,
                                         (t.cache_hits or 0) + (t.cache_misses or 0)),
        "specfun.distinct_arg_ratio": ratio(t.distinct.get("specfun", 0),
                                            t.watched_calls.get("specfun", 0)),
        "media.calls_per_item": per_item(t.boundary_calls["media"]),
        "media.self_s": self_s("media"),
        "potentials.blocks_per_item": per_item(sum(calls(k) for k in BLOCK_KEYS)),
        "potentials.self_s": self_s("potentials"),
        "potentials.distinct_block_ratio": ratio(t.distinct.get("blocks", 0),
                                                 t.watched_calls.get("blocks", 0)),
        "np_spectrum.self_s": self_s("np_spectrum"),
        "nocore.solves_per_item": per_item(calls("nocore.solve_mode")),
        "nocore.self_s": self_s("nocore"),
        "nocore.closed_form_s": inclusive_s("nocore.closed_form_coeffs"),
        "nocore.dissipation_s": inclusive_s("nocore.dissipation_energy"),
        "calr.det_per_item": per_item(calls("calr.det_m")),
        "calr.self_s": self_s("calr"),
        "calr.tune_s": inclusive_s("calr.tune_p"),
        "calr.energy_s": inclusive_s("calr.calr_energy"),
        "fields.self_s": self_s("fields"),
        "artifacts.self_s": self_s("artifacts"),
        "cli.self_s": self_s("cli"),
        "linalg.calls_per_item": per_item(t.boundary_calls["linalg"]),
        "linalg.self_s": self_s("linalg"),
    }
    return m, sorted(set(absent))
