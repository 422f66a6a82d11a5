"""In-memory spans around calls into hermsymp's public functions.

``Tracer.install`` rebinds each function listed in ``LAYERS`` in every
hermsymp module namespace that holds it (``maslov.eigensplit`` as well as
``spaces.eigensplit``), and wraps ``__init__`` of the listed classes.  A span
records name, start, end, parent span and operation id; self time is the
span's duration minus the time its child spans cover.  Spans are recorded
only while ``active`` is set, so the harness's own checks stay out of them.
"""
from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "spaces": ("HermitianSymplecticSpace", "validate_space", "eigensplit",
               "lagrangian_from_basis", "gamma_image", "intersection_dim", "phi_of",
               "subspace_distance"),
    "linalg": ("gram_mgs", "nullspace", "span_intersection", "singular_values"),
    "maslov": ("m_details", "triple_index", "eta_correction_rhs"),
    "bordism": ("compose", "reduce", "relation_from_graph", "BordismRelation"),
    "torus": ("TorusModel", "torus_m_closed_form", "torus_m_sweep"),
    "knotcalc": ("torus_twisted_cohomology", "chern_simons", "rho_difference_mod_z"),
    "serialization": ("space_from_dict", "lagrangian_from_dict", "relation_from_dict"),
    "cli": ("main",),
}

# waste ratios: metric -> function; distinct argument objects (by identity) / calls
DISTINCT = {
    "spaces.eigensplit.distinct_ratio": "spaces.eigensplit",
    "spaces.phi_of.distinct_ratio": "spaces.phi_of",
    "maslov.m_details.distinct_ratio": "maslov.m_details",
}


def _observe(tracer, name, args, kwargs, result):
    """Counts behind the waste ratios, taken outside the span.

    Distinctness is by object identity, which is what caching derived data on
    the immutable objects could exploit; the objects are kept alive so that
    their ids are not reused.
    """
    if name == "linalg.gram_mgs":
        basis = args[1] if len(args) > 1 else kwargs["basis"]
        tracer.counts["gram_mgs.columns_in"] += basis.shape[1]
        tracer.counts["gram_mgs.columns_kept"] += result.shape[1]
        return
    objs = args[:2] if name == "maslov.m_details" else args[:1]
    tracer.alive.extend(objs)
    tracer.keys[name].add(tuple(map(id, objs)))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index, op id, raised]
        self.keys: dict[str, set] = defaultdict(set)
        self.alive: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.merged: list[dict] = []    # summaries received from traced child processes
        self.active = False
        self.op_id = 0
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = name in DISTINCT.values() or name == "linalg.gram_mgs"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe:
                _observe(self, name, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hermsymp" or n.startswith("hermsymp."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"hermsymp.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                name = f"{layer}.{fname}"
                if isinstance(original, type):
                    init = original.__dict__["__init__"]
                    self._restore.append((original, "__init__", init))
                    setattr(original, "__init__", self._wrap(name, init))
                    continue
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, value))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def summary(self) -> dict:
        """Per-function calls, self time and errors, with the ratio counts."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        funcs: dict[str, list] = {}
        for i, (name, start, end, _, _, raised) in enumerate(self.spans):
            entry = funcs.setdefault(name, [0, 0.0, 0])
            entry[0] += 1
            entry[1] += end - start - covered[i]
            entry[2] += raised
        return {
            "functions": funcs,
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
            "counts": dict(self.counts),
        }

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over this process's spans and every merged child."""
        funcs: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        counts: dict[str, int] = defaultdict(int)
        for part in [self.summary(), *self.merged]:
            for name, (calls, self_s, errors) in part["functions"].items():
                entry = funcs[name]
                entry[0] += calls
                entry[1] += self_s
                entry[2] += errors
            for name, value in [*part["distinct"].items(), *part["counts"].items()]:
                counts[name] += value
        out: dict[str, float] = {}
        for layer, names in LAYERS.items():
            for fname in names:
                calls, self_s, errors = funcs[f"{layer}.{fname}"]
                out[f"{layer}.{fname}.calls"] = calls
                out[f"{layer}.{fname}.self_ms"] = self_s * 1e3
                out[f"{layer}.{fname}.errors"] = errors
        for metric, name in DISTINCT.items():
            calls = funcs[name][0]
            out[metric] = counts[name] / calls if calls else 0.0
        cols = counts["gram_mgs.columns_in"]
        out["linalg.gram_mgs.kept_ratio"] = counts["gram_mgs.columns_kept"] / cols if cols else 0.0
        return out
