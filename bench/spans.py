"""Spans around skewlgv's public functions, recorded from outside the program.

``Tracer.install`` replaces every public module-level function of each
layer module (poly, detring, shape, lattice, connectors, identity, cli)
with a wrapper.  It rebinds the function under every name that a skewlgv
module resolves it by, so ``identity.det`` is wrapped as well as
``detring.det``.  ``Polynomial.__mul__`` and ``Polynomial.__str__`` are
wrapped on the class.  A wrapper records one span (name, parent, start,
end); a generator function records one span per resumption.  Spans stay
in flat arrays in memory and are written out once, after the run.

A layer's self time is the time of its spans minus the time of their
child spans.  Inclusive times (``*_s`` of one function) count only
outermost spans of that function.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from array import array
from pathlib import Path

LAYERS = ("poly", "detring", "shape", "lattice", "connectors", "identity", "cli")
PACKAGE = "skewlgv"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.generators: set[int] = set()
        self.gen_calls: dict[int, int] = {}
        self.counts = {
            "poly.mul_term_pairs": 0,
            "detring.det_max_dim": 0,
            "detring.det_out_terms": 0,
            "lattice.edges_built": 0,
            "connectors.paths_enumerated": 0,
            "connectors.tuples_visited": 0,
            "connectors.tuples_kept": 0,
            "connectors.cap_refusals": 0,
        }
        self._last_product = 0

    def span_count(self) -> int:
        return len(self.span_start)

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrappers ---------------------------------------------------------

    def _wrap_function(self, name, f, after=None):
        nid = self._name_id(name)
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1])
            s_end.append(0)
            stack.append(idx)
            s_start.append(clock())
            try:
                result = f(*args, **kwargs)
            finally:
                s_end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_generator(self, name, f, on_first=None, on_item=None, on_error=None):
        nid = self._name_id(name)
        self.generators.add(nid)
        self.gen_calls[nid] = 0
        clock = time.perf_counter_ns

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            self.gen_calls[nid] += 1
            it = f(*args, **kwargs)
            first = True
            while True:
                idx = len(self.span_start)
                self.span_name.append(nid)
                self.span_parent.append(self.stack[-1])
                self.span_end.append(0)
                self.stack.append(idx)
                self.span_start.append(clock())
                try:
                    item = next(it)
                except StopIteration:
                    done = True
                except Exception as exc:
                    if on_error is not None:
                        on_error(exc)
                    raise
                else:
                    done = False
                finally:
                    self.span_end[idx] = clock()
                    self.stack.pop()
                if first and on_first is not None:
                    on_first()
                first = False
                if done:
                    return
                if on_item is not None:
                    on_item(item)
                yield item

        return wrapper

    # -- counters read at layer boundaries ---------------------------------

    def _after_mul(self, args, result):
        a, b = args
        if hasattr(b, "terms"):
            self.counts["poly.mul_term_pairs"] += len(a.terms) * len(b.terms)

    def _after_det(self, args, result):
        c = self.counts
        c["detring.det_max_dim"] = max(c["detring.det_max_dim"], args[0].rows)
        c["detring.det_out_terms"] += len(result.terms)

    def _after_build(self, args, result):
        self.counts["lattice.edges_built"] += len(result.edges)

    def _after_enumerate_paths(self, args, result):
        self.counts["connectors.paths_enumerated"] += len(result)

    def _after_pair_lists(self, args, result):
        self._last_product = math.prod(len(lst) for lst in result)

    def _connectors_passed_cap(self):
        # pair_path_lists ran inside this resumption and the cap check passed
        self.counts["connectors.tuples_visited"] += self._last_product

    def _connector_kept(self, item):
        self.counts["connectors.tuples_kept"] += 1

    def _connectors_error(self, exc):
        if type(exc).__name__ == "EnumerationCapError":
            self.counts["connectors.cap_refusals"] += 1
            self._last_product = 0

    def _trace_callback(self, f, kwarg, name):
        """Give the callback passed to f as `kwarg` a span of its own, so
        that work the caller's callback does is not charged to f's layer."""

        @functools.wraps(f)
        def with_traced_callback(*args, **kwargs):
            if kwargs.get(kwarg) is not None:
                kwargs[kwarg] = self._wrap_function(name, kwargs[kwarg])
            return f(*args, **kwargs)

        return with_traced_callback

    # -- installation ------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the layer functions of the already imported skewlgv package."""
        hooks = {
            "detring.det": {"after": self._after_det},
            "lattice.build_L": {"after": self._after_build},
            "lattice.build_R": {"after": self._after_build},
            "connectors.enumerate_paths": {"after": self._after_enumerate_paths},
            "connectors.pair_path_lists": {"after": self._after_pair_lists},
            "connectors.iter_connectors": {
                "on_first": self._connectors_passed_cap,
                "on_item": self._connector_kept,
                "on_error": self._connectors_error,
            },
            # the JSONL writer that cli passes in runs inside run_sweep
            "identity.run_sweep": {"callback": ("per_case", "cli.sweep_emit")},
        }
        package = [m for n, m in modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                hook = dict(hooks.get(name, {}))
                callback = hook.pop("callback", None)
                target = obj if callback is None else self._trace_callback(obj, *callback)
                wrap = self._wrap_generator if inspect.isgeneratorfunction(obj) else self._wrap_function
                replaced[id(obj)] = wrap(name, target, **hook)
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, attr, replaced[id(obj)])
        poly_cls = modules[f"{PACKAGE}.poly"].Polynomial
        mul = poly_cls.__dict__["__mul__"]
        wrapped_mul = self._wrap_function("poly.Polynomial.__mul__", mul, after=self._after_mul)
        for attr in ("__mul__", "__rmul__"):
            if poly_cls.__dict__.get(attr) is mul:
                setattr(poly_cls, attr, wrapped_mul)
        poly_cls.__str__ = self._wrap_function("poly.Polynomial.__str__", poly_cls.__dict__["__str__"])

    # -- analysis ----------------------------------------------------------

    def _aggregate(self):
        n = len(self.span_start)
        names, parents = self.span_name, self.span_parent
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        self_ns = dict.fromkeys(LAYERS, 0)
        incl_ns = [0] * len(self.names)
        spans = [0] * len(self.names)
        for i in range(n):
            nid = names[i]
            self_ns[layer_of[nid]] += dur[i] - child[i]
            spans[nid] += 1
            p = parents[i]
            if p < 0 or names[p] != nid:
                incl_ns[nid] += dur[i]
        calls = {}
        for nid, name in enumerate(self.names):
            calls[name] = self.gen_calls[nid] if nid in self.generators else spans[nid]
        incl = {name: incl_ns[nid] / 1e9 for nid, name in enumerate(self.names)}
        return calls, incl, {k: v / 1e9 for k, v in self_ns.items()}

    def layer_metrics(self, modules: dict) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        calls, incl, self_s = self._aggregate()
        c = self.counts

        def n(*names):
            return sum(calls.get(x, 0) for x in names)

        def s(*names):
            return sum(incl.get(x, 0.0) for x in names)

        hits = misses = size = 0
        mono = getattr(modules[f"{PACKAGE}.poly"], "_mul_monomials", None)
        if mono is not None and hasattr(mono, "cache_info"):
            info = mono.cache_info()
            hits, misses, size = info.hits, info.misses, info.currsize
        visited = c["connectors.tuples_visited"]
        out = {
            "poly.mul_calls": (n("poly.Polynomial.__mul__"), "count"),
            "poly.mul_term_pairs": (c["poly.mul_term_pairs"], "count"),
            "poly.mul_s": (s("poly.Polynomial.__mul__"), "s"),
            "poly.he_calls": (n("poly.h_poly", "poly.e_poly"), "count"),
            "poly.he_s": (s("poly.h_poly", "poly.e_poly"), "s"),
            "poly.mono_cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "poly.mono_cache_evictions": (max(0, misses - size), "count"),
            "poly.str_calls": (n("poly.Polynomial.__str__"), "count"),
            "poly.str_s": (s("poly.Polynomial.__str__"), "s"),
            "poly.self_s": (self_s["poly"], "s"),
            "detring.det_calls": (n("detring.det"), "count"),
            "detring.det_s": (s("detring.det"), "s"),
            "detring.det_max_dim": (c["detring.det_max_dim"], "count"),
            "detring.det_out_terms": (c["detring.det_out_terms"], "count"),
            "detring.self_s": (self_s["detring"], "s"),
            "shape.hypothesis_calls": (n("shape.parallelogram_hypothesis"), "count"),
            "shape.hypothesis_s": (s("shape.parallelogram_hypothesis"), "s"),
            "shape.row_connected_s": (s("shape.is_row_connected"), "s"),
            "shape.self_s": (self_s["shape"], "s"),
            "lattice.build_calls": (n("lattice.build_L", "lattice.build_R"), "count"),
            "lattice.build_s": (s("lattice.build_L", "lattice.build_R"), "s"),
            "lattice.edges_built": (c["lattice.edges_built"], "count"),
            "lattice.self_s": (self_s["lattice"], "s"),
            "connectors.paths_enumerated": (c["connectors.paths_enumerated"], "count"),
            "connectors.enumerate_paths_s": (s("connectors.enumerate_paths"), "s"),
            "connectors.tuples_visited": (visited, "count"),
            "connectors.tuples_kept": (c["connectors.tuples_kept"], "count"),
            "connectors.keep_ratio": (c["connectors.tuples_kept"] / visited if visited else 0.0, "ratio"),
            "connectors.complementary_calls": (n("connectors.complementary"), "count"),
            "connectors.complementary_s": (s("connectors.complementary"), "s"),
            "connectors.cap_refusals": (c["connectors.cap_refusals"], "count"),
            "connectors.self_s": (self_s["connectors"], "s"),
            "identity.verify_calls": (n("identity.verify_main"), "count"),
            "identity.matrix_build_s": (s("identity.build_h_matrix", "identity.build_e_matrix"), "s"),
            "identity.isolated_endpoints_s": (s("identity.isolated_endpoints"), "s"),
            "identity.self_s": (self_s["identity"], "s"),
            "cli.calls": (n("cli.main"), "count"),
            "cli.self_s": (self_s["cli"], "s"),
        }
        return out

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line, times in ns from the first span."""
        t0 = self.span_start[0] if len(self.span_start) else 0
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            fh.writelines(
                f"{i}\t{p}\t{names[nid]}\t{s - t0}\t{e - t0}\n"
                for i, (nid, p, s, e) in enumerate(
                    zip(self.span_name, self.span_parent, self.span_start, self.span_end)
                )
            )
