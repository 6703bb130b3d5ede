"""Per-layer tracing from outside the library.

The tracer rebinds public functions in every ``zetakit`` module namespace
that holds them (so ``zetakit.evaluate.quad_adaptive`` and
``zetakit.catalog.digamma_polygamma`` are both caught), patches
``ZeroSequence.values`` on the class, and wraps each model's
``log_deriv`` through ``dataclasses.replace``.  Each call records a span
``[name, start, end, parent, op_id, count]`` in memory; ``uninstall``
restores every binding.  Self times and counts are derived from the spans
after the run, and the spans are written out when it ends.
"""

import dataclasses
import gzip
import sys
import time

import numpy as np

# (module, attribute, span name); each module of src/zetakit/ is one layer
TRACED = (
    ("kernels", "gamma", "kernels.gamma"),
    ("kernels", "digamma_polygamma", "kernels.digamma_polygamma"),
    ("catalog", "riemann_model", "catalog.build"),
    ("catalog", "hurwitz_model", "catalog.build"),
    ("catalog", "airy_model", "catalog.build"),
    ("catalog", "pcf_model", "catalog.build"),
    ("catalog", "chf_model", "catalog.build"),
    ("catalog", "model_from_spec", "catalog.build"),
    ("quadrature", "quad_adaptive", "quadrature.quad_adaptive"),
    ("quadrature", "euler_maclaurin_tail", "quadrature.euler_maclaurin_tail"),
    ("evaluate", "continued_zeta", "evaluate.continued_zeta"),
    ("evaluate", "contour_zeta", "evaluate.contour_zeta"),
    ("evaluate", "zeta_series", "evaluate.zeta_series"),
    ("asym", "classify_poles", "asym.classify_poles"),
    ("asym", "l_asy_eval", "asym.l_asy_eval"),
    ("asym", "ray_tail_derivative", "asym.ray_tail_derivative"),
    ("series", "log_coeffs", "series.log_coeffs"),
    ("series", "zeta_via_bell", "series.zeta_via_bell"),
    ("series", "exact_sum_rule", "series.exact_sum_rule"),
    ("shift", "omega_table", "shift.omega_table"),
    ("shift", "shifted_values", "shift.shifted_values"),
    ("aaa", "aaa_fit", "aaa.aaa_fit"),
    ("aaa", "find_real_features", "aaa.find_real_features"),
    ("cli", "main", "cli.main"),
)
MODEL_NAMES = ("riemann", "hurwitz", "airy", "pcf", "chf")
OP = "bench.op"
INTEGRAND = "quadrature.integrand"
QUAD = "quadrature.quad_adaptive"


class Tracer:
    OP = OP

    def __init__(self, mods):
        self.mods = mods
        self.spans = []
        self.stack = []
        self.op_id = -1
        self._undo = []

    # -- span recording -------------------------------------------------
    def wrap(self, name, fn, count=None, post=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.op_id,
                   count(args, kwargs) if count else 0]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
                if post:
                    rec[5] = post(out)
                return out
            finally:
                stack.pop()
                rec[2] = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall -------------------------------------------
    def install(self, models):
        """Rebind the traced names; returns ``models`` with wrapped log_deriv."""
        mods = [m for n, m in sorted(sys.modules.items())
                if (n == "zetakit" or n.startswith("zetakit.")) and m is not None]
        for modname, attr, name in TRACED:
            orig = getattr(getattr(self.mods, modname), attr)
            if modname == "catalog":
                wrapped = self._model_builder(self.wrap(name, orig))
            elif (modname, attr) == ("quadrature", "quad_adaptive"):
                wrapped = self._quad(orig)
            elif (modname, attr) == ("aaa", "aaa_fit"):
                wrapped = self.wrap(name, orig, post=lambda fit: fit.degree)
            else:
                wrapped = self.wrap(name, orig)
            for m in mods:
                if getattr(m, attr, None) is orig:
                    setattr(m, attr, wrapped)
                    self._undo.append((m, attr, orig))
        zs = self.mods.catalog.ZeroSequence
        orig_values = zs.values
        zs.values = self.wrap("catalog.zeros.values", orig_values)
        self._undo.append((zs, "values", orig_values))
        return {k: self.wrap_model(m) for k, m in models.items()}

    def uninstall(self):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def wrap_model(self, model):
        if model.log_deriv is None or hasattr(model.log_deriv, "__wrapped__"):
            return model
        name = model.name if model.name in MODEL_NAMES else "user"
        ld = self.wrap(f"catalog.log_deriv.{name}", model.log_deriv,
                        count=lambda a, k: int(np.size(a[0])))
        return dataclasses.replace(model, log_deriv=ld)

    def _model_builder(self, builder):
        def build(*args, **kwargs):
            return self.wrap_model(builder(*args, **kwargs))
        build.__wrapped__ = builder
        return build

    def _quad(self, quad):
        def initial_segments(args, kwargs):
            a, b = args[1], args[2]
            pts = kwargs.get("initial_points", args[5] if len(args) > 5 else None)
            if a == b:
                return 0
            if pts is None:
                return 1
            return len({a, b, *(p for p in pts if a < p < b)}) - 1

        span_quad = self.wrap(QUAD, quad, count=initial_segments)

        def quad_adaptive(f, *args, **kwargs):
            f_traced = self.wrap(INTEGRAND, f, count=lambda a, k: int(np.size(a[0])))
            return span_quad(f_traced, *args, **kwargs)

        quad_adaptive.__wrapped__ = quad
        return quad_adaptive

    # -- output ----------------------------------------------------------
    def write(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("idx,name,start,end,parent,op_id,count\n")
            for i, (name, t0, t1, parent, op, cnt) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0:.9f},{t1:.9f},{parent},{op},{cnt}\n")


def layer_metrics(spans, n_ops):
    """Per-op layer metrics from a span list (see BENCHMARK.json per_layer)."""
    n = len(spans)
    child_time = [0.0] * n
    panels = [0] * n
    top_ld = []          # log_deriv spans not nested in another log_deriv
    in_quad = [False] * n
    in_ld = [False] * n
    for i, (name, t0, t1, parent, _, cnt) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += t1 - t0
            pname = spans[parent][0]
            in_quad[i] = in_quad[parent] or pname == INTEGRAND
            in_ld[i] = in_ld[parent] or pname.startswith("catalog.log_deriv.")
            if name == INTEGRAND and pname == QUAD:
                panels[parent] += 1
        if name.startswith("catalog.log_deriv.") and not in_ld[i]:
            top_ld.append(i)
    calls, self_s, points = {}, {}, {}
    for i, (name, t0, t1, _, _, cnt) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_time[i]
        points[name] = points.get(name, 0) + cnt
    per_op = max(n_ops, 1)
    op_time = sum(t1 - t0 for name, t0, t1, *_ in spans if name == OP)
    out = {}

    def put(key, value, unit):
        out[key] = {"value": float(value), "unit": unit}

    def calls_self(name, with_calls=True):
        if with_calls:
            put(f"{name}.calls", calls.get(name, 0) / per_op, "calls/op")
        put(f"{name}.self_ms", 1e3 * self_s.get(name, 0.0) / per_op, "ms/op")

    calls_self("kernels.gamma")
    calls_self("kernels.digamma_polygamma")
    calls_self("catalog.build", with_calls=False)
    ld_points = 0
    probe_points = 0
    for m in MODEL_NAMES:
        name = f"catalog.log_deriv.{m}"
        pts = points.get(name, 0)
        ld_points += pts
        put(f"{name}.points", pts / per_op, "points/op")
        put(f"{name}.self_ms", 1e3 * self_s.get(name, 0.0) / per_op, "ms/op")
        put(f"{name}.us_per_point", 1e6 * self_s.get(name, 0.0) / pts if pts else 0.0,
            "us/point")
    for i, (name, *_rest) in enumerate(spans):
        if name.startswith("catalog.log_deriv.") and not in_quad[i]:
            probe_points += spans[i][5]
    put("catalog.log_deriv.probe_frac", probe_points / ld_points if ld_points else 0.0,
        "ratio")
    ld_incl = sum(spans[i][2] - spans[i][1] for i in top_ld)
    put("catalog.log_deriv.incl_frac", ld_incl / op_time if op_time else 0.0, "ratio")
    calls_self("catalog.zeros.values")
    quad_idx = [i for i, s in enumerate(spans) if s[0] == QUAD]
    total_panels = sum(panels[i] for i in quad_idx)
    final = sum((panels[i] + spans[i][5]) / 2.0 for i in quad_idx)
    put(f"{QUAD}.calls", len(quad_idx) / per_op, "calls/op")
    put(f"{QUAD}.panels", total_panels / per_op, "panels/op")
    put(f"{QUAD}.nodes", points.get(INTEGRAND, 0) / per_op, "nodes/op")
    put(f"{QUAD}.self_ms", 1e3 * self_s.get(QUAD, 0.0) / per_op, "ms/op")
    put(f"{QUAD}.panel_yield", final / total_panels if total_panels else 0.0, "ratio")
    calls_self("quadrature.euler_maclaurin_tail")
    for name in ("evaluate.continued_zeta", "evaluate.contour_zeta", "evaluate.zeta_series",
                 "asym.classify_poles", "asym.l_asy_eval", "asym.ray_tail_derivative",
                 "series.log_coeffs", "series.zeta_via_bell", "series.exact_sum_rule"):
        calls_self(name)
    calls_self("shift.omega_table", with_calls=False)
    calls_self("shift.shifted_values", with_calls=False)
    calls_self("aaa.aaa_fit", with_calls=False)
    fits = [s[5] for s in spans if s[0] == "aaa.aaa_fit"]
    put("aaa.aaa_fit.degree", sum(fits) / len(fits) if fits else 0.0, "degree")
    calls_self("aaa.find_real_features", with_calls=False)
    calls_self("cli.main")
    return out
