"""Command-line front end.

Subcommands: values, poles, shift, series, contour, continue, aaa, catalog.
Every command accepts --json for a schema-stable document.  Every command
but aaa and catalog accepts --check to re-derive the result along an
independent route and report the discrepancy.  The numeric options are
declared only where they are read, so any other use is a usage error:
--R, --tmax and --tol on values, series, contour and continue; --tol (the
AAA tolerance) on aaa.  An undeclared flag or a malformed number is
reported with the usage line of its subcommand.  Direct sums take
a_n^(-s) on the model's cut psi, the branch of the contour routes.
``poles --check`` reads each residue off the pole's own row of the table
(``asym.row_term``) by the 16-point trapezoid rule on |s - x0| = 0.1/m.
"""

import argparse
import cmath
import json
import sys

import numpy as np

from . import __version__
from .aaa import aaa_fit, bary_eval, derivative_at, find_real_features
from .asym import classify_poles, row_term, zeta_int_leq_alpha
from .catalog import hurwitz_model, ln_gamma_continued, model_from_spec
from .errors import DomainError, PoleError, ZetakitError
from .evaluate import contour_zeta, continued_zeta, zeta_series
from .series import log_coeffs, zeta_via_bell
from .shift import ShiftParams, shifted_values

_MODELS = ("riemann", "hurwitz", "airy", "pcf", "chf")


def _fmt(x) -> str:
    x = complex(x)
    if x.imag == 0.0:
        return f"{x.real + 0.0:.15g}"
    return f"{x.real:.15g}{x.imag:+.15g}j"


def _cjson(x):
    """A complex number as the JSON pair {"re", "im"}; None stays None."""
    return None if x is None else {"re": x.real, "im": x.imag}


def _cnum(text: str) -> complex:
    """A complex number, i or j for the unit.  Like ``_param`` and
    ``_parse_n_range`` an argparse type: a malformed value is a usage error."""
    try:
        return complex(text.replace(" ", "").replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _param(text: str):
    """A model parameter: a float when real, else a complex number."""
    try:
        return float(text)
    except ValueError:
        return _cnum(text)


def _parse_n_range(text: str) -> list:
    lo, _, hi = text.partition("..")
    try:
        return list(range(int(lo), int(hi or lo) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an integer or a range lo..hi: {text!r}") from None


def _build_model(args):
    spec = args.model
    if spec.startswith("{"):
        return model_from_spec(spec)
    doc = {"model": spec}
    for key, value in (("a", args.a), ("b", args.b)):
        if value is not None:
            doc[key] = value
    return model_from_spec(doc)


def _emit(args, doc, human_lines):
    if args.json:
        print(json.dumps(doc))
    else:
        for line in human_lines:
            print(line)


def _value_entry(model, logc, n: int, check: bool, kw: dict):
    entry = {"n": n}
    try:
        val = zeta_int_leq_alpha(model.asym, logc, n)
    except PoleError as pole:
        entry.update(method="pole", order=pole.order, residue=_cjson(pole.residue))
        return entry
    if n > model.asym.alpha:
        method = "recursion"
    else:
        j = model.asym.j_for_location(float(n))
        absent = j is None or model.asym.max_log_power(j) is None
        method = "structural-zero" if (n < 0 and absent) else "continuation"
    entry.update(method=method, value=_cjson(val))
    form = model.closed_forms.get(n)
    if form:
        entry["closed_form"] = form
    if check:
        other = None
        if method == "recursion" and 2 <= n <= 20:
            other = zeta_via_bell(model.series, n)
        elif model.log_deriv is not None and n != 0:
            other = continued_zeta(model, float(n), **kw)
        elif model.log_deriv is not None:
            # zeta is regular at 0: the mean at +-h cancels the zeta'(0) h term
            other = 0.5 * (continued_zeta(model, 1e-5, **kw)
                           + continued_zeta(model, -1e-5, **kw))
        if other is not None:
            entry["check_discrepancy"] = abs(val - other)
    return entry


def cmd_values(args) -> int:
    model = _build_model(args)
    kw = _ray_options(args)
    logc = log_coeffs(model.series)
    entries = []
    failures = []
    for n in args.n:
        try:
            entries.append(_value_entry(model, logc, n, args.check, kw))
        except ZetakitError as exc:
            failures.append((n, str(exc)))
    lines = []
    for e in entries:
        if e["method"] == "pole":
            lines.append(f"zeta({e['n']}) : pole of order {e['order']} "
                         f"(residue {_fmt(complex(e['residue']['re'], e['residue']['im']))})")
            continue
        v = complex(e["value"]["re"], e["value"]["im"])
        line = f"zeta({e['n']}) = {_fmt(v)}   [{e['method']}]"
        if "closed_form" in e:
            line += f"   = {e['closed_form']}"
        if "check_discrepancy" in e:
            line += f"   (check: {e['check_discrepancy']:.2e})"
        lines.append(line)
    doc = {"command": "values", "model": model.name, "params": _params_doc(model),
           "results": entries}
    _emit(args, doc, lines)
    for n, msg in failures:
        print(f"zeta({n}): {msg}", file=sys.stderr)
    return 1 if failures else 0


def _params_doc(model):
    return {k: _cjson(v) if isinstance(v, complex) else v for k, v in model.params.items()}


def _residue_on_circle(asym, pole) -> complex:
    """c_{-1} of the pole's row term, R = 1 (c_{-1} is free of R), by the 16-point
    trapezoid rule on |s - x0| = 0.1/m at angles (i + 1/2) 2 pi/16: the term's
    one singularity is its pole, so the rule errs by c_15 (0.1/m)^16 alone."""
    j = asym.j_for_location(pole.location)
    eps = 0.1 / asym.m * np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16)
    return complex(np.mean([e * row_term(asym, j, asym.location(j) + e, 1.0) for e in eps]))


def cmd_poles(args) -> int:
    model = _build_model(args)
    report = classify_poles(model.asym)
    entries = []
    for p in report.poles:
        e = {"location": p.location, "order": p.order, "residue": _cjson(p.residue)}
        if args.check:
            e["check_discrepancy"] = abs(_residue_on_circle(model.asym, p) - p.residue)
        entries.append(e)
    doc = {"command": "poles", "model": model.name, "params": _params_doc(model),
           "poles": entries,
           "zeta0": _cjson(report.zeta0), "zeta_prime0": _cjson(report.zeta_prime0)}
    lines = [f"pole at s = {p['location']:g}, order {p['order']}, "
             f"residue {_fmt(complex(p['residue']['re'], p['residue']['im']))}"
             + (f"   (check: {p['check_discrepancy']:.2e})" if "check_discrepancy" in p else "")
             for p in entries]
    if report.zeta0 is not None:
        lines.append(f"zeta(0) = {_fmt(report.zeta0)}")
    if report.zeta_prime0 is not None:
        lines.append(f"zeta'(0) = {_fmt(report.zeta_prime0)}")
    _emit(args, doc, lines)
    return 0


def _shifted_a(model, shift) -> complex:
    """a + B/A for the shifted integers: A (n + a) + B = A (n + a + B/A), a = 1 for riemann."""
    return model.params.get("a", 1.0) + shift.mu


def _shift_check(model, shift, rep) -> float:
    """Largest gap between the shifted report and hurwitz_model(a + B/A).

    zeta(s) = A^(-s) zeta_H(s, a + B/A), so zeta'(0) = zeta_H'(0) - ln A zeta_H(0):
    the reference table is built in closed form, without ``omega_table``.
    """
    ref = hurwitz_model(_shifted_a(model, shift))
    base = classify_poles(ref.asym)
    A = shift.A
    gaps = [abs(rep.report.zeta0 - base.zeta0),
            abs(rep.report.zeta_prime0 - (base.zeta_prime0 - base.zeta0 * cmath.log(A))),
            abs(rep.report.pole_at(1.0).residue - base.pole_at(1.0).residue / A)]
    gaps += [abs(v - A ** complex(-n) * zeta_int_leq_alpha(ref.asym, None, n))
             for n, v in rep.values.items()]
    return max(gaps)


def cmd_shift(args) -> int:
    model = _build_model(args)
    if args.check and model.name not in ("riemann", "hurwitz"):
        raise ZetakitError(f"shift --check has an independent route only for the shifted "
                           f"integers (riemann, hurwitz), not {model.name!r}")
    shift = ShiftParams(args.A, args.B)
    ln_f_shift = None
    branch_note = None
    if model.name in ("riemann", "hurwitz"):
        a_shift = _shifted_a(model, shift)
        try:
            ln_f_shift = -ln_gamma_continued(a_shift)
        except DomainError:
            raise DomainError(f"a + B/A = {_fmt(a_shift)} is a nonpositive integer: "
                              "the sequence contains 0") from None
    elif model.eval is not None:
        try:
            f_val, _ = model.eval(-shift.mu)
            ln_f_shift = complex(np.log(complex(f_val)))
            branch_note = ("ln F(-B/A) taken on the principal branch; "
                           "zeta'(0) is determined up to the branch choice")
        except ZetakitError:
            branch_note = ("evaluator cannot reach -B/A; zeta'(0) omitted")
    rep = shifted_values(model.asym, shift, ln_f_shifted=ln_f_shift,
                         n_values=[n for n in range(-6, 0)])
    entries = [{"location": p.location, "order": p.order, "residue": _cjson(p.residue)}
               for p in rep.report.poles]
    doc = {"command": "shift", "model": model.name, "params": _params_doc(model),
           "A": _cjson(shift.A), "B": _cjson(shift.B),
           "poles": entries,
           "zeta0": _cjson(rep.report.zeta0),
           "zeta_prime0": _cjson(rep.report.zeta_prime0),
           "values": {str(n): _cjson(v) for n, v in sorted(rep.values.items())},
           "flags": list(rep.flags) + ([branch_note] if branch_note else [])}
    if args.check:
        doc["check_discrepancy"] = _shift_check(model, shift, rep)
    lines = [f"transformed sequence A*a_n + B with A={_fmt(shift.A)}, B={_fmt(shift.B)}"]
    for p in rep.report.poles:
        lines.append(f"pole at s = {p.location:g}, order {p.order}, "
                     f"residue {_fmt(p.residue)}")
    if rep.report.zeta0 is not None:
        lines.append(f"zeta(0) = {_fmt(rep.report.zeta0)}")
    if rep.report.zeta_prime0 is not None:
        lines.append(f"zeta'(0) = {_fmt(rep.report.zeta_prime0)}")
    for n, v in sorted(rep.values.items()):
        lines.append(f"zeta({n}) = {_fmt(v)}")
    for fl in doc["flags"]:
        lines.append(f"note: {fl}")
    if args.check:
        lines.append(f"independent route discrepancy: {doc['check_discrepancy']:.2e}")
    _emit(args, doc, lines)
    return 0


def _ray_options(args) -> dict:
    """--R, --tmax and --tol as keywords of contour_zeta / continued_zeta."""
    return {key: v for key, v in (("R", args.R), ("t_max", args.tmax), ("quad_tol", args.tol))
            if v is not None}


def _require_zeros(model, purpose: str):
    if model.zeros is None:
        raise ZetakitError(f"model {model.name!r} has no zero generator for {purpose}")


def _point_command(args, which: str) -> int:
    model = _build_model(args)
    if which == "series":
        _require_zeros(model, "direct summation")
    s = args.s
    kw = _ray_options(args)
    if which == "series":
        val = zeta_series(model.zeros, s, args.nterms, psi=model.asym.psi)
    elif which == "contour":
        val = contour_zeta(model, s, **kw)
    else:
        val = continued_zeta(model, s, **kw)
    doc = {"command": which, "model": model.name, "params": _params_doc(model),
           "s": _cjson(s), "value": _cjson(val)}
    lines = [f"zeta({_fmt(s)}) = {_fmt(val)}   [{which}]"]
    if args.check:
        if which == "series":
            other = contour_zeta(model, s, **kw)
        elif which == "contour":
            other = continued_zeta(model, s, **kw)
        else:
            other = (zeta_series(model.zeros, s, 4000, psi=model.asym.psi)
                     if (model.zeros is not None and s.real > model.alpha + 0.25)
                     else contour_zeta(model, s, **kw)
                     if s.real > model.alpha else None)
        if other is not None:
            doc["check_discrepancy"] = abs(val - other)
            lines.append(f"independent route discrepancy: {abs(val - other):.2e}")
    _emit(args, doc, lines)
    return 0


def cmd_aaa(args) -> int:
    model = _build_model(args)
    _require_zeros(model, "sampling")
    lo, hi = 2.0, 8.0
    pts = np.linspace(lo, hi, args.npoints)
    samples = np.array([zeta_series(model.zeros, s, args.nterms, psi=model.asym.psi)
                        for s in pts])
    fit = aaa_fit(pts, samples, rel_tol=(args.tol or 1e-13))
    zeros, poles = find_real_features(fit, (-3.0, 0.0))
    v1 = bary_eval(fit, 1.0)
    v0 = bary_eval(fit, 0.0)
    d0 = derivative_at(fit, 0.0)
    vm = bary_eval(fit, -0.5)
    doc = {"command": "aaa", "model": model.name, "params": _params_doc(model),
           "degree": fit.degree, "max_residual": fit.max_residual,
           "converged": fit.converged,
           "features": {"zeros": list(map(float, zeros)),
                        "poles": list(map(float, poles))},
           "verification": {
               "zeta1": _cjson(v1), "zeta0": _cjson(v0),
               "zeta_prime0": _cjson(d0), "zeta_minus_half": _cjson(vm)}}
    lines = [
        f"fitted degree {fit.degree}, max relative residual {fit.max_residual:.2e}"
        + ("" if fit.converged else "  (tolerance not reached)"),
        f"real zeros in [-3, 0]: {[f'{z:.6f}' for z in zeros]}",
        f"real poles in [-3, 0]: {[f'{p:.6f}' for p in poles]}",
        f"zeta(1)  ~ {_fmt(v1)}",
        f"zeta(0)  ~ {_fmt(v0)}",
        f"zeta'(0) ~ {_fmt(d0)}",
        f"zeta(-1/2) ~ {_fmt(vm)}",
    ]
    _emit(args, doc, lines)
    return 0


def cmd_catalog(args) -> int:
    entries = [
        {"model": "riemann", "spec": {"model": "riemann"}},
        {"model": "hurwitz", "spec": {"model": "hurwitz", "a": 0.25}},
        {"model": "airy", "spec": {"model": "airy"}},
        {"model": "pcf", "spec": {"model": "pcf", "a": 1.0}},
        {"model": "chf", "spec": {"model": "chf", "a": 0.5, "b": 1.5}},
    ]
    doc = {"command": "catalog", "models": entries}
    lines = [f"{e['model']}: {json.dumps(e['spec'])}" for e in entries]
    _emit(args, doc, lines)
    return 0


_NUMERIC_FLAGS = {"R": "circle radius", "tmax": "upper bound of the ray-cutoff search",
                  "tol": "tolerance override"}


def _add_common(p, *numeric, check=True, with_s=False):
    """--model, --a, --b, --json, --check unless check=False, and the named
    numeric flags (R, tmax, tol): a subcommand declares only what it reads."""
    p.add_argument("--model", required=True,
                   help="model name (%s) or a JSON spec" % "|".join(_MODELS))
    p.add_argument("--a", type=_param, default=None, help="model parameter a")
    p.add_argument("--b", type=_param, default=None, help="model parameter b")
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    if check:
        p.add_argument("--check", action="store_true",
                       help="re-derive through an independent route")
    for name in numeric:
        p.add_argument(f"--{name}", type=float, default=None, help=_NUMERIC_FLAGS[name])
    if with_s:
        p.add_argument("--s", type=_cnum, required=True, help="evaluation point (complex ok)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zetakit",
        description="zeta functions of complex sequences from characteristic-function data")
    ap.add_argument("--version", action="version", version=f"zetakit {__version__}")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    every = tuple(_NUMERIC_FLAGS)
    p = sub.add_parser("values", help="special values at integers")
    _add_common(p, *every)
    p.add_argument("--n", type=_parse_n_range, required=True, help="integer or range lo..hi")
    p.set_defaults(fn=cmd_values, usage_error=p.error)

    p = sub.add_parser("poles", help="pole locations, orders, residues")
    _add_common(p)
    p.set_defaults(fn=cmd_poles, usage_error=p.error)

    p = sub.add_parser("shift", help="linear sequence transformation A*a_n + B")
    _add_common(p)
    p.add_argument("--A", type=_cnum, required=True, help="scale factor (complex ok)")
    p.add_argument("--B", type=_cnum, required=True, help="offset (complex ok)")
    p.set_defaults(fn=cmd_shift, usage_error=p.error)

    p = sub.add_parser("series", help="direct series summation")
    _add_common(p, *every, with_s=True)
    p.add_argument("--nterms", type=int, default=10000)
    p.set_defaults(fn=lambda a: _point_command(a, "series"), usage_error=p.error)

    p = sub.add_parser("contour", help="deformed-contour quadrature")
    _add_common(p, *every, with_s=True)
    p.set_defaults(fn=lambda a: _point_command(a, "contour"), usage_error=p.error)

    p = sub.add_parser("continue", help="analytically continued representation")
    _add_common(p, *every, with_s=True)
    p.set_defaults(fn=lambda a: _point_command(a, "continue"), usage_error=p.error)

    p = sub.add_parser("aaa", help="rational continuation of series samples")
    _add_common(p, "tol", check=False)
    p.add_argument("--npoints", type=int, default=100)
    p.add_argument("--nterms", type=int, default=10000)
    p.set_defaults(fn=cmd_aaa, usage_error=p.error)

    p = sub.add_parser("catalog", help="list bundled models")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_catalog, usage_error=p.error)
    return ap


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:       # reported with the usage line of the subcommand
        args.usage_error("unrecognized arguments: " + " ".join(extra))
    try:
        return args.fn(args)
    except ZetakitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
