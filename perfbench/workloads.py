"""Seeded op lists for the three workloads.

The generator draws every input (model parameters, ``s`` points, radii,
``n`` ranges, CLI argv) from the pools stored in ``refs.json`` with a
``random.Random(seed)``.  An op list is a sequence of *decks*.  Every deck
of a workload has the same composition (how many ops of each kind and
model), and the seed chooses the inputs inside each slot, so run-to-run
differences come from the inputs and not from a different mix.

This module imports neither numpy nor zetakit: the set-up probe imports it
before its timed window opens.
"""

import json
import os
import random
import types

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("continue", "sample-fit", "cli-tables")
MODELS = ("riemann", "hurwitz", "airy", "pcf", "chf")
ALPHA = {"riemann": 1.0, "hurwitz": 1.0, "airy": 1.5, "pcf": 2.0, "chf": 1.0}
# decks per op list: more than a 60-second run completes at the seed commit
DECKS = {"continue": 64, "sample-fit": 128, "cli-tables": 640}

# continue: slots per model in one deck (23 ops).  Models with four
# parameter values get one continued op per value (in seeded order), so
# every deck holds the same parameters; the seed picks s, R and the order.
CONTINUE_SLOTS = {
    "riemann": ["real", "real", "complex"],
    "hurwitz": ["real", "complex", "complex", "complex"],
    "airy": ["real", "real", "complex"],
    "pcf": ["real", "real", "real", "complex"],
    "chf": ["real", "complex", "real", "complex"],
}
CONTOUR_SLOTS = ("integer",)
# Pool groups that raise at the seed commit (README "Ops that fail at the
# seed commit").  They stay out of the timed decks, so that every timed op
# succeeds, and run once per continue run, untimed, as the defect probe.
DEFECT_GROUPS = (("contour", "noninteger"), ("continued", "negative"))
# sample-fit: one op per (model, stratum); npts and n_terms strata
SAMPLE_FIT_MODELS = ("riemann", "hurwitz", "airy")
NPTS_STRATA = ((32, 40), (41, 50), (51, 60))
NTERMS_STRATA = ((2000, 4000), (6000,), (8000, 10000))
# cli-tables: exact_sum_rule n strata (the last slot is the n = 16 cap)
SUM_RULE_STRATA = ((2, 8), (9, 12), (13, 15), (16, 16))


def load_refs():
    with open(os.path.join(HERE, "refs.json")) as fh:
        return json.load(fh)


def spec_key(spec):
    return json.dumps(spec, sort_keys=True)


class Op:
    """One closed-loop request: what to call, with what, checked against what."""

    __slots__ = ("kind", "spec", "args", "ref", "label")

    def __init__(self, kind, spec, args, ref, label):
        self.kind = kind      # continued | contour | sample_fit | cli | sum_rule
        self.spec = spec      # model spec dict, or None
        self.args = args      # call arguments (JSON-able)
        self.ref = ref        # reference data (JSON-able)
        self.label = label    # short stable description

    def key(self):
        return json.dumps([self.kind, self.spec, self.args], sort_keys=True)


class _Bags:
    """Draws without replacement from each named list, reshuffling when empty.

    Over a run every entry of a slot's pool is drawn about equally often,
    so two seeds differ in order and pairing more than in coverage.
    """

    def __init__(self, rng):
        self.rng = rng
        self.bags = {}

    def draw(self, key, items):
        bag = self.bags.get(key)
        if not bag:
            bag = self.bags[key] = self.rng.sample(items, len(items))
        return bag.pop()


def _continue_deck(rng, bags, pool):
    deck = []

    def add(op, spec, group):
        entry = bags.draw((spec_key(spec), op, group), pool[(spec_key(spec), op, group)])
        args = {"s": entry["s"]}
        if entry["radii"]:
            args["R"] = rng.choice(entry["radii"])
        label = f"{op} {_spec_label(spec)} s={complex(*entry['s']):g}" + (
            f" R={args['R']}" if "R" in args else "")
        deck.append(Op(op, spec, args, entry["ref"], label))

    for name, groups in CONTINUE_SLOTS.items():
        specs = pool["specs"][name]
        order = rng.sample(specs, len(specs))
        for i, group in enumerate(groups):
            add("continued", order[i % len(order)], group)
        for group in CONTOUR_SLOTS:
            add("contour", bags.draw((name, "contour", group), specs), group)
    return deck


def defect_ops(seed, refs=None):
    """The continue run's defect probe: one seeded op per model and group.

    One ``contour_zeta`` at a non-integer ``s`` on each model, and one CHF
    ``continued_zeta`` at Re s < 0 per parameter value.  These are not
    timed and do not count in ``attempted``; run.py reports how many
    still fail.
    """
    refs = load_refs() if refs is None else refs
    rng = random.Random(f"defects:{seed}")
    groups = {}
    for e in refs["continue"]:
        if (e["op"], e["group"]) in DEFECT_GROUPS:
            by = e["spec"]["model"] if e["op"] == "contour" else spec_key(e["spec"])
            groups.setdefault((e["op"], by), []).append(e)
    ops = []
    for (kind, _), entries in sorted(groups.items()):
        entry = rng.choice(entries)
        args = {"s": entry["s"]}
        if entry["radii"]:
            args["R"] = rng.choice(entry["radii"])
        label = f"{kind} {_spec_label(entry['spec'])} s={complex(*entry['s']):g}"
        ops.append(Op(kind, entry["spec"], args, entry["ref"], label))
    return ops


def _sample_fit_deck(rng, bags, fits):
    deck = []
    for name in SAMPLE_FIT_MODELS:
        entries = [e for e in fits if e["spec"]["model"] == name]
        nt_strata = list(NTERMS_STRATA)
        rng.shuffle(nt_strata)
        for (lo, hi), nts in zip(NPTS_STRATA, nt_strata):
            entry = bags.draw(name, entries)
            args = {"npoints": rng.randint(lo, hi), "n_terms": rng.choice(nts)}
            label = (f"sample-fit {_spec_label(entry['spec'])} "
                     f"npts={args['npoints']} n_terms={args['n_terms']}")
            deck.append(Op("sample_fit", entry["spec"], args, entry, label))
    return deck


def _model_argv(spec):
    argv = ["--model", spec["model"]]
    if "a" in spec:
        argv += ["--a", repr(spec["a"])]
    if "b" in spec:
        argv += ["--b", repr(spec["b"])]
    return argv


def _cli_deck(rng, bags, cli):
    models = {}
    for entry in cli["models"].values():
        models.setdefault(entry["spec"]["model"], []).append(entry)
    deck = []
    for name in MODELS:
        entry = rng.choice(models[name])
        lo, hi = rng.randint(-8, -1), rng.randint(0, 12)
        argv = ["values"] + _model_argv(entry["spec"]) + [f"--n={lo}..{hi}", "--json"]
        deck.append(Op("cli", entry["spec"], {"argv": argv}, entry, " ".join(argv)))
    for name in MODELS:
        entry = rng.choice(models[name])
        lo = int(ALPHA[name]) + 1 + rng.randint(0, 5)
        hi = lo + rng.randint(0, 8)
        argv = (["values"] + _model_argv(entry["spec"])
                + [f"--n={lo}..{hi}", "--check", "--json"])
        deck.append(Op("cli", entry["spec"], {"argv": argv}, entry, " ".join(argv)))
    for name in MODELS:
        entry = rng.choice(models[name])
        argv = ["poles"] + _model_argv(entry["spec"]) + ["--check", "--json"]
        deck.append(Op("cli", entry["spec"], {"argv": argv}, entry, " ".join(argv)))
    for _ in range(2):
        entry = rng.choice(cli["shifts"])
        argv = (["shift"] + _model_argv(entry["spec"])
                + ["--A", repr(entry["A"]), "--B", repr(entry["B"]), "--json"])
        deck.append(Op("cli", entry["spec"], {"argv": argv}, entry, " ".join(argv)))
    deck.append(Op("cli", None, {"argv": ["catalog", "--json"]}, None, "catalog --json"))
    for lo, hi in SUM_RULE_STRATA:
        n = rng.randint(lo, hi)
        inputs = {str(j): cli["airy_values"][str(j)] for j in range(1, n)}
        deck.append(Op("sum_rule", {"model": "airy"}, {"n": n, "zeta_values": inputs},
                       cli["airy_values"][str(n)], f"exact_sum_rule airy n={n}"))
    return deck


def _spec_label(spec):
    params = ",".join(f"{k}={v}" for k, v in spec.items() if k != "model")
    return spec["model"] + (f"({params})" if params else "")


def make_decks(workload, seed, refs=None, decks=None):
    """The op list of a workload for a seed, as a list of decks."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    refs = load_refs() if refs is None else refs
    rng = random.Random(f"{workload}:{seed}")
    bags = _Bags(rng)
    out = []
    if workload == "continue":
        pool = {"specs": {}}
        for e in refs["continue"]:
            if (e["op"], e["group"]) in DEFECT_GROUPS:
                continue
            pool.setdefault((spec_key(e["spec"]), e["op"], e["group"]), []).append(e)
            specs = pool["specs"].setdefault(e["spec"]["model"], [])
            if e["spec"] not in specs:
                specs.append(e["spec"])
        make = lambda: _continue_deck(rng, bags, pool)
    elif workload == "sample-fit":
        make = lambda: _sample_fit_deck(rng, bags, refs["sample_fit"])
    else:
        make = lambda: _cli_deck(rng, bags, refs["cli"])
    for _ in range(DECKS[workload] if decks is None else decks):
        deck = make()
        rng.shuffle(deck)
        out.append(deck)
    return out


def setup_plan(workload, decks):
    """What set-up builds before the first op: model specs and table sizes.

    ``models``: every spec the op list uses, built once.  continue and
    sample-fit reuse these models; the CLI builds its own model in each
    invocation, and building them here fills the lazily built kernel
    tables (Bernoulli numbers, Stirling rows) those builds reuse.
    ``zeros``: per spec, the ZeroSequence length the ops slice.
    ``sum_rule``: the exact_sum_rule orders whose composition cache the
    ops reuse.
    """
    plan = {"workload": workload, "models": [], "zeros": {}, "sum_rule": []}
    seen = set()
    for deck in decks:
        for op in deck:
            if op.spec is None:
                continue
            k = spec_key(op.spec)
            if k not in seen:
                seen.add(k)
                plan["models"].append(op.spec)
            if op.kind == "sample_fit":
                plan["zeros"][k] = max(plan["zeros"].get(k, 0), op.args["n_terms"])
            if op.kind == "sum_rule" and op.args["n"] not in plan["sum_rule"]:
                plan["sum_rule"].append(op.args["n"])
    plan["sum_rule"].sort()
    return plan


def prepare(plan):
    """Import zetakit, build the plan's models and fill the tables.

    Returns (zetakit modules namespace, {spec_key: model}).  The caller
    times this call in a fresh interpreter to measure set-up.
    """
    import numpy
    import zetakit
    import zetakit.cli
    from zetakit import aaa, asym, catalog, evaluate, kernels, quadrature, series, shift

    mods = types.SimpleNamespace(
        np=numpy, zetakit=zetakit, cli=zetakit.cli, aaa=aaa, asym=asym, catalog=catalog,
        evaluate=evaluate, kernels=kernels, quadrature=quadrature, series=series, shift=shift)
    models = {}
    for spec in plan["models"]:
        models[spec_key(spec)] = catalog.model_from_spec(spec)
    for k, count in plan["zeros"].items():
        models[k].zeros.values(count)
    if plan["sum_rule"]:
        airy = models[spec_key({"model": "airy"})]
        for n in plan["sum_rule"]:
            zv = {j: complex(1.0) for j in range(1, n)}
            series.exact_sum_rule(airy.series, n, zv)
    return mods, models

