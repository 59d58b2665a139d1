"""Outside-in tracer for the rank2cluster layers.

Nothing inside the package is instrumented.  `install` wraps the public
functions of each layer after the package is imported and rebinds every
module-level name that refers to an original, because `cli` and the other
modules import library functions by name: rebinding only the defining
module would miss their calls.  `LaurentPoly2` methods are wrapped on the
class, which also catches the recurrence's internal `**`, `+` and
`exact_div`.

A span is `[name, parent, start_ns, dur_ns, attrs]`, kept in memory with the
index of its parent span and returned to the caller at the end.  Generator
layers accumulate only the time spent inside the generator body, so a
consumer that stops early leaves no open span.  `mod_binom` is count-only:
it runs millions of times per op, and a span per call would swamp the trace.

`summarize` turns the spans and counters of traced ops into the per-layer
metrics.  Every `.s` metric is self time: a span's duration minus the
durations of its child spans.
"""
from __future__ import annotations

import statistics
import sys
import time
from functools import wraps

PACKAGE = "rank2cluster"
_REC = "recurrence.cluster_var_recurrence"


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = {"mod_binom.calls": 0, "mod_binom.zeros": 0}

    def _open(self, name: str) -> tuple[int, list]:
        span = [name, self.stack[-1] if self.stack else -1, 0, 0, None]
        self.spans.append(span)
        return len(self.spans) - 1, span

    def wrap(self, name, fn, measure=None):
        """Wrap a plain function; `measure(args, result)` sets the span's attrs."""
        stack, clock = self.stack, time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            idx, span = self._open(name)
            stack.append(idx)
            span[2] = t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock() - t0
                stack.pop()
            if measure is not None:
                span[4] = measure(args, out)
            return out

        return traced

    def wrap_gen(self, name, fn):
        """Wrap a generator function; attrs count the items it yields."""
        stack, clock = self.stack, time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            idx, span = self._open(name)
            span[2] = clock()
            span[4] = attrs = {"items": 0}
            it = fn(*args, **kwargs)
            while True:
                stack.append(idx)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    span[3] += clock() - t0
                    stack.pop()
                attrs["items"] += 1
                yield item

        return traced

    def count_mod_binom(self, fn):
        counters = self.counters

        @wraps(fn)
        def counted(a, b):
            v = fn(a, b)
            counters["mod_binom.calls"] += 1
            if not v:
                counters["mod_binom.zeros"] += 1
            return v

        return counted


def _pow_attrs(args, out):
    return {
        "in_terms": args[0].num_terms(),
        "out_terms": out.num_terms(),
        "out_bits": sum(abs(v).bit_length() for _, v in out.items()),
    }


def _div_attrs(args, out):
    return {
        "dividend_terms": args[0].num_terms(),
        "divisor_terms": args[1].num_terms(),
        "quot_terms": out.num_terms(),
    }


def _out_terms(args, out):
    return {"out_terms": out.num_terms()}


# (span name, module, attribute, kind, measure); kind is "fn", "gen" or "method"
LAYERS = (
    ("laurent.init", "laurent", "LaurentPoly2.__init__", "method", None),
    ("laurent.eq", "laurent", "LaurentPoly2.__eq__", "method", None),
    ("laurent.add", "laurent", "LaurentPoly2.__add__", "method", None),
    ("laurent.pow", "laurent", "LaurentPoly2.__pow__", "method", _pow_attrs),
    ("laurent.exact_div", "laurent", "LaurentPoly2.exact_div", "method", _div_attrs),
    ("laurent.eval_exact", "laurent", "LaurentPoly2.eval_exact", "method", None),
    ("closedform.enumerate_admissible", "closedform", "enumerate_admissible", "gen", None),
    ("closedform.chi_formula", "closedform", "chi_formula", "fn", None),
    ("closedform.chi_formula_summands", "closedform", "chi_formula_summands", "gen", None),
    ("closedform.cluster_var_formula", "closedform", "cluster_var_formula", "fn", _out_terms),
    ("closedform.cluster_var_formula_v2", "closedform", "cluster_var_formula_v2", "fn", None),
    ("identities.staged_chi_sum", "identities", "staged_chi_sum", "fn", None),
    ("identities.vandermonde_sides", "identities", "vandermonde_sides", "fn", None),
    ("identities.vanishing_check", "identities", "vanishing_check", "fn", None),
    ("recurrence.cluster_var_recurrence", "recurrence", "cluster_var_recurrence", "fn", None),
    ("recurrence.chi_from_expansion", "recurrence", "chi_from_expansion", "fn", None),
    ("cli.render", "cli", "render_poly", "fn", None),
    ("cli.render", "cli", "render_chi_table", "fn", None),
    ("cli.run_check", "cli", "run_check", "fn", None),
)


def _rebind(orig, replacement) -> int:
    """Replace every package-module binding of `orig`; returns how many."""
    hits = 0
    for mname, mod in list(sys.modules.items()):
        if mod is None or not (mname == PACKAGE or mname.startswith(PACKAGE + ".")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def install(rec: Recorder) -> None:
    """Wrap every layer in LAYERS and `mod_binom`; the package must be imported."""
    for name, modname, attr, kind, measure in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{modname}"]
        if kind == "method":
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, rec.wrap(name, vars(cls)[meth], measure))
            continue
        orig = getattr(mod, attr)
        wrapped = rec.wrap_gen(name, orig) if kind == "gen" else rec.wrap(name, orig, measure)
        if not _rebind(orig, wrapped):
            raise LookupError(f"no binding of {modname}.{attr} found")
    combinat = sys.modules[f"{PACKAGE}.combinat"]
    orig = combinat.mod_binom
    if not _rebind(orig, rec.count_mod_binom(orig)):
        raise LookupError("no binding of combinat.mod_binom found")


# ---------------------------------------------------------------------------
# summary over the spans of several traced ops


def self_times(spans: list[list]) -> list[int]:
    """Self time in ns of each span: its duration minus its children's."""
    own = [s[3] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[3]
    return own


def summarize(ops: list[dict]) -> tuple[dict[str, float], list[tuple[str, float]]]:
    """Per-layer metrics and the self-time ranking over traced ops.

    Each op is `{"spans": [...], "counters": {...}}` as the worker returns it.
    """
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, int] = {}
    check_s: list[float] = []
    memo_hits = steps = 0
    counters = {"mod_binom.calls": 0, "mod_binom.zeros": 0}
    for op in ops:
        spans = op["spans"]
        for k in counters:
            counters[k] += op["counters"][k]
        own = self_times(spans)
        laurent_child = [False] * len(spans)
        for i, s in enumerate(spans):
            name, parent = s[0], s[1]
            self_ns[name] = self_ns.get(name, 0) + own[i]
            calls[name] = calls.get(name, 0) + 1
            for key, v in (s[4] or {}).items():
                attrs[f"{name}.{key}"] = attrs.get(f"{name}.{key}", 0) + v
            if name == "cli.run_check":
                check_s.append(s[3] / 1e9)
            if parent >= 0 and name.startswith("laurent."):
                laurent_child[parent] = True
                if name == "laurent.exact_div" and spans[parent][0] == _REC:
                    steps += 1
        memo_hits += sum(
            not laurent_child[i] for i, s in enumerate(spans) if s[0] == _REC
        )

    def sec(name):
        return self_ns.get(name, 0) / 1e9

    m = {}
    for name in ("laurent.pow", "laurent.exact_div", "laurent.init", "laurent.eq",
                 "laurent.add", "laurent.eval_exact", "closedform.chi_formula",
                 "closedform.cluster_var_formula", "closedform.cluster_var_formula_v2",
                 "closedform.chi_formula_summands", "closedform.enumerate_admissible",
                 "identities.staged_chi_sum", "identities.vandermonde_sides",
                 "identities.vanishing_check", "cli.render"):
        m[f"{name}.s"] = sec(name)
    for name in ("laurent.pow", "laurent.exact_div", "laurent.init",
                 "closedform.chi_formula", "identities.staged_chi_sum", "cli.run_check"):
        m[f"{name}.calls"] = calls.get(name, 0)
    for key in ("laurent.pow.in_terms", "laurent.pow.out_terms", "laurent.pow.out_bits",
                "laurent.exact_div.dividend_terms", "laurent.exact_div.divisor_terms",
                "laurent.exact_div.quot_terms", "closedform.cluster_var_formula.out_terms"):
        m[key] = attrs.get(key, 0)
    m["closedform.enumerate_admissible.tuples"] = attrs.get(
        "closedform.enumerate_admissible.items", 0
    )
    nb = counters["mod_binom.calls"]
    m["combinat.mod_binom.calls"] = nb
    m["combinat.mod_binom.zero_frac"] = counters["mod_binom.zeros"] / nb if nb else 0.0
    m["recurrence.cluster_var_recurrence.calls"] = calls.get(_REC, 0)
    m["recurrence.cluster_var_recurrence.memo_hits"] = memo_hits
    m["recurrence.cluster_var_recurrence.steps"] = steps
    m["recurrence.chi_from_expansion.self_s"] = sec("recurrence.chi_from_expansion")
    m["cli.run_check.self_s"] = sec("cli.run_check")
    if len(check_s) >= 2:
        q = statistics.quantiles(check_s, n=10, method="inclusive")
        m["cli.run_check.p50_s"], m["cli.run_check.p90_s"] = q[4], q[8]
    else:
        m["cli.run_check.p50_s"] = m["cli.run_check.p90_s"] = check_s[0] if check_s else 0.0
    ranking = sorted(((k, v / 1e9) for k, v in self_ns.items()), key=lambda kv: -kv[1])
    return m, ranking
