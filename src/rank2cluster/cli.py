"""Command line interface: expansions, characteristic tables, verification.

Machine-readable output goes to stdout and is byte-stable for a fixed
invocation and seed; timings and diagnostics go to stderr.  Exit codes:
0 success or all checks passed, 1 a cross-check, verification or internal
invariant failed (any exception other than a usage error), 2 usage error,
141 stdout was closed by its reader before the output was written, as
`| head` does (the shell's status for a writer killed by SIGPIPE); no
error line is printed then.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
import traceback
from fractions import Fraction
from types import MappingProxyType

from .closedform import (
    chi_formula,
    chi_formula_summands,
    chi_table_from_formula,
    cluster_var_formula,
    cluster_var_formula_v2,
)
from .combinat import ClusterContext
from .identities import (
    RationalPoly,
    _vanishing_stages,
    staged_chi_sum,
    vandermonde_sides,
    vanishing_check,
)
from .laurent import LaurentPoly2, _int_to_digits
from .recurrence import chi_from_expansion, cluster_var_recurrence, scalar_cluster_value

# default verification grid: (parameter, largest index)
GRID = ((2, 12), (3, 8), (4, 7))
GRID_KINDS = ("expand", "v2", "chi", "coeffsum", "denominator", "positivity")
# suites of a single check kind: (kind, parameters, indices)
KIND_SUITES = (
    ("vanishing", (1, 2, 3), (4, 5, 6, 7)),
    ("invariance", (2, 3), (5, 6, 7)),
)
SUITES = ("all", "grid", "vanishing", "vandermonde", "invariance")


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# rendering


def _records(items, keys: tuple[str, str, str], fmt: str) -> str:
    """Sorted (i, j) -> value cells as tsv rows, or as a JSON array of objects.

    Every field is an int or a digit string, which JSON writes without
    escapes, so the array is the json module's text for the list of dicts.
    """
    if fmt != "json":
        return "\n".join(f"{i}\t{j}\t{_int_to_digits(v)}" for (i, j), v in items)
    ki, kj, kv = keys
    return "[" + ", ".join(
        f'{{"{ki}": {i}, "{kj}": {j}, "{kv}": "{_int_to_digits(v)}"}}'
        for (i, j), v in items
    ) + "]"


def render_poly(poly: LaurentPoly2, fmt: str) -> str:
    if fmt == "pretty":
        return str(poly)
    return _records(poly.items(), ("d1", "d2", "coeff"), fmt)


def render_chi_table(table, fmt: str) -> str:
    rows = _records(table.items(), ("e1", "e2", "value"), fmt)
    c, n, (an1, an2) = table.c, table.n, table.dim_vector
    if fmt == "json":
        return f'{{"c": {c}, "n": {n}, "dim": [{an1}, {an2}], "chi": {rows}}}'
    if fmt == "tsv":
        return rows
    return f"# c={c} n={n} dim=({an1},{an2})\n" + rows


def render_chi_value(c: int, n: int, e1: int, e2: int, value: int, fmt: str) -> str:
    digits = _int_to_digits(value)
    if fmt == "json":
        return json.dumps({"c": c, "n": n, "e1": e1, "e2": e2, "chi": digits})
    if fmt == "tsv":
        return f"{e1}\t{e2}\t{digits}"
    return digits


# ---------------------------------------------------------------------------
# expand / chi commands


def _print_compared(text: str, same: bool) -> int:
    """Print a result and the verdict of its cross-check; the exit code."""
    print(text)
    print("MATCH" if same else "MISMATCH")
    return 0 if same else 1


def cmd_expand(args) -> int:
    if args.c < 2:
        raise UsageError("expand requires --c >= 2")
    lo = 1 if args.method == "recurrence" else 3
    if args.n < lo:
        raise UsageError(f"expand --method {args.method} requires --n >= {lo}")
    ctx = ClusterContext(args.c)
    if args.method == "formula":
        poly = cluster_var_formula(ctx, args.n)
    elif args.method == "v2":
        poly = cluster_var_formula_v2(ctx, args.n)
    else:
        poly = cluster_var_recurrence(ctx, args.n)
    text = render_poly(poly, args.format)
    if args.method == "both":
        return _print_compared(text, poly == cluster_var_formula(ctx, args.n))
    print(text)
    return 0


def cmd_chi(args) -> int:
    if args.c < 2:
        raise UsageError("chi requires --c >= 2")
    if args.n < 3:
        raise UsageError("chi requires --n >= 3")
    if (args.e1 is None) != (args.e2 is None):
        raise UsageError("--e1 and --e2 must be given together")
    ctx = ClusterContext(args.c)
    n, e1, e2 = args.n, args.e1, args.e2
    single = e1 is not None

    def by_formula():
        return chi_formula(ctx, n, e1, e2) if single else chi_table_from_formula(ctx, n)

    if args.method == "formula":
        out = by_formula()
    else:
        table = chi_from_expansion(ctx, n)
        out = table.chi(e1, e2) if single else table
    if single:
        text = render_chi_value(args.c, n, e1, e2, out, args.format)
    else:
        text = render_chi_table(out, args.format)
    if args.method == "both":
        return _print_compared(text, out == by_formula())
    print(text)
    return 0


# ---------------------------------------------------------------------------
# verify command: named checks over the acceptance grid


def _check_expand(ctx: ClusterContext, n: int, seed: int):
    ok = cluster_var_formula(ctx, n) == cluster_var_recurrence(ctx, n)
    return ok, "closed form == recurrence" if ok else "expansion mismatch"


def _check_v2(ctx: ClusterContext, n: int, seed: int):
    ok = cluster_var_formula_v2(ctx, n) == cluster_var_formula(ctx, n)
    return ok, "substituted form == closed form" if ok else "expansion mismatch"


def _check_chi(ctx: ClusterContext, n: int, seed: int):
    table = chi_from_expansion(ctx, n)
    formula = chi_table_from_formula(ctx, n)
    if formula != table:
        cells = table.entries.keys() | formula.entries.keys()
        bad = [k for k in cells if table.chi(*k) != formula.chi(*k)]
        if bad:
            e1, e2 = min(bad)
            return False, f"cell ({e1},{e2}) disagrees"
        field = next(f for f in ("c", "n", "dim_vector", "entries")
                     if getattr(formula, f) != getattr(table, f))
        return False, f"table field {field} disagrees"
    an1, an2 = table.dim_vector
    rng = random.Random(f"{seed}:chi:{ctx.c}:{n}")
    done = 0
    while done < 50:
        e1 = rng.randint(-an1 - 3, 2 * an1 + 3)
        e2 = rng.randint(-an2 - 3, 2 * an2 + 3)
        if 0 <= e1 <= an1 and 0 <= e2 <= an2:
            continue
        if chi_formula(ctx, n, e1, e2) != 0:
            return False, f"out-of-box cell ({e1},{e2}) is nonzero"
        done += 1
    return True, "box + 50 out-of-box cells agree"


def _check_coeffsum(ctx: ClusterContext, n: int, seed: int):
    got = sum(v for _, v in cluster_var_recurrence(ctx, n).items())  # x_n at (1, 1)
    want = scalar_cluster_value(ctx.c, n)
    ok = got == want
    return ok, f"x_{n}(1,1) = {want}" if ok else f"got {got}, want {want}"


def _check_denominator(ctx: ClusterContext, n: int, seed: int):
    poly = cluster_var_recurrence(ctx, n)
    want = (-ctx.a(n - 1), -ctx.a(n - 2))
    if poly.min_exponents() != want:
        return False, f"minimal exponents {poly.min_exponents()}, want {want}"
    if poly.coeff(*want) != 1:
        return False, f"coefficient at {want} is {poly.coeff(*want)}, want 1"
    return True, f"denominator exponents {want}, unit coefficient"


def _check_positivity(ctx: ClusterContext, n: int, seed: int):
    poly = cluster_var_recurrence(ctx, n)
    bad = [k for k, v in poly.items() if v < 0]
    ok = not bad
    return ok, "all coefficients nonnegative" if ok else f"negative at {bad[:3]}"


def _check_nonneg_region(ctx: ClusterContext, n: int, seed: int):
    an1, an2, an3 = ctx.a(n - 1), ctx.a(n - 2), ctx.a(n - 3)
    for e2 in range(an2 + 1):
        if ctx.c * e2 < an3:
            continue
        for e1 in range(an1 + 1):
            # a cell value is the sum of its summands: nonnegative with them
            if any(t < 0 for t in chi_formula_summands(ctx, n, e1, e2)):
                return False, f"negative summand at ({e1},{e2})"
    return True, "values and summands nonnegative for c*e2 >= a_{n-3}"


def _check_vanishing(ctx: ClusterContext, n: int, seed: int):
    an1, an2 = ctx.a(n - 1), ctx.a(n - 2)
    span = max(abs(an1), abs(an2), 4)
    rng = random.Random(f"{seed}:vanishing:{ctx.c}:{n}")
    done = 0
    while done < 100:
        e1 = rng.randint(-2 * span, 2 * span)
        e2 = rng.randint(-2 * span, 2 * span)
        if e2 * an1 - e1 * an2 >= 0:
            continue
        if not vanishing_check(ctx, n, e1, e2):
            return False, f"nonzero sum at ({e1},{e2})"
        done += 1
    if not _vanishing_stages(ctx, n):
        # the pairing guard that the cell sum returns on is the hypothesis itself
        return True, "definitional here: no staged sum below the cell value"
    return True, "100 negative-pairing cells vanish"


def _check_invariance(ctx: ClusterContext, n: int, seed: int):
    an1, an2 = ctx.a(n - 1), ctx.a(n - 2)
    for e1 in range(an1 + 1):
        for e2 in range(an2 + 1):
            want = chi_formula(ctx, n, e1, e2)
            for stage in range(-1, n - 4):  # stage n-4 is the cell value itself
                if staged_chi_sum(ctx, n, e1, e2, stage) != want:
                    return False, f"stage {stage} differs at ({e1},{e2})"
    return True, "all stages equal the cell value on the full box"


def _check_vandermonde(trials: int, seed: int):
    rng = random.Random(f"{seed}:vandermonde")
    done = 0
    while done < trials:
        a = rng.randint(-12, 12)
        b = rng.randint(-12, 12)
        if a + b < 0:
            continue
        m = rng.randint(-15, 15)
        q = rng.randint(0, min(4, a + b))
        coeffs = [
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            for _ in range(q + 1)
        ]
        poly = RationalPoly.from_coeffs(coeffs)
        lhs, rhs = vandermonde_sides(a, b, m, poly)
        if lhs != rhs:
            return False, f"sides differ at (a={a}, b={b}, m={m})"
        done += 1
    return True, f"{trials} weighted convolution instances agree"


_CHECK_KINDS = MappingProxyType({
    "expand": _check_expand,
    "v2": _check_v2,
    "chi": _check_chi,
    "coeffsum": _check_coeffsum,
    "denominator": _check_denominator,
    "positivity": _check_positivity,
    "nonneg-region": _check_nonneg_region,
    "vanishing": _check_vanishing,
    "invariance": _check_invariance,
})


def run_check(desc: dict, ctx: ClusterContext | None) -> tuple[str, bool, str, float]:
    """(name, passed, detail, seconds) of one check; a check that raises fails."""
    t0 = time.perf_counter()
    try:
        if desc["kind"] == "vandermonde":
            ok, detail = _check_vandermonde(desc["trials"], desc["seed"])
        else:
            fn = _CHECK_KINDS[desc["kind"]]
            ok, detail = fn(ctx, desc["n"], desc["seed"])
    except Exception as exc:
        # the check's name says where it came from; the other checks still run
        print(f"# {desc['name']} raised:", file=sys.stderr)
        traceback.print_exc()
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    return desc["name"], ok, detail, time.perf_counter() - t0


def run_checks(checks: list[dict]) -> list[tuple[str, bool, str, float]]:
    """`run_check` of each check, in order, with one context per c (vandermonde: None)."""
    contexts = {c: ClusterContext(c) for c in {d["c"] for d in checks if "c" in d}}
    return [run_check(desc, contexts.get(desc.get("c"))) for desc in checks]


def build_checks(args) -> list[dict]:
    """The check descriptors that `verify` runs for these arguments."""
    points = [
        ("grid", kind, f"{kind}/c{c}/n{n:02d}", c, n)
        for c, top in GRID
        for n in range(3, top + 1)
        for kind in GRID_KINDS + (("nonneg-region",) if c >= 3 else ())
    ]
    points += [
        (kind, kind, f"{kind}/c{c}/n{n}", c, n)
        for kind, cs, ns in KIND_SUITES
        for c in cs
        for n in ns
    ]
    checks = [
        {"kind": kind, "name": name, "c": c, "n": n, "seed": args.seed}
        for suite, kind, name, c, n in points
        if args.suite in ("all", suite) and args.c in (None, c) and n <= args.n_max
    ]
    if args.suite in ("all", "vandermonde"):
        checks.append(
            {"kind": "vandermonde", "name": "vandermonde", "trials": args.trials,
             "seed": args.seed}
        )
    return checks


def cmd_verify(args) -> int:
    if args.n_max < 3:
        raise UsageError("verify requires --n-max >= 3")
    if args.c is not None and args.c < 1:
        raise UsageError("verify requires --c >= 1")
    if args.trials < 1:
        raise UsageError("verify requires --trials >= 1")
    if args.jobs < 1:
        raise UsageError("verify requires --jobs >= 1")
    checks = build_checks(args)
    # --c outside every suite of c-dependent checks would run only the
    # c-independent vandermonde check, which says nothing about that c
    if not checks or (
        args.c is not None
        and args.suite != "vandermonde"
        and all(desc["kind"] == "vandermonde" for desc in checks)
    ):
        raise UsageError("no checks selected for this configuration")

    # one task per c; more workers than tasks or cores would only add start-up cost
    cs = dict.fromkeys(desc.get("c") for desc in checks)
    groups = [[desc for desc in checks if desc.get("c") == c] for c in cs]
    workers = min(args.jobs, len(groups), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(run_checks, groups))
    else:
        batches = map(run_checks, groups)
    results = sorted((r for batch in batches for r in batch), key=lambda r: r[0])

    for name, _ok, _detail, dt in results:
        print(f"# {name}: {dt:.3f}s", file=sys.stderr)

    all_passed = all(ok for _, ok, _, _ in results)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "checks": [
                        {"name": name, "passed": ok, "detail": detail}
                        for name, ok, detail, _ in results
                    ],
                    "all_passed": all_passed,
                }
            )
        )
    elif args.format == "tsv":
        for name, ok, detail, _ in results:
            print(f"{name}\t{'PASS' if ok else 'FAIL'}\t{detail}")
    else:
        for name, ok, detail, _ in results:
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        npass = sum(1 for _, ok, _, _ in results if ok)
        print(f"{npass}/{len(results)} checks passed")
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rank2cluster",
        description=(
            "Exact rank-two cluster variable expansions and quiver "
            "Grassmannian Euler characteristics, cross-verified."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="print the expansion of x_n")
    p_expand.add_argument("--c", type=int, required=True)
    p_expand.add_argument("--n", type=int, required=True)
    p_expand.add_argument(
        "--method",
        choices=("formula", "recurrence", "both", "v2"),
        default="both",
    )
    p_expand.add_argument("--format", choices=("json", "tsv", "pretty"), default="pretty")
    p_expand.set_defaults(func=cmd_expand)

    p_chi = sub.add_parser("chi", help="print characteristic values or the full table")
    p_chi.add_argument("--c", type=int, required=True)
    p_chi.add_argument("--n", type=int, required=True)
    p_chi.add_argument("--e1", type=int, default=None)
    p_chi.add_argument("--e2", type=int, default=None)
    p_chi.add_argument(
        "--method", choices=("formula", "recurrence", "both"), default="both"
    )
    p_chi.add_argument("--format", choices=("json", "tsv", "pretty"), default="pretty")
    p_chi.set_defaults(func=cmd_chi)

    p_verify = sub.add_parser("verify", help="run cross-verification checks")
    p_verify.add_argument("--c", type=int, default=None, help="restrict to one parameter")
    p_verify.add_argument("--n-max", type=int, default=max(top for _, top in GRID))
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument("--trials", type=int, default=500)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--format", choices=("json", "tsv", "pretty"), default="pretty")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed early shows here, not at exit
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has what it wanted; point stdout at devnull so that the
        # interpreter's final flush of what is still buffered stays silent
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):  # no real descriptor, or closed
            return 141
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 141
    except Exception as exc:
        # the arguments were validated above, so anything else is an internal failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
