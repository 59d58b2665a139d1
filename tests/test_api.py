"""Contract of the public surface: exported names, traced layers, no asserts."""
import ast
import importlib
import importlib.util
from pathlib import Path

import rank2cluster

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = ROOT / "src" / "rank2cluster"


def test_exported_names_are_pinned():
    # adding or removing a public name must show up as a diff of this set
    assert set(rank2cluster.__all__) == {
        "ClusterContext", "RationalPoly", "LaurentPoly2", "ChiTable",
        "InexactDivisionError", "ExpansionStructureError", "X1", "X2", "ONE",
        "mod_binom", "euler_form", "cluster_var_recurrence", "scalar_cluster_value",
        "chi_from_expansion", "chi_formula", "chi_formula_summands",
        "chi_table_from_formula", "cluster_var_formula", "cluster_var_formula_v2",
        "enumerate_admissible", "staged_chi_sum", "vandermonde_sides", "vanishing_check",
    }
    assert len(rank2cluster.__all__) == len(set(rank2cluster.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in rank2cluster.__all__ if not hasattr(rank2cluster, name)]
    assert missing == []


def test_every_traced_layer_exists():
    # the benchmark's tracer wraps these names from outside; a rename breaks --trace 1
    spec = importlib.util.spec_from_file_location("_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _span, modname, attr, kind, _measure in tracer.LAYERS:
        mod = importlib.import_module(f"rank2cluster.{modname}")
        if kind == "method":
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(mod, cls_name, object))
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(f"{modname}.{attr}")
    assert missing == []


def test_no_assert_statements_in_package():
    # asserts vanish under python -O; invariants must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _package_imports(module: str) -> set[tuple[str, str]]:
    """(sibling module, name) pairs that rank2cluster.<module> imports, in any
    import form; the name is "*" where the whole module is imported."""
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if not node.level:
                if base != "rank2cluster" and not base.startswith("rank2cluster."):
                    continue
                base = base[len("rank2cluster."):]
            if base:
                found.update((base.split(".")[0], alias.name) for alias in node.names)
            else:
                found.update((alias.name, "*") for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("rank2cluster."):
                    found.add((alias.name.split(".")[1], "*"))
    return found


def _imported_modules(module: str) -> set[str]:
    return {source for source, _ in _package_imports(module)}


def test_routes_import_nothing_from_each_other():
    # the two routes must stay independent for their agreement to mean anything
    assert "recurrence" not in _imported_modules("closedform")
    assert "closedform" not in _imported_modules("recurrence")
    assert "closedform" not in _imported_modules("laurent")


def test_combinat_imports_nothing_from_the_package():
    # both routes and the CLI build on the sequence, the binomial and the table
    # type, so they must not reach back into any of them
    assert _imported_modules("combinat") == set()


def test_identities_takes_only_cell_sum_and_classes_from_closedform():
    # the staged sums check the cell value, so they may share only the cell sum
    # itself (stage n-4) and the tuple classes of lower depths
    pairs = _package_imports("identities")
    assert {name for source, name in pairs if source == "closedform"} == {
        "_chi_sum", "_leaves",
    }


def test_no_module_level_mutable_state_outside_cli():
    # a memo belongs to the ClusterContext that owns its tables; a module-level
    # dict, list, set or lock would be a hidden memo shared by every caller
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem == "cli":
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.Assign):
                names = [getattr(t, "id", None) for t in node.targets]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                names = [getattr(node.target, "id", None)]
            else:
                continue
            func = getattr(node.value, "func", None)
            lock = getattr(func, "attr", getattr(func, "id", None)) in ("Lock", "RLock")
            if names != ["__all__"] and (isinstance(node.value, containers) or lock):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _function_names(module: str) -> dict[str, set[str]]:
    """Top-level function of rank2cluster.<module> -> every name its body reads."""
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
    return {
        node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }


def test_substituted_form_shares_only_classes_and_rows_with_closed_form():
    # the two expansion builders check each other only while neither borrows
    # the other's table or support bound
    names = _function_names("closedform")
    own = set(names)
    v2, formula = names["cluster_var_formula_v2"], names["cluster_var_formula"]
    assert (v2 & formula & own) <= {"_require", "_leaves", "_binom_row"}
    assert v2 & {"_rows", "cluster_var_formula", "mod_binom", "e1", "e2"} == set()
