"""The package's public names: each is declared once, in the ``__all__`` of
its module, the package re-exports exactly those names, and each is
reached by the package's own code or named in the README."""

import ast
import importlib
import pathlib
import re
import tokenize
from collections import Counter

import nashcone

PACKAGE = pathlib.Path(nashcone.__file__).resolve().parent

EXPORTS = [
    "ClassificationReport", "ConeStatus", "CriterionResult", "Divisor",
    "GraphFormatError", "InternalInvariantError", "IntersectionMatrix", "NashVerdict",
    "NashconeError", "ResolutionGraph", "StarCertificate",
    "StarStarReport", "StructuralReport", "ValidationReport", "__version__",
    "arithmetic_genus", "canonical_intersections", "check_star",
    "check_star_star", "enumerate_graphs", "fundamental_cycle", "graph_to_json_dict",
    "is_rational_artin", "laufer_criterion", "lipman_status",
    "load_graph", "make_family", "nash_verdict", "pair",
    "parse_graph", "parse_graph_json", "realization_criterion", "serialize_graph",
    "serialize_graph_json", "star_witness",
    "structural_rationality", "validate",
]


def _module_lists() -> dict[str, list[str]]:
    lists = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            module = importlib.import_module(f"nashcone.{path.stem}")
            if hasattr(module, "__all__"):
                lists[path.stem] = list(module.__all__)
    return lists


def test_package_exports_are_pinned():
    assert sorted(nashcone.__all__) == EXPORTS
    assert len(nashcone.__all__) == len(set(nashcone.__all__))


def test_each_export_is_declared_in_exactly_one_module():
    lists = _module_lists()
    declared = Counter(name for names in lists.values() for name in names)
    assert set(declared) == set(nashcone.__all__) - {"__version__"}
    assert all(count == 1 for count in declared.values()), declared
    for module, names in lists.items():
        for name in names:
            assert getattr(nashcone, name) is getattr(importlib.import_module(f"nashcone.{module}"), name)


def test_init_names_no_export():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    written = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            written.add(node.id)
        elif isinstance(node, ast.alias):
            written.add(node.asname or node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            written.add(node.value)
    assert written & (set(EXPORTS) - {"__version__"}) == set()


def _code_uses() -> Counter:
    """How often each identifier occurs in the package's code, not counting
    the name a ``def`` or ``class`` statement binds; strings, docstrings
    and comments (so the ``__all__`` entries) do not count."""
    uses = Counter()
    for path in PACKAGE.glob("*.py"):
        with tokenize.open(path) as f:
            previous = None
            for tok in tokenize.generate_tokens(f.readline):
                if tok.type == tokenize.NAME and previous not in ("def", "class"):
                    uses[tok.string] += 1
                previous = tok.string
    return uses


def test_each_export_is_reached_by_the_package_or_the_readme():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    uses = _code_uses()
    unreached = [
        name for name in sorted(set(nashcone.__all__) - {"__version__"})
        if not uses[name] and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert unreached == []
