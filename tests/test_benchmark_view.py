"""Every bellfoundry name that the benchmark's worker reads resolves in src.

``benchmarks/child.py`` looks up its traced call sites with
``getattr(module, attr, None)`` and skips a missing one silently, so a
rename in src can drop a span or break a probe without any test failing.
This test reads child.py's syntax tree, without running it, and resolves
each name it reads against the package: the modules it imports, the
names it imports from them, the module attributes it reads, the
``(module, attr)`` pairs of ``CALL_SITES``, ``getattr`` calls with a
literal name, and the modules it loads with ``importlib.import_module``.
"""

import ast
import importlib
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "benchmarks" / "child.py"

# Call sites that resolve to nothing today, so their spans are never recorded.
# ROADMAP item 1 repairs them; this is a subset check so that the repair passes.
KNOWN_MISSING = {
    ("bellfoundry.cli", "run_pair_counts"),
    ("bellfoundry.engine", "substream"),
}


def _import_module_target(node):
    """The literal module name of an ``importlib.import_module("...")`` call, else None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "import_module"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    ):
        return node.args[0].value
    return None


def _module_aliases(tree) -> dict:
    """Local name -> bellfoundry module, for each import and import_module call."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "bellfoundry":
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"bellfoundry.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "bellfoundry":
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Assign) and _import_module_target(node.value):
            (target,) = node.targets
            aliases[target.id] = _import_module_target(node.value)
    return aliases


def benchmark_reads() -> set:
    """(module, attribute) for each bellfoundry name child.py reads; attribute None for a module."""
    tree = ast.parse(CHILD.read_text(), str(CHILD))
    aliases = _module_aliases(tree)
    reads = {(module, None) for module in aliases.values()}

    def pair(module_node, attr_node):
        if (
            isinstance(module_node, ast.Name)
            and module_node.id in aliases
            and isinstance(attr_node, ast.Constant)
        ):
            reads.add((aliases[module_node.id], attr_node.value))

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bellfoundry."):
            reads.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                reads.add((aliases[node.value.id], node.attr))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
            pair(*node.args[:2])
        elif isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "CALL_SITES":
            for site in node.value.elts:
                pair(*site.elts[:2])
    return reads


def resolves(module: str, attr) -> bool:
    try:
        loaded = importlib.import_module(module)
    except ImportError:
        return False
    return attr is None or hasattr(loaded, attr)


def test_the_parse_finds_each_kind_of_read():
    reads = benchmark_reads()
    assert {
        ("bellfoundry.linalg", None),
        ("bellfoundry.linalg", "spectral_norm"),
        ("bellfoundry.geometry", "counts_from_signs"),
        ("bellfoundry.cli", "check_bell_theorem"),
        ("bellfoundry.engine", "run_pair_counts"),
        ("bellfoundry.rng", "BATCH_SIZE"),
    } <= reads
    assert KNOWN_MISSING <= reads


def test_every_name_the_benchmark_reads_resolves():
    missing = {read for read in benchmark_reads() if not resolves(*read)}
    assert missing <= KNOWN_MISSING, f"unresolved: {sorted(missing - KNOWN_MISSING, key=str)}"
