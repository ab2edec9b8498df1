"""src holds only what the program reads: every top-level name, private or not, has a reader.

A reader is a ``Name`` or ``Attribute`` node in ``src``, ``demos`` or
``benchmarks`` outside the name's own definition.  Imports, strings and
docstrings are not readers, and neither is anything under ``tests/``.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bellfoundry"
READER_DIRS = [ROOT / "src", ROOT / "demos", ROOT / "benchmarks"]

# Names that only tests read, each with the ROADMAP item that will give it a
# reader in the program.  A name that gains a reader must leave this table.
TEST_ONLY = {
    "model1.measure_single": "item 11: sequential measurement chains",
    "model1.pointwise_rule_expectation": "item 9: the pointwise-rule check",
    "model1.sample_pointwise_rule_counts": "item 9: the pointwise-rule check",
    "oracles.hemisphere_conditional_fraction": "item 9: the pointwise rule's second route",
    "quantum.spin_operator": "items 9 and 14: Born-rule projectors",
}


def top_level_definitions():
    """(module.name, file, name) for each top-level function and class of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{path.stem}.{node.name}", path, node.name


def unread_definitions():
    """The top-level names of the package that nothing outside their own definition reads."""
    reads = Counter()  # identifier -> Name and Attribute nodes that read it
    own = Counter()  # (file, identifier) -> those inside the top-level definition of that name
    for directory in READER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            for top in ast.parse(path.read_text(), str(path)).body:
                for node in ast.walk(top):
                    if isinstance(node, (ast.Name, ast.Attribute)):
                        identifier = node.id if isinstance(node, ast.Name) else node.attr
                        reads[identifier] += 1
                        own[path, identifier] += identifier == getattr(top, "name", None)
    return {
        qualified
        for qualified, path, name in top_level_definitions()
        if reads[name] == own[path, name]
    }


def test_every_top_level_name_has_a_reader_or_a_roadmap_item():
    unread = unread_definitions()
    assert unread == set(TEST_ONLY), (
        f"unread: {sorted(unread)}; not allowlisted: {sorted(unread - set(TEST_ONLY))}; "
        f"allowlisted but read: {sorted(set(TEST_ONLY) - unread)}"
    )
