"""Structure lint: one replica class, variants by composition.

Every replica variant — multi-group ordering, the one-sided fast path,
Byzantine and crash faults, seeded mutants — is composed onto
``CopReplica`` (faults via ``add_fault``, the fast path as the
``replica.onesided`` component, mutants as patch functions).  This AST
lint keeps it that way: the only classes under ``src/repro`` and
``examples`` that derive from ``Replica``, directly or transitively, are
``CopReplica`` and its per-group ``GroupPipeline``.
"""

import ast
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent
EXAMPLES = SRC_ROOT.parent.parent / "examples"

ALLOWED_SUBCLASSES = {"CopReplica", "GroupPipeline"}


def _base_name(node: ast.expr) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _class_bases():
    """(class name, base names, location) for every class definition."""
    files = sorted(SRC_ROOT.rglob("*.py"))
    if EXAMPLES.is_dir():
        files += sorted(EXAMPLES.rglob("*.py"))
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = {_base_name(base) for base in node.bases}
                yield node.name, bases, f"{path.name}:{node.lineno}"


def test_only_cop_replica_and_group_pipeline_subclass_replica():
    classes = list(_class_bases())
    derived = {"Replica"}
    where = {}
    changed = True
    while changed:  # transitive closure over the class graph
        changed = False
        for name, bases, location in classes:
            if name not in derived and bases & derived:
                derived.add(name)
                where[name] = location
                changed = True
    subclasses = derived - {"Replica"}
    extra = {name: where[name] for name in subclasses - ALLOWED_SUBCLASSES}
    assert not extra, (
        "compose variants onto CopReplica (add_fault, replica.onesided, "
        f"patch functions) instead of subclassing Replica: {extra}"
    )
    assert subclasses == ALLOWED_SUBCLASSES
