"""Every module-level function and class of gzeros, and every public
method of those classes, has a reader.

A name counts as read when code in src/gzeros outside its own definition
refers to it (a re-export in __init__.py does not count), or when
perfbench/ names it, as code or as a string such as the entries of
tracing.TARGETS.  Names that only tests read must be on ALLOWED, with the
open ROADMAP item they stay for; oracles that only tests need live in
tests/oracles.py, which reads no private gzeros name.  Names are matched
as text, so a method counts as read wherever any attribute of the same
name is.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gzeros"

ALLOWED = {
    # building blocks of open ROADMAP items
    "z_gamma_ratio_matrix": "Gamma ratio of the zero-pair term (ROADMAP item 1)",
    "residue_r": "residue of the Thm 1.2 series at rho + 1 (ROADMAP item 4)",
    "residue_r1": "residue of the Thm 1.4 series at rho + 1 (ROADMAP item 4)",
}


def _names(tree) -> Counter:
    """How often each identifier, attribute, imported name and string
    occurs in a tree."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def _definitions():
    """(qualified name, definition node) of every top-level function and
    class and every non-dunder method, and the names used in all of src."""
    defs, used = [], Counter()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used += _names(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{path.stem}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{path.stem}.{node.name}.{m.name}", m)
                         for m in node.body if isinstance(m, ast.FunctionDef)
                         and not m.name.startswith("__")]
    return defs, used


def test_every_name_has_a_reader():
    defs, used = _definitions()
    bench = Counter()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        bench += _names(ast.parse(path.read_text(), filename=str(path)))
    unread = [qual for qual, node in defs
              if node.name not in ALLOWED and not bench[node.name]
              and used[node.name] == _names(node)[node.name]]
    assert not unread, f"names nothing in gzeros or perfbench reads: {unread}"


def test_allowed_names_exist():
    defined = {node.name for _, node in _definitions()[0]}
    assert not sorted(set(ALLOWED) - defined)


def test_allowed_names_cite_an_open_roadmap_item():
    headings = (ROOT / "ROADMAP.md").read_text()
    for name, reason in ALLOWED.items():
        item = re.search(r"ROADMAP item (\d+)", reason)
        assert item, f"{name}: the reason names no ROADMAP item"
        assert re.search(rf"^### {item.group(1)}\.", headings, re.M), (
            f"{name}: ROADMAP.md has no heading for item {item.group(1)}")


def test_oracles_read_no_private_gzeros_name():
    # the oracles stay independent of the kernels they check: they may
    # call public gzeros functions only
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    bound, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            aliases = node.names if (node.module or "").startswith("gzeros") else []
        elif isinstance(node, ast.Import):
            aliases = [a for a in node.names if a.name.startswith("gzeros")]
        else:
            continue
        private += [a.name for a in aliases
                    if any(part.startswith("_") for part in a.name.split("."))]
        bound |= {a.asname or a.name.split(".")[0] for a in aliases}
    private += [node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in bound]
    assert not private, f"oracles read private gzeros names: {private}"
