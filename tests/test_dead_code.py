"""Every module-level function and class of gzeros, and every public
method of those classes, has a reader.

A name counts as read when code in src/gzeros outside its own definition
refers to it (a re-export in __init__.py does not count), or when
perfbench/ names it, as code or as a string such as the entries of
tracing.TARGETS.  Names that only tests read must be on ALLOWED, with the
reason they stay.  Names are matched as text, so a method counts as read
wherever any attribute of the same name is.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gzeros"

ALLOWED = {
    # reference oracles that tests compare against
    "char_sum_brute": "float brute-force oracle of the closed-form character sum",
    "char_sum_brute_exact": "exact brute-force oracle of the character sum",
    "root_sum_is_zero": "exact cyclotomic zero test that tests check sums with",
    "root_counts_equal": "exact cyclotomic equality test that tests check sums with",
    "goldbach_g": "pointwise Goldbach count, the oracle of the FFT convolution",
    "j_weight": "pointwise J(n), the oracle of j_weight_table",
    "functional_equation_residual": "checks Lambda(s) = eps Lambda(1 - s)",
    "check_conjugate_symmetry": "checks that conjugate zero sets pair up",
    # paper quantities whose tests reproduce the paper's identities
    "r_term": "R of S = x^2/2 - 2H + R, with |R| <= sqrt(J(chi1) J(chi2))",
    "zero_sum_diagnostics": "the zero-sum bounds measured against their shapes",
    "psi_chi": "psi(x, chi), the exact side of the explicit formula",
    "psi_explicit": "psi(x, chi) from the zeros, the other side",
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
