"""Hand-made defects (mutants) of gzeros, and the user-facing check that
must catch each (ROADMAP item 14).

Each mutant is applied by monkeypatch in a child process, so no file in
src/ is edited and this process keeps the true code.  A check catches a
mutant only when its reference shares no code with the mutated helper.
"""

import os
import subprocess
import sys
from pathlib import Path

import gzeros

# each mutant replaces one goldbach helper through replace(), which fails
# with a clear message when the name is gone or its parameters changed,
# rather than leaving the true helper in place
REPLACE = """
import inspect
from gzeros import goldbach
def replace(name, mutant):
    assert hasattr(goldbach, name), f"goldbach.{name} is gone: update this mutant"
    true = getattr(goldbach, name)
    want = list(inspect.signature(true).parameters)
    assert list(inspect.signature(mutant).parameters) == want, (
        f"goldbach.{name} now takes {want}: update this mutant")
    setattr(goldbach, name, mutant)
    return true
"""

# goldbach._residues files class 1 one class lower, under class 0: class 1
# is empty, and the per-n table (3, 1, 2) reads 0 at every n.  A reference
# that takes its classes from _residues too reads 0 as well.  (Shifting
# every class also misplaces the lattice index (l - c0) / q of the table,
# which such a reference catches.)  The twist walk reads _residues too, so
# chi(n) reads chi(0) = 0 at n = 1 (mod 3).  selfcheck's FFT line (the
# table) and its DFT line (build_grid) catch it.  Its orthogonality line,
# which compares s_chi with the table, no longer does: both now read the
# mutant, and they err alike.
CLASS_1_AS_0 = REPLACE + """
def _residues(q, pos, sieve):
    r = true_residues(q, pos, sieve)
    if r is not None:
        r[r == 1] = 0
    return r
true_residues = replace("_residues", _residues)
"""

# goldbach's one twist walk reads chi at n + 1, so s_chi, the exponential
# sums of circle.build_grid and the Selberg sums all see it.  selfcheck's
# DFT line (build_grid) and its orthogonality line (s_chi against the
# table) catch it; its Selberg line is at q = 1, where chi(n + 1) = chi(n).
CHI_AT_N_PLUS_1 = REPLACE + """
from gzeros.characters import char_values_table
def _twisted_blocks(chi, pos, r, sieve):
    yield pos, (char_values_table(chi)[(pos + 1) % chi.q]
                * sieve.lam(slice(0, len(pos))))
replace("_twisted_blocks", _twisted_blocks)
"""

# a test of the acceptance suite under pytest, named by its node id
ACCEPTANCE = """
import sys
import pytest
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[1]]))
"""

SELFCHECK = """
import sys
from gzeros import cli
sys.exit(cli.dispatch(["selfcheck"]))
"""

# how many n <= 2000 the per-n table (3, 1, 2) and goldbach_g differ at,
# past the tolerance of the benchmark's per-n check
PER_N_MISMATCHES = """
import math
from gzeros.goldbach import build_class_convolution, goldbach_g
from gzeros.numtheory import build_sieve
sieve = build_sieve(2000)
values = build_class_convolution(3, 1, 2, 2000, sieve).values
print(sum(not math.isclose(values[n], goldbach_g(n, 3, 1, 2, sieve),
                           rel_tol=1e-9, abs_tol=1e-6) for n in range(2001)))
"""


def _run(mutant: str, code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(gzeros.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", mutant + code, *args], env=env,
                          capture_output=True, text=True)


def _selfcheck_failures(mutant: str) -> set[str]:
    """The names of the selfcheck lines that fail under a mutant."""
    out = _run(mutant, SELFCHECK)
    assert out.returncode == 1, out.stdout + out.stderr
    return {line.removeprefix("[FAIL] ").split("  (")[0]
            for line in out.stdout.splitlines() if line.startswith("[FAIL]")}


def test_class_1_as_0_fails_selfcheck_and_the_per_n_reference():
    assert _selfcheck_failures(CLASS_1_AS_0) == {
        "orthogonality decomposition (q=3, x=300, DFT vs direct)",
        "FFT convolution vs direct double loop (x=400)"}
    out = _run(CLASS_1_AS_0, PER_N_MISMATCHES)
    assert int(out.stdout or 0) > 0, out.stderr or "the table matches goldbach_g"


def test_chi_at_n_plus_1_fails_the_dft_decomposition():
    assert _selfcheck_failures(CHI_AT_N_PLUS_1) == {
        "orthogonality decomposition (q=3, x=300, DFT vs direct)",
        "character orthogonality reconstructs S(x;q,a,b) (q=3)"}


def test_chi_at_n_plus_1_fails_acceptance_criterion_3():
    # its direct side convolves dense chi Lambda arrays, not the twist
    node = "::test_criterion_03_orthogonality_decomposition"
    out = _run(CHI_AT_N_PLUS_1, ACCEPTANCE,
               str(Path(__file__).with_name("test_acceptance.py")) + node)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "[FAIL] criterion 3" in out.stdout, out.stdout
