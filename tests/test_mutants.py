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

# goldbach._residues files class 1 one class lower, under class 0: class 1
# is empty, and the per-n table (3, 1, 2) reads 0 at every n.  A reference
# that takes its classes from _residues too reads 0 as well.  (Shifting
# every class also misplaces the lattice index (l - c0) / q of the table,
# which such a reference catches.)
CLASS_1_AS_0 = """
from gzeros import goldbach
true_residues = goldbach._residues
def _residues(q, top, sieve):
    r = true_residues(q, top, sieve)
    if r is not None:
        r[r == 1] = 0
    return r
goldbach._residues = _residues
"""

# goldbach.twisted_entries reads chi at n + 1, under every name it is bound
# to, so s_chi and the exponential sums of circle.build_grid both see it
CHI_AT_N_PLUS_1 = """
from gzeros import circle, goldbach
from gzeros.characters import char_values_table
def twisted_entries(chi, x, sieve):
    pos = sieve.prime_powers(x)
    vals = char_values_table(chi)[(pos + 1) % chi.q] * sieve.lam(slice(0, len(pos)))
    return pos[vals != 0], vals[vals != 0]
goldbach.twisted_entries = circle.twisted_entries = twisted_entries
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


def _run(mutant: str, code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(gzeros.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", mutant + code], env=env,
                          capture_output=True, text=True)


def test_class_1_as_0_fails_selfcheck_and_the_per_n_reference():
    out = _run(CLASS_1_AS_0, SELFCHECK)
    assert "[FAIL] FFT convolution vs direct double loop" in out.stdout, (
        out.stdout + out.stderr)
    out = _run(CLASS_1_AS_0, PER_N_MISMATCHES)
    assert int(out.stdout or 0) > 0, out.stderr or "the table matches goldbach_g"


def test_chi_at_n_plus_1_fails_the_dft_decomposition():
    out = _run(CHI_AT_N_PLUS_1, SELFCHECK)
    assert "[FAIL] orthogonality decomposition" in out.stdout, out.stdout + out.stderr
