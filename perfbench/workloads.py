"""The benchmark's three workloads: the steps each runs, their seeded
inputs, their set-up, and the checks on every step's output.

Sizes are fixed; the seed only picks residue classes, characters and spot
check points from lists whose members cost the same (every (a, b) pair has
a != b, so each class convolution takes two forward transforms).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

VERIFY_XMAX = 8_000_000    # transform length 2^24
HEIGHT = 200.0
MODQ_HEIGHT = 100.0
ZETA_HEIGHT = 1000.0
ZETA_ZEROS = 1298          # zeros of zeta with |gamma| <= 1000, both signs
CSV_X = 400_000
PER_N_X = 2_000_000        # transform length 2^22
CHAR_SUM_QMAX = 200
SIEVE_QMAX = 500


@dataclass
class Outcome:
    """What one step's process did, as the parent saw it."""

    returncode: int | None      # None when it was not started or timed out
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    result: dict = field(default_factory=dict)  # lib steps: last stdout line

    @property
    def latency_s(self) -> float:
        """Wall time less the step's own untimed output check."""
        return self.wall_s - self.result.get("check_s", 0.0)


@dataclass
class Step:
    name: str                   # its latency is reported as <name>_s
    kind: str                   # "cli" (gz arguments) or "lib" (child task)
    args: list[str]
    check: Callable[["Outcome", "Checker"], dict[str, bool]]


class Checker:
    """State the checks share within a run: the repeat record (digests and
    counts that must not change for the same code and inputs) and the
    mpmath ordinates, computed once.  code_digest identifies both the
    program and the benchmark, whose sizes are part of the inputs."""

    def __init__(self, record: dict, code_digest: str):
        self.record = record
        self.code_digest = code_digest
        self._zetazero: dict[int, float] = {}

    def repeats(self, key: str, value) -> bool:
        """True unless an earlier run recorded a different value for key."""
        key = f"{self.code_digest}|{key}"
        old = self.record.setdefault(key, value)
        return old == value

    def zetazero(self, n: int) -> float:
        if n not in self._zetazero:
            import mpmath  # independent oracle for the zero finder

            self._zetazero[n] = float(mpmath.zetazero(n).imag)
        return self._zetazero[n]


def _report_check(path: Path, *flags: str):
    """Each flag of the command's JSON report must be true."""
    def check(out: Outcome, checker: Checker) -> dict[str, bool]:
        try:
            report = json.loads(path.read_text())
        except (OSError, ValueError):
            report = {}
        return {f"{path.stem}.{flag}": report.get(flag) is True for flag in flags}
    return check


def _zeta_check(path: Path, indices: list[int]):
    def check(out: Outcome, checker: Checker) -> dict[str, bool]:
        try:
            rows = [ln.split() for ln in path.read_text().splitlines()
                    if ln and not ln.startswith("#")]
            gammas = sorted(float(r[1]) for r in rows)
            count = sum(int(r[2]) for r in rows)
        except (OSError, ValueError, IndexError):
            return {"zeta.count": False, "zeta.mpmath": False}
        positive = [g for g in gammas if g > 0]
        near = all(
            n <= len(positive) and abs(positive[n - 1] - checker.zetazero(n)) <= 1e-9
            for n in indices
        )
        return {"zeta.count": count == ZETA_ZEROS, "zeta.mpmath": near}
    return check


def _csv_check(path: Path, key: str):
    def check(out: Outcome, checker: Checker) -> dict[str, bool]:
        digest = hashlib.sha256()
        lines = 0
        header = b""
        try:
            with open(path, "rb") as fh:
                for line in fh:
                    if not lines:
                        header = line
                    lines += 1
                    digest.update(line)
            path.unlink()
        except OSError:
            return {"csv.shape": False, "csv.digest_repeats": False}
        return {
            "csv.shape": header == b"n,g,S\n" and lines == CSV_X + 2,
            "csv.digest_repeats": checker.repeats(key, digest.hexdigest()),
        }
    return check


def _selfcheck(out: Outcome, checker: Checker) -> dict[str, bool]:
    return {"selfcheck.no_failures": "selfcheck: 0 failure(s)" in out.stdout}


def _per_n_check(out: Outcome, checker: Checker) -> dict[str, bool]:
    return {"per_n.matches_brute_force": out.result.get("mismatches") == []}


def _oracle_check(out: Outcome, checker: Checker) -> dict[str, bool]:
    return {
        "oracle.char_sum": out.result.get("char_sum_failures") == [],
        "oracle.sieve": out.result.get("sieve_failures") == [],
    }


def _no_check(out: Outcome, checker: Checker) -> dict[str, bool]:
    return {}


def _lib(task: str, **params) -> list[str]:
    return [task, json.dumps(params, sort_keys=True)]


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    name: str
    why: str
    warm_cache: bool            # set-up fills one cache all iterations read
    choose: Callable[[random.Random], dict]
    steps: Callable[[dict, Path], list[Step]]

    def setup_step(self) -> Step:
        if self.warm_cache:
            return Step("fill_cache", "lib", _lib(
                "fill-cache", xmax=VERIFY_XMAX, height=HEIGHT, moduli=[3, 4],
            ), _no_check)
        # an empty cache needs nothing; warm the interpreter's imports so
        # the first timed command does not pay for a cold page cache
        return Step("warm_import", "cli", ["--version"], _no_check)


def _verify_choose(rng: random.Random) -> dict:
    a, b = rng.choice([(1, 2), (2, 1)])
    return {"a": a, "b": b, "c": rng.choice([1, 2, 3, 4])}


def _verify_steps(p: dict, d: Path) -> list[Step]:
    common = ["--xmax", str(VERIFY_XMAX), "--height", str(HEIGHT)]
    return [
        Step("verify_thm12", "cli", [
            "verify-thm12", "--q", "3", "--a", str(p["a"]), "--b", str(p["b"]),
            *common, "--out", str(d / "thm12.csv"), "--json", str(d / "thm12.json"),
        ], _report_check(d / "thm12.json", "pass", "certified")),
        Step("verify_thm14", "cli", [
            "verify-thm14", "--q", "4", "--c", str(p["c"]),
            *common, "--out", str(d / "thm14.csv"), "--json", str(d / "thm14.json"),
        ], _report_check(d / "thm14.json", "pass", "certified")),
    ]


def _zeros_choose(rng: random.Random) -> dict:
    a, b = rng.sample(range(1, 7), 2)
    return {"a": a, "b": b,
            "zeta_indices": [1, 2, 3, 4, 5, *sorted(rng.sample(range(6, 650), 3))]}


def _zeros_steps(p: dict, d: Path) -> list[Step]:
    zeta = d / "zeta.txt"
    return [
        Step("zeros_zeta", "cli", [
            "zeros", "--q", "1", "--height", str(ZETA_HEIGHT), "--export", str(zeta),
        ], _zeta_check(zeta, p["zeta_indices"])),
        Step("zeros_modq", "cli", [
            "verify-thm12", "--q", "7", "--a", str(p["a"]), "--b", str(p["b"]),
            "--xmax", "100000", "--height", str(MODQ_HEIGHT),
            "--out", str(d / "thm12.csv"), "--json", str(d / "thm12.json"),
        ], _report_check(d / "thm12.json", "pass", "certified")),
        Step("landau_gonek", "cli", [
            "landau-gonek", "--x", "2", "--q", "1", "--height", str(ZETA_HEIGHT),
            "--json", str(d / "landau_gonek.json"),
        ], _report_check(d / "landau_gonek.json", "within_budget")),
    ]


def _tables_choose(rng: random.Random) -> dict:
    a, b = rng.choice([(1, 2), (2, 1)])
    q = rng.choice([3, 4, 5])
    units = [r for r in range(1, q) if r % 2 or q % 2]
    qa, qb = rng.sample(units, 2)
    target = (qa + qb) % q
    check_n = sorted(
        rng.sample([n for n in range(50_000, 100_001) if n % q == target], 6)
        + rng.sample(range(4, 100_001), 2)
    )
    return {"a": a, "b": b, "q": q, "qa": qa, "qb": qb, "check_n": check_n}


def _tables_steps(p: dict, d: Path) -> list[Step]:
    csv = d / "goldbach.csv"
    key = f"goldbach.csv|q=3,a={p['a']},b={p['b']},x={CSV_X}"
    return [
        Step("goldbach_csv", "cli", [
            "goldbach", "--q", "3", "--a", str(p["a"]), "--b", str(p["b"]),
            "--x", str(CSV_X), "--out", str(csv),
        ], _csv_check(csv, key)),
        Step("per_n_table", "lib", _lib(
            "per-n-table", q=p["q"], a=p["qa"], b=p["qb"], x=PER_N_X,
            check_n=p["check_n"],
        ), _per_n_check),
        Step("selfcheck", "cli", ["selfcheck"], _selfcheck),
        Step("oracle", "lib", _lib(
            "oracle", char_sum_qmax=CHAR_SUM_QMAX, sieve_qmax=SIEVE_QMAX,
        ), _oracle_check),
    ]


WORKLOADS = {
    w.name: w for w in [
        Workload(
            "verify",
            "warm-cache Thm 1.2/1.4 checks at x=8e6: the FFT convolution does most "
            "of the work and no zero is computed",
            True, _verify_choose, _verify_steps,
        ),
        Workload(
            "zeros",
            "empty cache: zeta zeros to T=1000 and all zero sets mod 7 to T=100; "
            "L-function evaluation and zero finding do most of the work",
            False, _zeros_choose, _zeros_steps,
        ),
        Workload(
            "tables",
            "per-n output and oracles: a 4e5-row CSV, a 2e6 per-n table, selfcheck "
            "and the exact character-sum identities",
            False, _tables_choose, _tables_steps,
        ),
    ]
}
