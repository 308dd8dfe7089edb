"""Content-addressed cache for zero sets.

It is also the one provider of zero sets, and the one module that knows
how they are stored: load_or_build_zeros(label, T) returns the set of
the primitive chi* inducing the character, under the character's own
label, and load_or_build_zero_sets(q, T) does so for every chi mod q.
The zeros of L(s, conj chi) are those of L(s, chi) with gamma -> -gamma,
so a conjugate pair has one search and one file, of its member first in
build_group order; the other's set is that one mirrored, and no output
depends on which member the cache saw first.

Zero sets are all it holds.  Sieves are not cached: build_sieve takes
about a third of the time that reading one back from disk took.  Nor
are per-n convolutions: on its class lattice the (3, 1, 2) table to 4e5
builds in under 0.1 s on a 2-CPU VM.  load_or_build_sieve and
load_or_build_convolution only call those builders.

Keys are sha256 digests of the input parameters plus a format version
(2: one file per pair) and lfunc.EVALUATOR_VERSION, so a version bump
invalidates everything stale and sets built by an older evaluator are
searched again.  Writes go through a temporary file and an atomic
rename; every file carries a sidecar "<name>.sha256" that guards its
bytes, and import_zeros re-certifies every file read, as it does a
user's file; a file that fails either check is searched again and
rewritten, with a log line.  Zero sets are stored in the documented
GZZEROS text format, so the cache doubles as an export directory.
"""

from __future__ import annotations

import hashlib
import logging
import os
import tempfile
from dataclasses import replace
from pathlib import Path

from .characters import character_from_label, character_labels, conjugate, induce_primitive
from .errors import GzError, ValidationError
from .goldbach import ClassConvolution, build_class_convolution
from .lfunc import (EVALUATOR_VERSION, ZeroSet, export_zeros, find_zeros, import_zeros,
                    mirror_zero_set)
from .numtheory import SieveTable, build_sieve

logger = logging.getLogger(__name__)

FORMAT_VERSION = "2"
ENV_CACHE_DIR = "GZ_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "gzeros"


def cache_key(kind: str, **params) -> str:
    blob = f"v{FORMAT_VERSION}|{kind}|" + "|".join(
        f"{k}={params[k]!r}" for k in sorted(params)
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _store_atomic(path: Path, writer) -> None:
    """writer(tmp_path) produces the payload; rename + checksum sidecar."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    os.close(fd)
    tmp = Path(tmp)
    try:
        writer(tmp)
        digest = _sha256_file(tmp)
        os.replace(tmp, path)
        path.with_suffix(path.suffix + ".sha256").write_text(digest + "\n")
    finally:
        if tmp.exists():
            tmp.unlink()


def _verify(path: Path) -> bool:
    if not path.exists():
        return False
    side = path.with_suffix(path.suffix + ".sha256")
    if not side.exists():
        logger.warning("cache %s has no checksum sidecar; recomputing", path)
        return False
    if _sha256_file(path) != side.read_text().strip():
        logger.warning("cache %s failed its checksum; recomputing", path)
        return False
    return True


def load_or_build_sieve(x: int) -> SieveTable:
    """build_sieve(x); nothing is read or written.  Kept only because the
    benchmark in perfbench/ calls it by this name (child.py's fill_cache,
    tracing.TARGETS); no code in gzeros calls it, and it goes when the
    benchmark is next revised (ROADMAP item 5)."""
    return build_sieve(x)


def _zeros_path(chi_label: str, T: float) -> Path:
    key = cache_key("zeros", label=chi_label, T=float(T),
                    evaluator=EVALUATOR_VERSION)
    return default_cache_dir() / f"zeros-{key}.txt"


def load_or_build_zeros(chi_label: str, T: float) -> ZeroSet:
    """Zero set of one character to height T, labelled chi_label.  The
    primitive chi* inducing it and conj chi* share one file, that of the
    one whose exponents come first in build_group order, which alone is
    read or searched; the other's set is that one mirrored."""
    star = induce_primitive(character_from_label(chi_label))
    base = min(star, conjugate(star), key=lambda chi: chi.exponents)
    path = _zeros_path(base.label, T)
    try:
        zs = import_zeros(path, base.label) if _verify(path) else None
        if zs is not None and not zs.certified:
            raise ValidationError(zs.diagnostics)
    except (GzError, OSError, ValueError) as exc:  # damaged or uncertified: rebuild
        logger.warning("zero cache %s failed its check (%s); recomputing", path, exc)
        zs = None
    if zs is None:
        zs = find_zeros(base, T)
        _store_atomic(path, lambda tmp: export_zeros(zs, tmp))
    if base != star:
        return mirror_zero_set(zs, chi_label)
    return replace(zs, char_label=chi_label)


def load_or_build_zero_sets(q: int, T: float) -> dict[str, ZeroSet]:
    """Zero sets of every character mod q to height T, keyed and labelled
    by chi.label; an imprimitive chi gets the set of its primitive chi*."""
    return {label: load_or_build_zeros(label, T) for label in character_labels(q)}


def load_or_build_convolution(q: int, a: int, b: int, x: int,
                              sieve: SieveTable) -> ClassConvolution:
    """build_class_convolution(q, a, b, x, sieve); nothing is read or
    written.  Kept only because the benchmark in perfbench/ times it by
    this name (tracing.TARGETS); no code in gzeros calls it, and it goes
    with load_or_build_sieve (ROADMAP item 5)."""
    return build_class_convolution(q, a, b, x, sieve)
