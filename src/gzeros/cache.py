"""Content-addressed cache for sieves, zero sets, and convolutions.

It is also the one provider of zero sets: load_or_build_zero_sets(q, T)
returns the set of every character mod q, read or built once per
primitive character through load_or_build_zeros.  The zeros of
L(s, conj chi) are those of L(s, chi) with gamma -> -gamma, so on a miss
a checksummed set of the conjugate character is mirrored instead of
searched again: a conjugate pair costs one zero search.

Keys are sha256 digests of the input parameters plus a format version,
so a version bump invalidates everything stale; zero-set keys also carry
lfunc.EVALUATOR_VERSION, so sets built by an older evaluator are searched
again.  Writes go through a temporary file and an atomic rename; every
artifact carries a sidecar "<name>.sha256" checked on load (corruption
means silent recompute, with a log line).  The sieve payload itself is
the documented GZSV1 binary layout and the zero sets are the documented
GZZEROS text format, so the cache doubles as an export directory.
"""

from __future__ import annotations

import hashlib
import logging
import os
import tempfile
from dataclasses import replace
from pathlib import Path

from .characters import build_group, character_from_label, conjugate, induce_primitive
from .lfunc import (
    EVALUATOR_VERSION,
    ZeroSet,
    export_zeros,
    find_zeros,
    import_zeros,
    mirror_zero_set,
)
from .numtheory import SieveTable, build_sieve, read_sieve_cache, write_sieve_cache

logger = logging.getLogger(__name__)

FORMAT_VERSION = "1"
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


def load_or_build_sieve(x: int, cache_dir: Path | None = None) -> SieveTable:
    cache_dir = cache_dir or default_cache_dir()
    key = cache_key("sieve", x=x)
    path = cache_dir / f"sieve-{key}.gzsv"
    if _verify(path):
        try:
            return read_sieve_cache(path)
        except ValueError as exc:
            logger.warning("sieve cache unreadable (%s); recomputing", exc)
    sieve = build_sieve(x)
    _store_atomic(path, lambda tmp: write_sieve_cache(sieve, tmp))
    return sieve


def _zeros_path(chi_label: str, T: float, cache_dir: Path) -> Path:
    key = cache_key("zeros", label=chi_label, T=float(T),
                    evaluator=EVALUATOR_VERSION)
    return cache_dir / f"zeros-{key}.txt"


def _read_zeros(path: Path, chi_label: str) -> ZeroSet | None:
    if _verify(path):
        try:
            return import_zeros(path, chi_label, validate=False)
        except Exception as exc:  # damaged payload: rebuild
            logger.warning("zero cache unreadable (%s); recomputing", exc)
    return None


def load_or_build_zeros(
    chi_label: str, T: float, cache_dir: Path | None = None
) -> ZeroSet:
    """Zero set of one character to height T.  On a miss the cached set
    of the conjugate character, mirrored, stands in for find_zeros."""
    cache_dir = cache_dir or default_cache_dir()
    path = _zeros_path(chi_label, T, cache_dir)
    zs = _read_zeros(path, chi_label)
    if zs is not None:
        return zs
    chi = character_from_label(chi_label)
    conj = conjugate(chi).label
    base = None
    if conj != chi_label:
        base = _read_zeros(_zeros_path(conj, T, cache_dir), conj)
    zs = find_zeros(chi, T) if base is None else mirror_zero_set(base, chi_label)
    _store_atomic(path, lambda tmp: export_zeros(zs, tmp))
    return zs


def load_or_build_zero_sets(
    q: int, T: float, cache_dir: Path | None = None
) -> dict[str, ZeroSet]:
    """Zero sets of every character mod q to height T, keyed and labelled
    by chi.label; an imprimitive chi gets the set of its primitive chi*."""
    out = {}
    for chi in build_group(q):
        base = load_or_build_zeros(induce_primitive(chi).label, T, cache_dir)
        out[chi.label] = replace(base, char_label=chi.label)
    return out


def sieve_hash(sieve: SieveTable) -> str:
    """Digest of the von Mangoldt payload (keys convolution caches)."""
    h = hashlib.sha256()
    h.update(int(sieve.limit).to_bytes(8, "little"))
    h.update(sieve.lambda_.astype("<f8").tobytes())
    return h.hexdigest()[:16]


def load_or_build_convolution(
    q: int, a: int, b: int, x: int, sieve: SieveTable,
    cache_dir: Path | None = None,
):
    """ClassConvolution cache keyed by (q, a, b, x, sieve hash)."""
    import numpy as np

    from .goldbach import ClassConvolution, build_class_convolution

    cache_dir = cache_dir or default_cache_dir()
    key = cache_key("conv", q=q, a=a, b=b, x=x, sieve=sieve_hash(sieve))
    path = cache_dir / f"conv-{key}.npy"
    if _verify(path):
        try:
            values = np.load(path)
            if len(values) == x + 1:
                return ClassConvolution(
                    q=q, a=a, b=b, x=x,
                    values=values, cumulative=np.cumsum(values),
                )
            logger.warning("convolution cache has wrong length; recomputing")
        except Exception as exc:
            logger.warning("convolution cache unreadable (%s); recomputing", exc)
    conv = build_class_convolution(q, a, b, x, sieve)

    def _write(tmp):
        with open(tmp, "wb") as fh:  # file object: np.save adds no suffix
            np.save(fh, conv.values, allow_pickle=False)

    _store_atomic(path, _write)
    return conv
