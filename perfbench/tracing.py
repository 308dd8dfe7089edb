"""Spans around the public functions of each gzeros module, and the
per-layer metrics derived from them.

The child side (``Tracer``, ``install``) wraps functions from outside the
package: every gzeros module that bound a target name, including the ones
that imported it with ``from .x import f``, gets the wrapper, so calls made
through any of those names are recorded.  Spans stay in memory and are
written once when the process ends.

The parent side (``layer_metrics``) turns the spans of one traced iteration
into the per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# module -> public functions timed in it (_scan_and_bisect is private but
# is the scan/bisect half of find_zeros, so it is wrapped to split the two)
TARGETS = {
    "gzeros.cache": [
        "load_or_build_sieve", "load_or_build_zeros", "load_or_build_convolution",
    ],
    "gzeros.numtheory": ["build_sieve"],
    "gzeros.goldbach": ["build_class_convolution", "restricted_sum"],
    "gzeros.lfunc": [
        "find_zeros", "_scan_and_bisect", "z_line", "zero_count_argument",
        "hurwitz_zeta_array", "import_zeros", "export_zeros",
    ],
    "gzeros.explicit": ["h_term", "thm12_rhs", "thm14_rhs", "landau_gonek"],
    "gzeros.characters": [
        "build_group", "verify_char_sum_identity", "verify_sieve_identity",
    ],
    "gzeros.singular": ["singular_series", "compute_c2"],
    "gzeros.circle": ["build_grid", "selberg_integral"],
}

MODULES = ["cli", "cache", "numtheory", "goldbach", "lfunc", "explicit",
           "characters", "singular", "circle"]

# a cache call is a hit when none of these ran inside it
BUILDS = {"numtheory.build_sieve", "lfunc.find_zeros",
          "goldbach.build_class_convolution"}


def span_name(module: str, func: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{func.lstrip('_')}"


def fft_len(x: int) -> int:
    """Transform length build_class_convolution uses for limit x."""
    size = 1
    while size < 2 * x + 2:
        size *= 2
    return size


def _conv_attrs(args, kwargs, conv):
    n = conv.x + 1
    size = fft_len(conv.x)
    operands = 1 if (conv.a - conv.b) % conv.q == 0 else 2
    spectrum = (size // 2 + 1) * 16
    # class arrays, their spectra, the product, the inverse transform and
    # the two result arrays: sizes only, not bytes measured in memory
    computed = operands * (n * 8 + spectrum) + spectrum + size * 8 + 2 * n * 8
    return {"fft_len": size, "bytes_computed": computed}


def _h_term_attrs(args, kwargs, result):
    zeros = args[2] if len(args) > 2 else kwargs["zeros"]
    T = args[3] if len(args) > 3 else kwargs["T"]
    return {"zeros": sum(e.multiplicity for e in zeros.entries
                         if abs(e.gamma) <= T)}


ATTRS = {
    "goldbach.build_class_convolution": _conv_attrs,
    "numtheory.build_sieve": lambda a, k, sieve: {"n": sieve.limit},
    "lfunc.find_zeros": lambda a, k, zs: {"zeros": zs.count()},
    "lfunc.z_line": lambda a, k, z: {"points": int(z.size)},
    "lfunc.hurwitz_zeta_array": lambda a, k, z: {"points": int(z.size)},
    "explicit.h_term": _h_term_attrs,
}


class Tracer:
    """Spans of one process: [name, start, end, parent index, attrs]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, _attrs=attrs, **kwargs)

        return traced

    def call(self, name, fn, *args, _attrs=None, **kwargs):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if _attrs is not None:
            span[4] = _attrs(args, kwargs, result)
        return result

    def dump(self, path, **extra) -> None:
        payload = {"run_id": self.run_id, "spans": self.spans, **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def install(tracer: Tracer) -> None:
    """Replace every binding of a target function in the loaded gzeros
    modules with its traced wrapper."""
    wrappers = {}
    for modname, funcs in TARGETS.items():
        module = sys.modules[modname]
        for func in funcs:
            original = getattr(module, func)
            wrappers[id(original)] = tracer.wrap(span_name(modname, func), original)
    for modname, module in list(sys.modules.items()):
        if modname != "gzeros" and not modname.startswith("gzeros."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)


# ---------------------------------------------------------------------------
# per-layer metrics (parent side)

# name -> (unit, better); "deterministic" ones must repeat exactly for the
# same seed and source, the rest are timings and ratios of timings
_FRAC = ("frac", "lower")
_COUNT = ("count", "lower")

PER_LAYER: dict[str, tuple[str, str]] = {
    "trace.overhead_frac": _FRAC,
    "trace.wall_s": ("s", "lower"),
    "proc.cpu_s": ("s", "lower"),
    "proc.peak_rss_mb": ("MB", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.dispatch.self_s": ("s", "lower"),
    **{f"{m}.self_frac": _FRAC for m in MODULES},
    "goldbach.build_class_convolution.frac": _FRAC,
    "goldbach.build_class_convolution.calls": _COUNT,
    "goldbach.build_class_convolution.fft_len": _COUNT,
    "goldbach.build_class_convolution.bytes_computed": ("B", "lower"),
    "goldbach.restricted_sum.frac": _FRAC,
    "cache.load_or_build_sieve.frac": _FRAC,
    "cache.load_or_build_sieve.calls": _COUNT,
    "cache.load_or_build_sieve.hit_ratio": ("frac", "higher"),
    "cache.load_or_build_zeros.frac": _FRAC,
    "cache.load_or_build_zeros.calls": _COUNT,
    "cache.load_or_build_zeros.hit_ratio": ("frac", "higher"),
    "cache.load_or_build_convolution.frac": _FRAC,
    "cache.load_or_build_convolution.calls": _COUNT,
    "cache.load_or_build_convolution.hit_ratio": ("frac", "higher"),
    "lfunc.import_zeros.frac": _FRAC,
    "lfunc.export_zeros.frac": _FRAC,
    "lfunc.find_zeros.frac": _FRAC,
    "lfunc.find_zeros.calls": _COUNT,
    "lfunc.find_zeros.zeros": ("count", "higher"),
    "lfunc.find_zeros.attempts": _COUNT,
    "lfunc.z_line.frac": _FRAC,
    "lfunc.z_line.calls": _COUNT,
    "lfunc.z_line.points": _COUNT,
    "lfunc.z_line.points_per_zero": _COUNT,
    "lfunc.scan.frac": _FRAC,
    "lfunc.bisect.frac": _FRAC,
    "lfunc.zero_count_argument.frac": _FRAC,
    "lfunc.hurwitz_zeta_array.frac": _FRAC,
    "lfunc.hurwitz_zeta_array.points": _COUNT,
    "lfunc.hurwitz_zeta_array.evals_per_s": ("1/s", "higher"),
    "explicit.h_term.frac": _FRAC,
    "explicit.h_term.zeros": ("count", "higher"),
    "explicit.thm12_rhs.frac": _FRAC,
    "explicit.thm14_rhs.frac": _FRAC,
    "explicit.landau_gonek.frac": _FRAC,
    "numtheory.build_sieve.frac": _FRAC,
    "numtheory.build_sieve.n": _COUNT,
    "characters.verify_char_sum_identity.frac": _FRAC,
    "characters.verify_sieve_identity.frac": _FRAC,
    "characters.build_group.calls": _COUNT,
    "singular.singular_series.calls": _COUNT,
    "singular.compute_c2.frac": _FRAC,
    "circle.build_grid.frac": _FRAC,
    "circle.selberg_integral.frac": _FRAC,
}

DETERMINISTIC = [
    name for name, (unit, _) in PER_LAYER.items()
    if unit in ("count", "B") or name.endswith("hit_ratio")
]

# inclusive span time reported as a share of the traced wall time
_FRAC_SPANS = [n[: -len(".frac")] for n in PER_LAYER
               if n.endswith(".frac") and n.count(".") == 2]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(procs: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    procs holds one record per child process: its span dump plus the
    parent's "kind", "cpu_s" and "maxrss_mb" for it.  Shares (.frac) are
    inclusive span time over wall_s, the iteration's wall time."""
    incl = defaultdict(float)      # span name -> inclusive seconds
    calls = defaultdict(int)
    sums = defaultdict(int)        # "<span name>.<attr>" -> summed attribute
    self_s = defaultdict(float)    # module -> self seconds
    hits = defaultdict(int)
    dispatch_self = 0.0
    attempts = 0                   # zero_count_argument calls inside find_zeros
    max_fft = 0
    import_s = []
    for proc in procs:
        spans = proc["spans"]
        if proc["kind"] == "cli":
            import_s.append(proc["import_s"])
            self_s["cli"] += proc["import_s"]
        children = defaultdict(list)
        for i, span in enumerate(spans):
            if span[3] >= 0:
                children[span[3]].append(i)

        def ancestors(i):
            p = spans[i][3]
            while p >= 0:
                yield p
                p = spans[p][3]

        missed = set()
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            dur = end - start
            incl[name] += dur
            calls[name] += 1
            for key, value in (attrs or {}).items():
                sums[f"{name}.{key}"] += value
            own = dur - sum(spans[c][2] - spans[c][1] for c in children[i])
            self_s[name.split(".")[0]] += own
            if name == "cli.dispatch":
                dispatch_self += own
            elif name in BUILDS:
                missed.update(ancestors(i))
                if attrs and "fft_len" in attrs:
                    max_fft = max(max_fft, attrs["fft_len"])
            elif name == "lfunc.scan_and_bisect":
                # the first Z evaluation is the grid scan, the rest bisect
                z = [spans[c] for c in children[i] if spans[c][0] == "lfunc.z_line"]
                if z:
                    incl["lfunc.scan"] += z[0][2] - z[0][1]
                    incl["lfunc.bisect"] += sum(s[2] - s[1] for s in z[1:])
            elif name == "lfunc.zero_count_argument":
                if any(spans[p][0] == "lfunc.find_zeros" for p in ancestors(i)):
                    attempts += 1
        for i, span in enumerate(spans):
            if span[0].startswith("cache.") and i not in missed:
                hits[span[0]] += 1

    conv = "goldbach.build_class_convolution"
    hz = "lfunc.hurwitz_zeta_array"
    zeros = sums["lfunc.find_zeros.zeros"]
    m: dict[str, float] = {
        "trace.wall_s": wall_s,
        "proc.cpu_s": sum(p["cpu_s"] for p in procs),
        "proc.peak_rss_mb": max(p["maxrss_mb"] for p in procs),
        "cli.import_s": statistics.median(import_s) if import_s else 0.0,
        "cli.dispatch.self_s": dispatch_self,
        f"{conv}.fft_len": max_fft,
        f"{conv}.bytes_computed": sums[f"{conv}.bytes_computed"],
        "lfunc.find_zeros.zeros": zeros,
        "lfunc.find_zeros.attempts": _ratio(attempts, calls["lfunc.find_zeros"]),
        "lfunc.z_line.points": sums["lfunc.z_line.points"],
        "lfunc.z_line.points_per_zero": _ratio(sums["lfunc.z_line.points"], zeros),
        f"{hz}.points": sums[f"{hz}.points"],
        f"{hz}.evals_per_s": _ratio(sums[f"{hz}.points"], incl[hz]),
        "explicit.h_term.zeros": sums["explicit.h_term.zeros"],
        "numtheory.build_sieve.n": sums["numtheory.build_sieve.n"],
    }
    for mod in MODULES:
        m[f"{mod}.self_frac"] = _ratio(self_s[mod], wall_s)
    for name in _FRAC_SPANS:
        m[f"{name}.frac"] = _ratio(incl[name], wall_s)
    for metric in PER_LAYER:
        name, _, kind = metric.rpartition(".")
        if kind == "calls":
            m[metric] = calls[name]
        elif kind == "hit_ratio":
            m[metric] = _ratio(hits[name], calls[name])
    return m
