"""Unified command-line front end.

Subcommands: sieve, characters, zeros, goldbach, singular, javg,
verify-thm12, verify-thm14, landau-gonek, circle, fit, selfcheck.
Exit codes: 0 success, 1 verification/runtime failure, 2 usage error.

Every run is deterministic given its flags, whatever the zero cache
holds: grids are seed-free, zero sums accumulate in a fixed order, a
conjugate pair's sets come from one search (cache), and floats print as
shortest round-trip repr, so CSV output is bit-identical on one
platform.  JSON summaries carry the schema tag "gz_report_v1".
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import b_star, explicit_grid, fit_exponent, geometric_grid, rms
from .cache import load_or_build_zero_sets, load_or_build_zeros
from .characters import (
    build_group,
    char_values_table,
    character_from_label,
    character_labels,
    induce_primitive,
    verify_char_sum_identity,
    verify_sieve_identity,
)
from .circle import (build_grid, check_grid, check_window, check_xi, j_chi,
                     quadrature_s, selberg_integral, w_mass)
from .errors import GzError
from .explicit import (check_height, check_landau_gonek_x, check_thm12_classes,
                       landau_gonek)
from .goldbach import build_class_convolution, check_conv_limit, s_chi
from .lfunc import export_zeros, find_zeros, import_zeros, l_values_array
from .numtheory import build_sieve, check_modulus, euler_phi, floor_x
from .singular import (check_j_inputs, compute_c2, j_average, j_weight_table,
                       singular_series)

JSON_SCHEMA = "gz_report_v1"


# rows formatted and written at a time: gz goldbach's writer holds one
# block of cells and one block of running sums beside its O(x) values
CSV_BLOCK_ROWS = 1 << 14


def _cells(column) -> list[str]:
    """The CSV cells of one block of a column: the shortest round-trip
    repr of each float64 of an ndarray, str of anything else (Python
    floats print as their repr).

    A float64 block is keyed on its bit patterns, not its values, because
    0.0 == -0.0 while their reprs differ: each distinct pattern is
    formatted once and gathered back, so runs of exact zeros and the
    repeated running sums off the class cost one repr each.
    """
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64:
            bits, where = np.unique(column.view(np.int64), return_inverse=True)
            text = np.array([repr(v) for v in bits.view(np.float64).tolist()],
                            dtype=object)
            return text[where].tolist()
        column = column.tolist()
    return list(map(str, column))


def _emit_csv(path, header, columns):
    """Write equal-length columns (sequences or ndarrays; after the first,
    also functions of a block's slice, called once per block in row order)
    as CSV to path or stdout, CSV_BLOCK_ROWS rows at a time."""
    rows = len(columns[0]) if columns else 0
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as out:
        out.write(",".join(header) + "\n")
        for start in range(0, rows, CSV_BLOCK_ROWS):
            block = slice(start, start + CSV_BLOCK_ROWS)
            cells = [_cells(col(block) if callable(col) else col[block])
                     for col in columns]
            out.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _emit_json(path, payload):
    payload = {"schema": JSON_SCHEMA, **payload}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sieve(args) -> int:
    sieve = build_sieve(args.x)
    print(f"sieve limit {sieve.limit}: psi(x) = {sieve.psi(args.x)!r}")
    return 0


def _cmd_characters(args) -> int:
    rows = [
        (c.label, c.order, c.conductor, c.parity, int(c.is_principal))
        for c in build_group(args.q)
    ]
    _emit_csv(args.out, ["label", "order", "conductor", "parity", "principal"],
              list(zip(*rows)))
    return 0


def _character_label(args) -> str:
    """The label of the --char character, which must be mod --q (default:
    the principal character mod q), with its exponents reduced as in every
    label gz writes."""
    chi = character_from_label(args.char or character_labels(args.q)[0])
    if chi.q != args.q:
        raise GzError(f"character {args.char} is not mod {args.q}")
    return chi.label


def _cmd_zeros(args) -> int:
    label = _character_label(args)
    if args.import_path:
        zs = import_zeros(args.import_path, label)
        print(f"imported {zs.count()} zeros, certified={zs.certified}"
              + (f" ({zs.diagnostics})" if zs.diagnostics else ""))
    else:
        zs = load_or_build_zeros(label, args.height)
        print(f"{label}: {zs.count()} zeros to height {args.height}, "
              f"certified={zs.certified}")
    if args.export_path:
        export_zeros(zs, args.export_path)
        print(f"exported to {args.export_path}")
    return 0


def _cmd_goldbach(args) -> int:
    check_modulus(args.q)  # both before the sieve is built
    check_conv_limit(args.x)
    sieve = build_sieve(max(args.x, 2))
    g = build_class_convolution(args.q, args.a, args.b, args.x, sieve).values
    last = np.zeros(1)  # S before the block; g[0] = 0.0, so 0.0 + g[0] is exact

    def running_sum(block):  # np.cumsum(g), the same additions in the same order
        s = np.concatenate((last, g[block]))
        np.cumsum(s, out=s)
        last[0] = s[-1]
        return s[1:]

    _emit_csv(args.out, ["n", "g", "S"], [range(args.x + 1), g, running_sum])
    return 0


def _cmd_singular(args) -> int:
    val = singular_series(args.q, args.c)
    print(f"S_{args.q}({args.c}) = {val} = {float(val)!r}")
    return 0


def _cmd_javg(args) -> int:
    check_j_inputs(args.x, args.q)  # before C2 and the J table are built
    constants = compute_c2(10 ** 5)
    table = j_weight_table(args.x, constants)
    rows = []
    for x in floor_x(geometric_grid(100, args.x)).tolist():
        exact, main, resid = j_average(x, args.q, args.c, table)
        rows.append((x, exact, main, resid))
    _emit_csv(args.out, ["x", "exact", "main", "residual"], list(zip(*rows)))
    return 0


def _explicit_grid(args, mode: str, xs):
    """The mode's classes among the command's arguments ({a, b}, or {c} for
    thm14), the zero sets mod q it reads (none for thm11) and explicit_grid's
    rows on xs, with the sieve to --xmax, built once every input passed."""
    check_modulus(args.q)
    if mode == "thm12":
        check_thm12_classes(args.q, args.a, args.b)
    classes = {k: getattr(args, k) for k in (("c",) if mode == "thm14" else ("a", "b"))}
    zsets = {} if mode == "thm11" else load_or_build_zero_sets(args.q, args.height)
    check_height(args.height)
    sieve = build_sieve(args.xmax)
    return classes, zsets, explicit_grid(mode, args.q, tuple(classes.values()), xs,
                                         sieve, zsets, args.height)


def _cmd_verify(args) -> int:
    """verify-thm12 / verify-thm14: exact sums on a grid against the
    explicit formula."""
    xs = geometric_grid(args.xmin, args.xmax, args.grid)
    mode = args.command.removeprefix("verify-")
    classes, zsets, grid = _explicit_grid(args, mode, xs)
    rows = [(r.x, r.exact, r.main, r.zero_correction.real, r.residual,
             r.truncation_bound) for r in grid]
    _emit_csv(args.out, ["x", "exact", "main", "zero_correction", "residual",
                         "truncation_bound"], list(zip(*rows)))
    ok = all(abs(r[4]) <= r[5] + 5 * r[0] ** 1.5 for r in rows)
    certified = all(zs.certified for zs in zsets.values())
    if args.json:
        _emit_json(args.json, {
            "mode": mode, "q": args.q, **classes, "T": args.height,
            "rms_residual": rms([(r[0], r[4]) for r in rows]),
            "pass": bool(ok),
            "certified": certified,
            "watermark": "" if certified else "uncertified",
        })
    return 0 if ok else 1


def _cmd_landau_gonek(args) -> int:
    check_landau_gonek_x(args.x)  # before the zero set is loaded or built
    star = induce_primitive(character_from_label(_character_label(args)))
    zs = load_or_build_zeros(star.label, args.height)
    total, pred, budget = landau_gonek(args.x, star, zs, args.height)
    _emit_json(args.json, {
        "x": args.x, "char": star.label, "T": args.height,
        "sum_re": total.real, "sum_im": total.imag,
        "prediction_re": pred.real, "prediction_im": pred.imag,
        "error_budget": budget,
        "within_budget": bool(abs(total - pred) <= budget),
    })
    return 0 if abs(total - pred) <= budget else 1


def _cmd_circle(args) -> int:
    # every input rule before the sieve and the grid are built
    check_modulus(args.q)
    check_grid(args.x, 8 * args.x)
    if args.h:
        check_window(args.x, args.h)
    if args.xi is not None:
        check_xi(args.xi, args.x)
    sieve = build_sieve(2 * args.x + args.h + 1)
    grid = build_grid(args.x, args.q, sieve, 8 * args.x)
    payload = {"x": args.x, "q": args.q, "constants": {}}
    lq = math.log(2 * args.q * args.x)
    for chi in build_group(args.q):
        jval = j_chi(chi, grid)
        entry = {"J": jval, "J_over_shape": jval / (args.x * lq ** 5)}
        if args.xi is not None:
            mass = w_mass(args.xi, chi, grid)
            entry["w_mass"] = mass
            entry["w_mass_over_shape"] = mass / (args.xi * args.x * lq ** 4)
        if args.h:
            sel = selberg_integral(args.x, args.h, chi, sieve)
            entry["selberg"] = sel
            entry["selberg_over_shape"] = sel / (args.h * args.x * lq ** 4)
        payload["constants"][chi.label] = entry
    _emit_json(args.json, payload)
    return 0


def _cmd_fit(args) -> int:
    xs = geometric_grid(args.xmin, args.xmax)
    res = [(r.x, r.residual) for r in _explicit_grid(args, args.mode, xs)[2]]
    fit = fit_exponent(res)
    payload = {
        "mode": args.mode, "q": args.q,
        "exponent": fit.exponent, "intercept": fit.intercept,
        "fit_rms": fit.rms, "n_samples": fit.n_samples,
        "x_range": list(fit.x_range),
        "rms_residual": rms(res),
        "b_star_at_xmax": b_star(args.q, args.xmax),
    }
    _emit_json(args.out, payload)
    if args.csv:
        _emit_csv(args.csv, ["x", "delta"], list(zip(*res)))
    return 0


def _cmd_selfcheck(args) -> int:
    """Small-q oracle suites, one pass/fail line per lemma."""
    failures = 0

    def report(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}" + (f"  ({detail})" if detail else ""))
        failures += 0 if ok else 1

    report("character-sum closed form == brute force (q <= 30, exact)",
           all(verify_char_sum_identity(q) for q in range(1, 31)))

    report("sieve identity #{a} == phi(q)^2 S_q(c) (q <= 100, exact)",
           all(verify_sieve_identity(q) for q in range(1, 101)))

    sieve = build_sieve(4000)
    # Lambda by trial division, sharing no code with the sieve: n <= 4000 is
    # a prime power when it is a power of its least prime factor (< 64 or n).
    # The DFT, FFT and Selberg lines take their references from it, with
    # classes by n % q, chi(n) from chi's table and sums by np.convolve and
    # np.cumsum, so no sieve or goldbach helper sits on both sides.
    n, d = np.arange(2, 4001), np.arange(2, 64)
    d = d[np.all((d[:, None] % d != 0) | (d[:, None] <= d), axis=1)]
    least = np.where(n[:, None] % d == 0, d, n[:, None]).min(axis=1)
    k = np.rint(np.log(n) / np.log(least)).astype(np.int64)
    lam = np.zeros(4001)
    lam[n] = np.where(least ** k == n, np.log(least), 0.0)
    pos = sieve.prime_powers(4000)
    dev = lam.copy()
    dev[pos] -= sieve.lam(slice(0, len(pos)))
    worst = float(np.abs(dev).max())
    report("Lambda(n) of the sieve vs trial division (n <= 4000)",
           worst < 1e-12, f"worst dev {worst:.2e}")

    x, chars3 = 300, build_group(3)
    grid = build_grid(x, 3, sieve, 2 * x + 1)
    twisted = [char_values_table(c)[np.arange(x + 1) % 3] * lam[:x + 1]
               for c in chars3]
    worst = max(abs(quadrature_s(grid, c1, c2) - np.cumsum(np.convolve(u, v))[x])
                for c1, u in zip(chars3, twisted) for c2, v in zip(chars3, twisted))
    report("orthogonality decomposition (q=3, x=300, DFT vs direct)",
           worst < 1e-6, f"worst residual {worst:.2e}")

    x = 400
    ok = True
    for q, a, b in [(1, 1, 1), (3, 1, 2), (5, 2, 3)]:
        conv = build_class_convolution(q, a, b, x, sieve)
        u, v = (np.where(np.arange(x + 1) % q == c % q, lam[:x + 1], 0.0)
                for c in (a, b))
        if np.max(np.abs(conv.values - np.convolve(u, v)[: x + 1])) > 1e-6:
            ok = False
    report("FFT convolution vs direct double loop (x=400)", ok)

    q, x = 3, 500
    phi3 = euler_phi(q)
    svals = {
        (c1.label, c2.label): s_chi(x, c1, c2, sieve)
        for c1 in chars3
        for c2 in chars3
    }
    conj = {c.label: char_values_table(c).conjugate() for c in chars3}
    worst = 0.0
    for a in (1, 2):
        for b in (1, 2):
            total = sum(
                complex(conj[c1.label][a])
                * complex(conj[c2.label][b])
                * svals[(c1.label, c2.label)]
                for c1 in chars3
                for c2 in chars3
            ) / phi3 ** 2
            ref = np.cumsum(build_class_convolution(q, a, b, x, sieve).values)[x]
            worst = max(worst, abs(total - ref))
    report("character orthogonality reconstructs S(x;q,a,b) (q=3)",
           worst < 1e-7, f"worst dev {worst:.2e}")

    c2c = compute_c2(10 ** 5)
    report("twin prime constant in (1.3, 1.33) with tail bound < 1e-12",
           1.3 < c2c.C2 < 1.33 and c2c.tail_bound < 1e-12,
           f"C2 = {c2c.C2:.12f}")

    zc = build_group(1)[0]
    err = abs(l_values_array(zc, 2.0)[0] - math.pi ** 2 / 6)
    report("zeta(2) = L(2, chi mod 1) vs pi^2/6", err < 1e-12, f"err {err:.2e}")

    zs = find_zeros(zc, 50)
    gamma1 = float(zs.gamma[zs.gamma > 0][0])
    report("zeta zeros to T=50 certified (argument principle)",
           zs.certified and zs.count() == 20,
           f"count {zs.count()}, gamma1 {gamma1:.9f}")
    report("first zeta ordinate matches 14.134725141734693",
           abs(gamma1 - 14.134725141734693) < 1e-8)

    x, h = 100, 10
    val = selberg_integral(x, h, zc, sieve)
    w = np.cumsum(lam[:2 * x + h + 2])
    ts = np.linspace(x, 2 * x, 100001)[:-1] + 0.5 / 100000
    window = w[np.floor(ts + h).astype(int)] - w[np.floor(ts).astype(int)]
    riemann = float(np.sum(np.abs(window - h) ** 2) * (x / 100000))
    report("Selberg integral exact vs Riemann oracle (x=100, h=10)",
           abs(val - riemann) / riemann < 1e-3, f"rel dev {abs(val-riemann)/riemann:.2e}")

    xs = geometric_grid(1e3, 1e6, 25)
    fit = fit_exponent([(x, x ** 1.5) for x in xs])
    report("fit_exponent recovers slope 1.5 on synthetic power law",
           abs(fit.exponent - 1.5) < 1e-3, f"slope {fit.exponent:.6f}")

    print(f"selfcheck: {failures} failure(s)")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument parsing


def integer(text: str) -> int:
    """--x and --xmax: an exact integer, as 1000000 or 1e6 (not 1.5 or 1e400)."""
    value = float(text)
    if not (value.is_integer() and decimal.Decimal(text) == value):
        raise ValueError(text)  # argparse: "invalid integer value"
    return int(value)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gz",
        description="Goldbach averages in progressions vs Dirichlet zeros",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sieve", help="build a von Mangoldt table")
    s.add_argument("--x", type=integer, required=True)

    s = sub.add_parser("characters", help="list the character group mod q")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--out", help="CSV path (default stdout)")

    s = sub.add_parser("zeros", help="find/certify or import/export zeros")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--char", help="character label (default principal)")
    s.add_argument("--height", type=float, default=200.0)
    s.add_argument("--import", dest="import_path")
    s.add_argument("--export", dest="export_path")

    s = sub.add_parser("goldbach", help="G(n;q,a,b) and S tables as CSV")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--a", type=int, required=True)
    s.add_argument("--b", type=int, required=True)
    s.add_argument("--x", type=integer, required=True)
    s.add_argument("--out")

    s = sub.add_parser("singular", help="exact singular series value")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--c", type=int, required=True)

    s = sub.add_parser("javg", help="average of J over a congruence class")
    s.add_argument("--x", type=integer, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--c", type=int, required=True)
    s.add_argument("--out")

    for name in ("verify-thm12", "verify-thm14"):
        s = sub.add_parser(name, help=f"explicit-formula check ({name[-5:]})",
                           description=None if name.endswith("12") else (
                               "Its class sums on 25 points take 0.3-0.8 s to --xmax "
                               "1e8 and 3-7 s to 1e9 for q = 4 to 30, odd c fastest; "
                               "at 1e9 it peaks at 0.67 GB (q = 4), 0.38 GB (q = 30)."))
        s.add_argument("--q", type=int, required=True)
        if name.endswith("12"):
            s.add_argument("--a", type=int, required=True)
            s.add_argument("--b", type=int, required=True)
        else:
            s.add_argument("--c", type=int, required=True)
        s.add_argument("--xmin", type=float, default=1e3)
        s.add_argument("--xmax", type=integer, required=True)
        s.add_argument("--grid", type=int, default=25)
        s.add_argument("--height", type=float, default=200.0)
        s.add_argument("--out", help="CSV path (default stdout)")
        s.add_argument("--json", help="JSON summary path")

    s = sub.add_parser("landau-gonek", help="zero power sum vs prediction")
    s.add_argument("--x", type=float, required=True)
    s.add_argument("--q", type=int, default=1)
    s.add_argument("--char")
    s.add_argument("--height", type=float, default=1000.0)
    s.add_argument("--json")

    s = sub.add_parser("circle", help="exponential-sum measured constants")
    s.add_argument("--x", type=integer, required=True)
    s.add_argument("--q", type=int, default=1)
    s.add_argument("--xi", type=float)
    s.add_argument("--h", type=int, default=0)
    s.add_argument("--json")

    s = sub.add_parser("fit", help="residual exponent estimation")
    s.add_argument("--mode", choices=["thm11", "thm12", "thm14"], required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--a", type=int, default=1)
    s.add_argument("--b", type=int, default=1)
    s.add_argument("--c", type=int, default=1)
    s.add_argument("--xmin", type=float, default=1e3)
    s.add_argument("--xmax", type=integer, required=True)
    s.add_argument("--height", type=float, default=200.0)
    s.add_argument("--out", help="JSON report path")
    s.add_argument("--csv", help="CSV companion path")

    sub.add_parser("selfcheck", help="run the small-q oracle suites")
    return p


_HANDLERS = {
    "sieve": _cmd_sieve,
    "characters": _cmd_characters,
    "zeros": _cmd_zeros,
    "goldbach": _cmd_goldbach,
    "singular": _cmd_singular,
    "javg": _cmd_javg,
    "verify-thm12": _cmd_verify,
    "verify-thm14": _cmd_verify,
    "landau-gonek": _cmd_landau_gonek,
    "circle": _cmd_circle,
    "fit": _cmd_fit,
    "selfcheck": _cmd_selfcheck,
}


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _HANDLERS[args.command](args)
    except (GzError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
