"""One benchmark step in a fresh process.

    child.py [--trace SPANS.json --run-id ID] cli <gz arguments>
    child.py [--trace SPANS.json --run-id ID] lib <task> <json parameters>

``cli`` runs the gz command line; the benchmark uses it only when tracing,
because an untraced gz command is run as ``python -m gzeros.cli``.  ``lib``
runs one of the library tasks below and prints its JSON result as the last
line of standard output.  With ``--trace`` the public functions of every
gzeros module are wrapped and the spans are written to SPANS.json on exit.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time

from tracing import Tracer, install


def fill_cache(p: dict) -> dict:
    """The verify workload's set-up: the sieve and every zero set its two
    commands read, stored in $GZ_CACHE_DIR."""
    from gzeros import cache, characters

    cache.load_or_build_sieve(p["xmax"])
    labels = sorted({
        characters.induce_primitive(chi).label
        for q in p["moduli"] for chi in characters.build_group(q)
    })
    for label in labels:
        cache.load_or_build_zeros(label, p["height"])
    return {"zero_sets": labels}


def per_n_table(p: dict) -> dict:
    """G(n; q, a, b) for every n <= x, then brute-force spot checks."""
    from gzeros import goldbach, numtheory

    sieve = numtheory.build_sieve(p["x"])
    conv = goldbach.build_class_convolution(p["q"], p["a"], p["b"], p["x"], sieve)
    t0 = time.perf_counter()
    mismatches = []
    for n in p["check_n"]:
        brute = goldbach.goldbach_g(n, p["q"], p["a"], p["b"], sieve)
        table = float(conv.values[n])
        if not math.isclose(table, brute, rel_tol=1e-9, abs_tol=1e-6):
            mismatches.append([n, table, brute])
    return {"check_s": time.perf_counter() - t0, "mismatches": mismatches}


def oracle(p: dict) -> dict:
    """The exact character-sum and sieve identities (acceptance scale)."""
    from gzeros import characters

    return {
        "char_sum_failures": [
            q for q in range(1, p["char_sum_qmax"] + 1)
            if not characters.verify_char_sum_identity(q)
        ],
        "sieve_failures": [
            q for q in range(1, p["sieve_qmax"] + 1)
            if not characters.verify_sieve_identity(q)
        ],
    }


TASKS = {"fill-cache": fill_cache, "per-n-table": per_n_table, "oracle": oracle}


def main(argv: list[str]) -> int:
    trace_path = run_id = None
    while argv and argv[0] in ("--trace", "--run-id"):
        if argv[0] == "--trace":
            trace_path = argv[1]
        else:
            run_id = argv[1]
        argv = argv[2:]
    if not argv or argv[0] not in ("cli", "lib"):
        print(__doc__, file=sys.stderr)
        return 2
    mode, rest = argv[0], argv[1:]

    # gzeros.cli imports every gzeros module, so install() finds them all
    t0 = time.perf_counter()
    cli = importlib.import_module("gzeros.cli")
    import_s = time.perf_counter() - t0
    tracer = None
    if trace_path:
        tracer = Tracer(run_id or "")
        install(tracer)
    try:
        if mode == "cli":
            if tracer:
                return tracer.call("cli.dispatch", cli.dispatch, rest)
            return cli.dispatch(rest)
        task = TASKS[rest[0]]
        params = json.loads(rest[1])
        if tracer:
            result = tracer.call(f"task.{rest[0]}", task, params)
        else:
            result = task(params)
        print(json.dumps(result))
        return 0
    finally:
        if tracer:
            tracer.dump(trace_path, kind=mode, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
