import json
import os
import shlex
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gzeros.cache import cache_key, load_or_build_zeros
from gzeros.cli import CSV_BLOCK_ROWS, _emit_csv, build_parser, dispatch
from gzeros.goldbach import build_class_convolution, goldbach_g
from gzeros.numtheory import build_sieve


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("GZ_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def test_usage_errors(capsys):
    assert dispatch(["no-such-command"]) == 2
    assert dispatch(["zeros", "--bogus-flag", "1"]) == 2
    assert dispatch([]) == 2
    assert dispatch(["--config", "x", "selfcheck"]) == 2


@pytest.mark.parametrize("text, value", [
    ("1e9", 10 ** 9), ("25e3", 25000), ("100000", 100000), ("2.5e5", 250000)])
def test_x_takes_exact_integers_in_scientific_notation(text, value):
    parser = build_parser()
    assert parser.parse_args(["sieve", "--x", text]).x == value
    argv = ["verify-thm12", "--q", "3", "--a", "1", "--b", "2", "--xmax", text]
    assert parser.parse_args(argv).xmax == value


@pytest.mark.parametrize("text", ["1.5", "inf", "nan", "1e400",
                                  "9007199254740993e0", "1e", "abc"])
def test_x_refuses_what_is_not_an_exact_integer(text, capsys):
    # argparse's usage error: exit 2 and "invalid ... value", no traceback
    assert dispatch(["sieve", "--x", text]) == 2
    assert f"invalid integer value: '{text}'" in capsys.readouterr().err


def test_readme_cli_lines_parse():
    # every gz line of README's CLI block, continuation lines joined
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    lines = [ln for ln in block.replace("\\\n", " ").splitlines()
             if ln.startswith("gz ")]
    assert len(lines) >= 12
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert parser.parse_args(argv).command == argv[0], line


def test_singular_command(capsys, cache_env):
    assert dispatch(["singular", "--q", "3", "--c", "2"]) == 0
    out = capsys.readouterr().out
    assert "1/4" in out


def test_characters_csv_deterministic(cache_env, tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert dispatch(["characters", "--q", "8", "--out", str(p1)]) == 0
    assert dispatch(["characters", "--q", "8", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0] == "label,order,conductor,parity,principal"


def test_goldbach_csv(cache_env, tmp_path):
    out = tmp_path / "g.csv"
    assert dispatch(["goldbach", "--q", "3", "--a", "1", "--b", "2",
                     "--x", "30", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,g,S"
    assert len(lines) == 32


def test_zeros_roundtrip_and_cache(cache_env, tmp_path, capsys):
    zfile = tmp_path / "z.txt"
    assert dispatch(["zeros", "--q", "1", "--height", "20",
                     "--export", str(zfile)]) == 0
    assert zfile.exists()
    # reimport validates
    assert dispatch(["zeros", "--q", "1", "--height", "20",
                     "--import", str(zfile)]) == 0
    out = capsys.readouterr().out
    assert "certified=True\n" in out


@pytest.mark.parametrize("edit, reason", [
    (lambda rows: [r.replace("0.5 ", "0.75 ", 1) for r in rows],
     "certified=False (hypothetical (off-line entries))"),
    (lambda rows: rows[1:], "certified=False (multiplicity total 5 != argument count 6"),
], ids=["off-line", "dropped-zero"])
def test_zeros_import_prints_why_uncertified(edit, reason, cache_env, tmp_path,
                                             capsys):
    zfile = tmp_path / "z.txt"
    assert dispatch(["zeros", "--q", "1", "--height", "30",
                     "--export", str(zfile)]) == 0
    lines = zfile.read_text().splitlines()
    zfile.write_text("\n".join(lines[:4] + edit(lines[4:])) + "\n")
    capsys.readouterr()
    assert dispatch(["zeros", "--q", "1", "--import", str(zfile)]) == 0
    assert reason in capsys.readouterr().out


def test_goldbach_negative_x_caches_nothing(cache_env, capsys):
    with pytest.raises(ValueError, match="x=-1"):
        build_class_convolution(3, 1, 2, -1, build_sieve(2))
    assert dispatch(["goldbach", "--q", "3", "--a", "1", "--b", "2",
                     "--x", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list((cache_env / "cache").glob("*"))


@pytest.mark.parametrize("argv", [
    ["verify-thm12", "--q", "3", "--a", "3", "--b", "2", "--xmax", "10000",
     "--height", "20"],
    ["fit", "--mode", "thm12", "--q", "4", "--a", "1", "--b", "2",
     "--xmax", "10000", "--height", "20"],
], ids=["verify-thm12", "fit-thm12"])
def test_thm12_refuses_non_unit_classes_before_building(argv, cache_env, capsys,
                                                        monkeypatch):
    import gzeros.cli

    def never(*args):
        raise AssertionError("built before the (ab, q) check")

    monkeypatch.setattr(gzeros.cli, "build_sieve", never)
    monkeypatch.setattr(gzeros.cli, "load_or_build_zero_sets", never)
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == "error: thm12_rhs requires (ab, q) = 1\n"


@pytest.mark.parametrize("argv, message", [
    (["goldbach", "--q", "0", "--a", "1", "--b", "1", "--x", "10000000"],
     "modulus q=0 must be >= 1"),
    (["verify-thm12", "--q", "0", "--a", "1", "--b", "1", "--xmax", "10000000"],
     "modulus q=0 must be >= 1"),
    (["verify-thm14", "--q", "0", "--c", "1", "--xmax", "10000000"],
     "modulus q=0 must be >= 1"),
    (["fit", "--mode", "thm11", "--q", "0", "--xmax", "10000000"],
     "modulus q=0 must be >= 1"),
    (["fit", "--mode", "thm14", "--q", "-2", "--xmax", "10000000"],
     "modulus q=-2 must be >= 1"),
    (["fit", "--mode", "thm14", "--q", "3", "--xmin", "1e6", "--xmax", "1000"],
     "need x_min < x_max"),
    (["characters", "--q", "0"], "modulus q=0 must be >= 1"),
    (["circle", "--x", "2000000"], "x=2000000 beyond grid cap 1000000"),
    (["circle", "--x", "300", "--h", "-5"], "h=-5 outside [2, x]"),
    (["circle", "--x", "300", "--xi", "5"], "xi=5.0 outside [1/x, 1/2]"),
    (["circle", "--x", "300", "--q", "0"], "modulus q=0 must be >= 1"),
    (["landau-gonek", "--x", "inf"], "x must be finite and exceed 1, got inf"),
    (["landau-gonek", "--x", "1"], "x must be finite and exceed 1, got 1.0"),
    (["landau-gonek", "--x", "1e300"], "x=1e+300 must be below 2^63"),
], ids=["goldbach", "verify-thm12", "verify-thm14", "fit-thm11", "fit-thm14",
        "fit-empty-grid", "characters", "circle-x-past-cap", "circle-h",
        "circle-xi", "circle-q-0", "landau-gonek-x-inf", "landau-gonek-x-1",
        "landau-gonek-x-past-factorize"])
def test_bad_modulus_or_grid_is_refused_before_building(argv, message, cache_env,
                                                        capsys, monkeypatch):
    # one message per rule, and no sieve, zero set, per-n table or
    # exponential-sum grid first
    import gzeros.cli

    def never(*args):
        raise AssertionError("built before the input check")

    for name in ("build_sieve", "load_or_build_zero_sets", "load_or_build_zeros",
                 "build_class_convolution", "build_grid"):
        monkeypatch.setattr(gzeros.cli, name, never)
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_goldbach_past_the_convolution_cap_builds_no_sieve(cache_env, capsys,
                                                          monkeypatch):
    # gz goldbach --x 1e8 is within SIEVE_CAP and --x 2e9 past it: the
    # per-n cap refuses both first
    import gzeros.cli

    def no_sieve(x):
        raise AssertionError("sieve built")

    monkeypatch.setattr(gzeros.cli, "build_sieve", no_sieve)
    for x in ("100000000", "2000000000"):
        assert dispatch(["goldbach", "--q", "3", "--a", "1", "--b", "2",
                         "--x", x]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: x={x} exceeds the per-n convolution cap")


@pytest.mark.parametrize("argv", [
    ["verify-thm12", "--q", "3", "--a", "1", "--b", "2", "--xmin", "100",
     "--xmax", "10000", "--grid", "4", "--height", "20"],
    ["fit", "--mode", "thm11", "--q", "1", "--xmax", "100000"],
    ["goldbach", "--q", "3", "--a", "1", "--b", "2", "--x", "500"],
    ["circle", "--x", "300", "--q", "1", "--h", "10"],
    ["sieve", "--x", "10000"],
], ids=["verify-thm12", "fit", "goldbach", "circle", "sieve"])
def test_commands_write_no_sieve_file(argv, tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("GZ_CACHE_DIR", str(cache_dir))
    assert dispatch(argv) == 0
    assert not list(cache_dir.glob("sieve-*"))
    # zero sets are all the cache holds: the commands that read none
    # leave GZ_CACHE_DIR empty
    written = [p.name for p in cache_dir.glob("*")]
    if argv[0] == "verify-thm12":
        written = [n for n in written if not n.startswith("zeros-")]
    assert written == []


def test_cache_key_versioning():
    k1 = cache_key("sieve", x=100)
    k2 = cache_key("sieve", x=101)
    k3 = cache_key("zeros", x=100)
    assert k1 != k2 and k1 != k3


def test_zero_cache(cache_env, tmp_path):
    cache_dir = tmp_path / "cache"
    z1 = load_or_build_zeros("q=1;e=", 20.0)
    assert len(list(cache_dir.glob("zeros-*.txt"))) == 1  # under $GZ_CACHE_DIR
    z2 = load_or_build_zeros("q=1;e=", 20.0)
    assert z1.gamma.tolist() == z2.gamma.tolist()
    assert z2.certified


def test_cli_imports_no_test_dependency():
    # pytest, hypothesis, mpmath and scipy are the [test] extra: `gz` must
    # run from a plain `pip install .`
    import subprocess

    import gzeros

    env = dict(os.environ, PYTHONPATH=str(Path(gzeros.__file__).parents[1]))
    code = ("import sys, gzeros.cli; "
            "print(sorted({'pytest', 'hypothesis', 'mpmath', 'scipy'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_verify_thm12_small(cache_env, tmp_path, capsys):
    out = tmp_path / "v.csv"
    js = tmp_path / "v.json"
    code = dispatch([
        "verify-thm12", "--q", "3", "--a", "1", "--b", "1",
        "--xmin", "100", "--xmax", "10000", "--grid", "6",
        "--height", "60", "--out", str(out), "--json", str(js),
    ])
    assert code == 0
    payload = json.loads(js.read_text())
    assert payload["schema"] == "gz_report_v1"
    assert payload["pass"] is True
    assert out.read_text().splitlines()[0].startswith("x,exact,main")


@pytest.mark.parametrize("argv", [
    ["verify-thm12", "--q", "3", "--a", "1", "--b", "2", "--xmax", "10000",
     "--grid", "0", "--height", "50"],
    ["goldbach", "--q", "0", "--a", "1", "--b", "1", "--x", "100"],
    ["javg", "--x", "1000", "--q", "0", "--c", "1"],
    ["landau-gonek", "--x", "inf", "--q", "1", "--height", "50"],
    ["landau-gonek", "--x", "2", "--q", "3", "--char", "q=5;e=1", "--height", "20"],
], ids=["verify-grid-0", "goldbach-q-0", "javg-q-0", "landau-gonek-x-inf",
        "landau-gonek-char-not-mod-q"])
def test_bad_input_exits_1_without_traceback(argv, cache_env, capsys):
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify-thm12", "--q", "3", "--a", "1", "--b", "2", "--xmax", "10000",
     "--height", "nan"],
    ["zeros", "--q", "1", "--height", "nan"],
], ids=["verify-thm12", "zeros"])
def test_nan_height_is_refused_by_name(argv, cache_env, capsys):
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == "error: find_zeros: T=nan must be finite\n"


def test_landau_gonek_command(cache_env, capsys):
    code = dispatch(["landau-gonek", "--x", "2", "--q", "1", "--height", "100"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["within_budget"] is True


def test_landau_gonek_command_near_prime_power(cache_env, capsys):
    # x = 4.001 sits 0.001 from the prime power 4, which sets the budget
    code = dispatch(["landau-gonek", "--x", "4.001", "--q", "1", "--height", "200"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["within_budget"] is True


def test_circle_command(cache_env, tmp_path):
    js = tmp_path / "c.json"
    code = dispatch(["circle", "--x", "300", "--q", "1",
                     "--xi", "0.01", "--h", "10", "--json", str(js)])
    assert code == 0
    payload = json.loads(js.read_text())
    consts = payload["constants"]["q=1;e="]
    assert consts["J"] > 0
    assert consts["selberg"] > 0
    assert consts["w_mass"] > 0


def test_fit_command(cache_env, tmp_path):
    js = tmp_path / "fit.json"
    code = dispatch(["fit", "--mode", "thm11", "--q", "1",
                     "--xmin", "1000", "--xmax", "100000", "--out", str(js)])
    assert code == 0
    payload = json.loads(js.read_text())
    assert 0.5 < payload["exponent"] < 2.0


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    # zero sets at T = 60 for q = 3, 4, built once for the tests below
    return tmp_path_factory.mktemp("shared-cache")


SMALL = ["--xmax", "10000", "--grid", "6", "--height", "60"]


@pytest.mark.parametrize("argv", [
    ["verify-thm12", "--q", "3", "--a", "1", "--b", "2", "--xmin", "100", *SMALL],
    ["verify-thm14", "--q", "4", "--c", "2", "--xmin", "100", *SMALL],
    ["fit", "--mode", "thm11", "--q", "1", "--xmax", "100000"],
    ["fit", "--mode", "thm12", "--q", "3", "--xmax", "100000", "--height", "60"],
    ["fit", "--mode", "thm14", "--q", "4", "--c", "2", "--xmax", "100000",
     "--height", "60"],
], ids=["verify-thm12", "verify-thm14", "fit-thm11", "fit-thm12", "fit-thm14"])
def test_summatory_commands_build_no_fft(argv, shared_cache, monkeypatch, tmp_path):
    from gzeros import goldbach

    def no_fft(*args, **kwargs):
        raise AssertionError("a summatory path built an FFT convolution")

    fft = goldbach.build_class_convolution
    for name, module in list(sys.modules.items()):
        if name == "gzeros" or name.startswith("gzeros."):
            for attr, value in list(vars(module).items()):
                if value is fft:
                    monkeypatch.setattr(module, attr, no_fft)
    monkeypatch.setenv("GZ_CACHE_DIR", str(shared_cache))
    assert dispatch([*argv, "--out", str(tmp_path / "out")]) == 0


def test_verify_thm14_repeats_and_counts_endpoint(shared_cache, monkeypatch, tmp_path):
    # the x = 1000 row must include n = 1000 (the grid once ended an ulp
    # below it) and the CSV must be byte-identical across runs
    monkeypatch.setenv("GZ_CACHE_DIR", str(shared_cache))
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert dispatch(["verify-thm14", "--q", "4", "--c", "4", "--xmin", "1000",
                         *SMALL, "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    x, exact = paths[0].read_text().splitlines()[1].split(",")[:2]
    sieve = build_sieve(1000)
    brute = sum(goldbach_g(n, 1, 1, 1, sieve) for n in range(4, 1001, 4))
    assert float(exact) == pytest.approx(brute, rel=1e-12)
    assert float(x) == 1000.0


def test_javg_grid_keeps_integer_points(cache_env, tmp_path):
    out = tmp_path / "javg.csv"
    # the 25-point grid from 100 to 1e5 reaches 1000 as 999.9999999999998
    assert dispatch(["javg", "--x", "100000", "--q", "3", "--c", "2",
                     "--out", str(out)]) == 0
    xs = [int(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    assert xs[0] == 100 and xs[-1] == 100000 and 1000 in xs


@pytest.mark.parametrize("q, a, b, x, to_file", [
    (3, 1, 2, 2000, True),
    (3, 2, 1, 2 * CSV_BLOCK_ROWS + 123, True),
    (1, 1, 1, 3000, True),
    (5, 2, 3, 3000, False),
    (3, 1, 2, 1, False),
], ids=["q3", "three-blocks", "q1", "stdout", "x-1"])
def test_goldbach_csv_matches_per_value_format(q, a, b, x, to_file, cache_env,
                                               tmp_path, capsys):
    # shortest round-trip repr of each float64, the integer n as str,
    # across block boundaries and to a file or stdout
    out = tmp_path / "g.csv"
    argv = ["goldbach", "--q", str(q), "--a", str(a), "--b", str(b),
            "--x", str(x)]
    assert dispatch(argv + (["--out", str(out)] if to_file else [])) == 0
    text = out.read_text() if to_file else capsys.readouterr().out
    g = build_class_convolution(q, a, b, x, build_sieve(max(x, 2))).values
    expect = ["n,g,S"] + [f"{n},{float(g[n])!r},{float(s)!r}"
                          for n, s in enumerate(np.cumsum(g))]
    assert text == "\n".join(expect) + "\n"


def test_csv_cells_are_keyed_on_float_bit_patterns(tmp_path):
    # 0.0 == -0.0 but their reprs differ, so the per-block formatting must
    # not merge equal values with different bits
    values = [0.0, -0.0, 5e-324, 1e-7, 1e17, -0.0, 0.0, 1e17]
    out = tmp_path / "v.csv"
    _emit_csv(str(out), ["v", "n"], [np.array(values), range(len(values))])
    assert out.read_text() == "".join(
        f"{row}\n" for row in ["v,n", *(f"{v!r},{n}" for n, v in enumerate(values))])


def test_goldbach_csv_memory_is_one_block_of_rows(cache_env, tmp_path):
    # the table, its running sum and one block of cells: a writer that
    # formats every row before writing peaks at about 86 MB here
    tracemalloc.start()
    try:
        assert dispatch(["goldbach", "--q", "3", "--a", "1", "--b", "2",
                         "--x", "200000", "--out", str(tmp_path / "g.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_goldbach_csv_write_holds_no_second_x_length_array(cache_env, tmp_path,
                                                          monkeypatch):
    # once the table is built, writing the CSV adds one block of rows and
    # of running sums, not a second array over n = 0..x such as np.cumsum(g)
    from gzeros import cli

    x, held = 200000, []
    build = cli.build_class_convolution

    def build_then_reset_peak(*args):
        conv = build(*args)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return conv

    monkeypatch.setattr(cli, "build_class_convolution", build_then_reset_peak)
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 256)
    tracemalloc.start()
    try:
        assert dispatch(["goldbach", "--q", "3", "--a", "1", "--b", "2",
                         "--x", str(x), "--out", str(tmp_path / "g.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held[0] < 8 * x / 4

@pytest.mark.parametrize("x, q, message", [
    ("20000000", "3", "beyond validated envelope 1e7"),
    ("10000000", "0", "modulus q=0 must be >= 1"),
    ("-5", "3", "x=-5 must exceed 100"),
    ("100", "3", "x=100 must exceed 100"),
], ids=["x-past-envelope", "q-0", "x-negative", "x-at-grid-start"])
def test_javg_rejects_bad_input_before_building(x, q, message, cache_env,
                                                monkeypatch, capsys):
    from gzeros import cli

    def never(*args, **kwargs):
        raise AssertionError("built before the input check")

    monkeypatch.setattr(cli, "j_weight_table", never)
    monkeypatch.setattr(cli, "compute_c2", never)
    assert dispatch(["javg", "--x", x, "--q", q, "--c", "1"]) == 1
    assert message in capsys.readouterr().err


def test_verify_thm14_class_zero_is_class_q(shared_cache, monkeypatch, tmp_path):
    monkeypatch.setenv("GZ_CACHE_DIR", str(shared_cache))
    cols = []
    for c in ("0", "4"):
        out = tmp_path / f"c{c}.csv"
        assert dispatch(["verify-thm14", "--q", "4", "--c", c, "--xmin", "1000",
                         *SMALL, "--out", str(out)]) == 0
        cols.append([line.split(",")[1:5] for line in out.read_text().splitlines()])
    assert cols[0] == cols[1]


def test_verify_rejects_nonpositive_xmin(cache_env, capsys):
    assert dispatch(["verify-thm12", "--q", "3", "--a", "1", "--b", "2",
                     "--xmin", "0", "--xmax", "10000", "--height", "50"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: x_min must be positive")
