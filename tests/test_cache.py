"""The zero-set provider: one cache, one search and one file per conjugate
pair (its member first in build_group order, the other mirrored), outputs
that do not depend on what the cache already holds, one label per
character, checksummed files, and the CLI reading exactly what the
library reads."""

import numpy as np
import pytest

from gzeros import analysis, cache, cli
from gzeros.cache import _sha256_file, load_or_build_zero_sets, load_or_build_zeros
from gzeros.characters import build_group, conjugate
from gzeros.lfunc import find_zeros, mirror_zero_set

T = 20.0


@pytest.fixture(autouse=True)
def cache_env(tmp_path, monkeypatch):
    """Every test reads and writes zero sets under its own tmp_path."""
    monkeypatch.setenv("GZ_CACHE_DIR", str(tmp_path))
    return tmp_path


@pytest.fixture()
def searches(monkeypatch):
    """Labels find_zeros ran for, in call order."""
    calls = []
    real = cache.find_zeros

    def counting(chi, height, *args, **kwargs):
        calls.append(chi.label)
        return real(chi, height, *args, **kwargs)

    monkeypatch.setattr(cache, "find_zeros", counting)
    return calls


def _view(sets):
    return {
        label: (zs.char_label, zs.certified, zs.height,
                zs.beta.tolist(), zs.gamma.tolist(), zs.mult.tolist())
        for label, zs in sets.items()
    }


def test_conjugate_pairs_cost_one_search(tmp_path, searches):
    sets = load_or_build_zero_sets(7, T)
    # zeta, the quadratic character and one of each conjugate pair
    # (orders 3 and 6); the other two sets are mirrored, and not stored
    assert len(searches) == 4
    assert len(list(tmp_path.glob("zeros-*.txt"))) == 4
    chars = build_group(7)
    assert list(sets) == [chi.label for chi in chars]
    mirrored = [chi for chi in chars
                if not chi.is_principal and chi.label not in searches]
    assert len(mirrored) == 2
    for chi in mirrored:
        assert conjugate(chi).label in searches
        zs, direct = sets[chi.label], find_zeros(chi, T)
        assert zs.certified and zs.char_label == chi.label
        assert len(zs.gamma) == len(direct.gamma) > 0
        assert np.max(np.abs(zs.gamma - direct.gamma)) <= 1e-9

    searches.clear()
    assert _view(load_or_build_zero_sets(7, T)) == _view(sets)
    assert searches == []


def test_imprimitive_characters_get_their_own_label():
    sets = load_or_build_zero_sets(8, T)
    for chi in build_group(8):
        assert sets[chi.label].char_label == chi.label
    principal = build_group(8)[0]
    zeta = load_or_build_zeros("q=1;e=", T)
    assert sets[principal.label].gamma.tolist() == zeta.gamma.tolist()


def test_damaged_conjugate_set_is_not_mirrored(tmp_path, searches):
    # the pair's one file fails its checksum: it is searched again as the
    # pair's first member and rewritten, and the mirror read from it
    zs1 = load_or_build_zeros("q=5;e=1", T)
    (path,) = tmp_path.glob("zeros-*.txt")
    raw = path.read_bytes()
    path.write_text(path.read_text().replace("0.5 ", "0.25 ", 1))
    zs3 = load_or_build_zeros("q=5;e=3", T)
    assert searches == ["q=5;e=1", "q=5;e=1"]
    assert list(tmp_path.glob("zeros-*.txt")) == [path]
    assert path.read_bytes() == raw
    assert zs3.certified
    assert _view({0: zs3}) == _view({0: mirror_zero_set(zs1, "q=5;e=3")})


def test_later_member_is_the_mirror_of_the_earlier(searches):
    # requested first on an empty cache, the later member of a complex
    # pair is served as the earlier member's search mirrored, bit for bit
    earlier = []
    for q in range(3, 14):
        for chi in build_group(q):
            conj = conjugate(chi)
            if chi.conductor != q or chi.exponents <= conj.exponents:
                continue  # real, imprimitive, or the earlier member
            earlier.append(conj.label)
            zs = load_or_build_zeros(chi.label, T)
            assert _view({0: zs}) == _view({0: mirror_zero_set(find_zeros(conj, T),
                                                               chi.label)})
    assert searches == earlier and len(earlier) == 14


def test_outputs_do_not_depend_on_the_cache_history(tmp_path, monkeypatch):
    # verify-thm12 mod 5 on an empty cache, and on one whose pair q=5;e=1,
    # q=5;e=3 was first asked for by its later member
    outputs = []
    for seed in ([], ["zeros", "--q", "5", "--char", "q=5;e=3", "--height", "60"]):
        run = tmp_path / str(len(outputs))
        monkeypatch.setenv("GZ_CACHE_DIR", str(run))
        assert not seed or cli.dispatch(seed) == 0
        assert cli.dispatch([
            "verify-thm12", "--q", "5", "--a", "1", "--b", "2", "--xmax", "100000",
            "--height", "60", "--out", str(run / "v.csv"), "--json", str(run / "v.json"),
        ]) == 0
        outputs.append([(run / name).read_bytes() for name in ("v.csv", "v.json")])
    assert outputs[0] == outputs[1]


def test_cli_and_library_read_the_same_sets(tmp_path, monkeypatch):
    read = []
    real = analysis.explicit_rows

    def spy(mode, q, classes, xs, exact, zero_sets, height):
        read.append(zero_sets)
        return real(mode, q, classes, xs, exact, zero_sets, height)

    monkeypatch.setattr(analysis, "explicit_rows", spy)
    assert cli.dispatch([
        "verify-thm12", "--q", "7", "--a", "1", "--b", "2", "--xmin", "100",
        "--xmax", "10000", "--grid", "4", "--height", str(T),
        "--out", str(tmp_path / "v.csv"),
    ]) == 0
    assert read and all(sets is read[0] for sets in read)
    assert _view(read[0]) == _view(load_or_build_zero_sets(7, T))


def test_verify_builds_the_group_once(tmp_path, monkeypatch):
    # the zero sets and the weights of the explicit side are read by label,
    # once for the grid: no verify command builds the character list
    from gzeros import characters, explicit

    calls = []
    for module in (characters, explicit, cache, analysis, cli):
        real = getattr(module, "build_group", None)
        if real is not None:
            def counting(q, real=real):
                calls.append(q)
                return real(q)

            monkeypatch.setattr(module, "build_group", counting)
    for command, classes in (("verify-thm12", ["--a", "1", "--b", "2"]),
                             ("verify-thm14", ["--c", "2"])):
        assert cli.dispatch([
            command, "--q", "5", *classes, "--xmin", "100", "--xmax", "10000",
            "--grid", "6", "--height", str(T), "--out", str(tmp_path / "v.csv"),
        ]) == 0
        assert calls == [], command


def test_zeros_command_searches_the_primitive_character(tmp_path, searches,
                                                        capsys):
    # the principal character mod 5 is induced by zeta: one search serves
    # both commands, and the export keeps the requested label
    out = tmp_path / "q5.txt"
    assert cli.dispatch(["zeros", "--q", "5", "--height", str(T),
                         "--export", str(out)]) == 0
    assert cli.dispatch(["zeros", "--q", "1", "--height", str(T)]) == 0
    assert searches == ["q=1;e="]
    assert out.read_text().splitlines()[1] == "# char q=5;e=0"
    assert "q=5;e=0: 2 zeros" in capsys.readouterr().out


def test_evaluator_version_keys_the_zero_cache(monkeypatch):
    path = cache._zeros_path("q=1;e=", T)
    monkeypatch.setattr(cache, "EVALUATOR_VERSION", "old")
    assert cache._zeros_path("q=1;e=", T) != path


def test_induced_and_primitive_labels_share_one_file(tmp_path, searches):
    # the principal character mod 5 is induced by zeta: one search, one file
    zs5 = load_or_build_zeros("q=5;e=0", T)
    zs1 = load_or_build_zeros("q=1;e=", T)
    assert searches == ["q=1;e="]
    assert len(list(tmp_path.glob("zeros-*.txt"))) == 1
    assert zs5.char_label == "q=5;e=0" and zs1.char_label == "q=1;e="
    assert zs5.gamma.tolist() == zs1.gamma.tolist()


def test_checksum_failures_are_searched_again(tmp_path, searches):
    zs = load_or_build_zeros("q=1;e=", T)
    (path,) = tmp_path.glob("zeros-*.txt")
    side = path.with_suffix(".txt.sha256")
    raw = path.read_bytes()
    load_or_build_zeros("q=1;e=", T)
    assert searches == ["q=1;e="]  # a hit
    # a corrupted payload fails its checksum: searched again and rewritten
    # with a fresh sidecar
    path.write_bytes(raw[:-8] + b"\x00" * 8)
    again = load_or_build_zeros("q=1;e=", T)
    assert searches == ["q=1;e="] * 2
    assert again.gamma.tolist() == zs.gamma.tolist()
    assert path.read_bytes() == raw
    assert side.read_text().strip() == _sha256_file(path)
    # a file without its sidecar is not trusted either
    side.unlink()
    load_or_build_zeros("q=1;e=", T)
    assert searches == ["q=1;e="] * 3
    assert side.read_text().strip() == _sha256_file(path)


@pytest.mark.parametrize("tamper", ["move", "delete"])
def test_tampered_files_with_fresh_sidecars_are_searched_again(tmp_path, searches,
                                                               caplog, tamper):
    # the sidecar guards a file's bytes, not its zeros: a set edited and
    # given a fresh sidecar passes its checksum, then fails re-certification
    # (an ordinate moved by 0.01 is no zero of L; a deleted zero leaves the
    # total below the argument count), and is searched again and rewritten
    load_or_build_zeros("q=1;e=", T)
    (path,) = tmp_path.glob("zeros-*.txt")
    raw = path.read_bytes()
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    if tamper == "move":
        beta, gamma, mult = lines[i].split()
        lines[i] = f"{beta} {float(gamma) + 0.01!r} {mult}"
    else:
        del lines[i]
    path.write_text("\n".join(lines) + "\n")
    path.with_suffix(".txt.sha256").write_text(_sha256_file(path) + "\n")
    zs = load_or_build_zeros("q=1;e=", T)
    assert searches == ["q=1;e="] * 2
    assert "recomputing" in caplog.text
    assert zs.certified and zs.count() == 2
    assert path.read_bytes() == raw
