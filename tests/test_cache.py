"""The zero-set provider: one cache, conjugate pairs mirrored, one label
per character, checksummed files, and the CLI reading exactly what the
library reads."""

import numpy as np
import pytest

from gzeros import analysis, cache, cli
from gzeros.cache import _sha256_file, load_or_build_zero_sets, load_or_build_zeros
from gzeros.characters import build_group, conjugate
from gzeros.lfunc import find_zeros

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


def test_conjugate_pairs_cost_one_search(searches):
    sets = load_or_build_zero_sets(7, T)
    # zeta, the quadratic character and one of each conjugate pair
    # (orders 3 and 6); the other two sets are mirrored
    assert len(searches) == 4
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
    load_or_build_zeros("q=5;e=1", T)
    (path,) = tmp_path.glob("zeros-*.txt")
    path.write_text(path.read_text().replace("0.5 ", "0.25 ", 1))
    zs = load_or_build_zeros("q=5;e=3", T)
    assert searches == ["q=5;e=1", "q=5;e=3"]
    assert zs.certified


def test_cli_and_library_read_the_same_sets(tmp_path, monkeypatch):
    read = []
    real = analysis.thm12_rhs

    def spy(x, q, a, b, zero_sets, height, **kwargs):
        read.append(zero_sets)
        return real(x, q, a, b, zero_sets, height, **kwargs)

    monkeypatch.setattr(analysis, "thm12_rhs", spy)
    assert cli.dispatch([
        "verify-thm12", "--q", "7", "--a", "1", "--b", "2", "--xmin", "100",
        "--xmax", "10000", "--grid", "4", "--height", str(T),
        "--out", str(tmp_path / "v.csv"),
    ]) == 0
    assert read and all(sets is read[0] for sets in read)
    assert _view(read[0]) == _view(load_or_build_zero_sets(7, T))


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
