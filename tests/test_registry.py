import json
from pathlib import Path

import pytest

from multipar import registry
from multipar.registry import LanguageRegistry, LanguageSpec, RegistryError, ec30

# the bundled table that ec30 filters, read as a --registry file
EC40_JSON = Path(registry.__file__).parent / "data" / "ec40.json"


def test_ec40_size_and_pivot():
    reg = LanguageRegistry.load(EC40_JSON)
    assert len(reg.codes) == 41  # 40 languages plus the English pivot
    assert reg.english_code == "en"
    assert "en" in reg


def test_ec30_drops_extra_low_tier():
    reg = ec30()
    assert len(reg.codes) == 31  # 30 languages plus the English pivot
    assert all(reg.tier_of(c) != "ExtraLow" for c in reg.codes)
    assert "oc" in reg and "no" not in reg


def test_ec30_tier_sizes():
    reg = ec30()
    non_english = [c for c in reg.codes if c != "en"]
    by_tier = {}
    for code in non_english:
        by_tier.setdefault(reg.tier_of(code), []).append(code)
    assert {tier: len(codes) for tier, codes in by_tier.items()} == {
        "High": 10,
        "Medium": 10,
        "Low": 10,
    }


def test_ec30_family_sizes():
    reg = ec30()
    for family in ("Germanic", "Romance", "Slavic", "Indo-Aryan", "Afro-Asiatic"):
        members = set(reg.members_of_family(family)) - {reg.english_code}
        assert len(members) == 6, family
    # English counts as Germanic
    assert len(reg.members_of_family("Germanic")) == 7


def test_spot_check_entries():
    reg = LanguageRegistry.load(EC40_JSON)
    assert reg.tier_of("de") == "High"
    assert reg.tier_of("mt") == "Medium"
    assert reg.tier_of("oc") == "Low"
    assert reg.tier_of("kab") == "ExtraLow"
    assert reg["bn"].family == "Indo-Aryan"
    assert reg["am"].family == "Afro-Asiatic"


def test_unknown_code_raises():
    with pytest.raises(RegistryError):
        ec30().tier_of("zz")
    with pytest.raises(RegistryError):
        ec30().members_of_family("Klingon")


def test_duplicate_codes_rejected():
    spec = LanguageSpec("en", "Germanic", "High", "Latin")
    with pytest.raises(RegistryError):
        LanguageRegistry([spec, spec])


def test_english_must_be_present():
    spec = LanguageSpec("de", "Germanic", "High", "Latin")
    with pytest.raises(RegistryError):
        LanguageRegistry([spec], english_code="en")


def test_bad_tier_rejected():
    with pytest.raises(RegistryError):
        LanguageSpec("xx", "Isolate", "Gigantic", "Latin")


def test_save_load_round_trip(tmp_path):
    reg = ec30()
    path = tmp_path / "registry.json"
    data = {"english_code": reg.english_code, "languages": [vars(s) for s in reg.entries]}
    path.write_text(json.dumps(data), encoding="utf-8")
    loaded = LanguageRegistry.load(path)
    assert loaded.codes == reg.codes
    assert loaded.english_code == reg.english_code
    assert all(loaded[c] == reg[c] for c in reg.codes)
