"""Language registry: codes, families, resource tiers, and scripts.

A registry pins down the closed set of languages an experiment runs over,
which language is the English pivot, and the grouping metadata (family,
resource tier) that the report layer aggregates by.  The bundled EC30
registry is the EC40 table shipped as package data less its ExtraLow
tier; a registry JSON given by path is read through :mod:`multipar.textio`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable

from .textio import read_json

TIERS = ("High", "Medium", "Low", "ExtraLow")
_SPEC_FIELDS = ("code", "family", "tier", "script")


class RegistryError(ValueError):
    pass


@dataclass(frozen=True)
class LanguageSpec:
    code: str
    family: str
    tier: str
    script: str

    def __post_init__(self):
        if not self.code:
            raise RegistryError("language code must be nonempty")
        if self.tier not in TIERS:
            raise RegistryError(f"unknown tier {self.tier!r} for {self.code!r}")


class LanguageRegistry:
    """Ordered, duplicate-free collection of languages with a designated pivot."""

    def __init__(self, entries: Iterable[LanguageSpec], english_code: str = "en"):
        self.entries: tuple[LanguageSpec, ...] = tuple(entries)
        self.english_code = english_code
        self._by_code = {}
        for spec in self.entries:
            if spec.code in self._by_code:
                raise RegistryError(f"duplicate language code {spec.code!r}")
            self._by_code[spec.code] = spec
        if english_code not in self._by_code:
            raise RegistryError(f"english code {english_code!r} not in registry")

    def __contains__(self, code: str) -> bool:
        return code in self._by_code

    def __getitem__(self, code: str) -> LanguageSpec:
        try:
            return self._by_code[code]
        except KeyError:
            raise RegistryError(f"unknown language code {code!r}") from None

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(spec.code for spec in self.entries)

    @property
    def families(self) -> tuple[str, ...]:
        seen = dict.fromkeys(spec.family for spec in self.entries)
        return tuple(seen)

    def members_of_family(self, family: str) -> tuple[str, ...]:
        if family not in self.families:
            raise RegistryError(f"unknown family {family!r}")
        return tuple(s.code for s in self.entries if s.family == family)

    def tier_of(self, code: str) -> str:
        return self[code].tier

    @classmethod
    def from_dict(cls, data: dict) -> "LanguageRegistry":
        rows, english_code = data.get("languages"), data.get("english_code", "en")
        if type(rows) is not list or type(english_code) is not str:
            raise RegistryError('"languages" must be a list and "english_code" a string')
        entries = []
        for i, row in enumerate(rows):
            if type(row) is not dict or any(type(row.get(f)) is not str for f in _SPEC_FIELDS):
                raise RegistryError(f"language {i} lacks one of the string fields {_SPEC_FIELDS}")
            entries.append(LanguageSpec(*(row[f] for f in _SPEC_FIELDS)))
        return cls(entries, english_code)

    @classmethod
    def load(cls, path: str | Path) -> "LanguageRegistry":
        data = read_json(path, RegistryError)
        try:
            return cls.from_dict(data)
        except RegistryError as exc:
            raise RegistryError(f"{path}: {exc}") from None


def ec30() -> LanguageRegistry:
    """The bundled EC30 registry: the EC40 table in ``data/ec40.json``
    without its ExtraLow tier, 30 languages plus the English pivot."""
    text = resources.files("multipar.data").joinpath("ec40.json").read_text("utf-8")
    full = LanguageRegistry.from_dict(json.loads(text))
    return LanguageRegistry(
        (s for s in full.entries if s.tier != "ExtraLow"), full.english_code
    )
