"""Config-file parsing and emission.

The file format is sectioned key=value text (INI) mirroring SimConfig, and
its keys are the config dataclasses' own fields: [task], [topology],
[aggregator], [attack] and [seeds] hold the fields of TaskSpec,
TopologySpec, AggregatorSpec, AttackSpec and Seeds, and [run] holds
SimConfig's scalar fields, with n_nodes spelled `nodes` (the one rename).
Each value is read by the converter for its field's annotation. An empty
file is a complete, valid config (all defaults). Unknown sections or keys
are rejected with an error naming the offending path, and emit_config
always writes every key, seeds included, in declaration order, so emitted
configs replay exactly.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import fields as dataclass_fields, is_dataclass
from pathlib import Path
from typing import Callable

from .engine import SimConfig
from .errors import ConfigurationError

_BOOL = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _converter(parse: Callable[[str], object], expected: str) -> Callable[[str, str], object]:
    def convert(raw: str, path: str):
        try:
            return parse(raw.strip())
        except (KeyError, ValueError):
            raise ConfigurationError(f"{path}: expected {expected}, got {raw!r}") from None

    return convert


_number = _converter(float, "a number")


def _finite(raw: str, path: str) -> float:
    # float() also reads nan, inf and -inf, which no config value may take:
    # they would pass every range check that a comparison makes
    value = _number(raw, path)
    if not math.isfinite(value):
        raise ConfigurationError(f"{path}: expected a finite number, got {raw.strip()!r}")
    return value


# one converter per field annotation (a string, under postponed evaluation);
# a config field with any other annotation is refused when the schema is built
_CONVERTERS = {
    "str": lambda raw, path: raw.strip(),
    "int": _converter(int, "an integer"),
    "float": _finite,
    "bool": _converter(lambda s: _BOOL[s.lower()], "a boolean"),
    "int | None": _converter(lambda s: None if s.lower() in ("", "none") else int(s), "an integer"),
}
_RENAMES = {"n_nodes": "nodes"}


def _keys(fields) -> dict[str, tuple[str, Callable]]:
    keys = {}
    for f in fields:
        if f.type not in _CONVERTERS:
            raise TypeError(f"config field {f.name!r}: no INI converter for type {f.type!r}")
        keys[_RENAMES.get(f.name, f.name)] = (f.name, _CONVERTERS[f.type])
    return keys


def _build_schema(cls) -> dict[str, dict[str, tuple[str, Callable]]]:
    """section -> key -> (field name, converter), in declaration order.

    Each field of cls holding a dataclass is a section named after the
    field; cls's own scalar fields form [run], placed where the first of
    them is declared."""
    sections: dict[str, list] = {}
    for f in dataclass_fields(cls):
        if is_dataclass(f.default_factory):
            sections[f.name] = list(dataclass_fields(f.default_factory))
        else:
            sections.setdefault("run", []).append(f)
    return {section: _keys(fields) for section, fields in sections.items()}


_SCHEMA = _build_schema(SimConfig)


def parse_config_text(text: str, origin: str = "<config>") -> SimConfig:
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigurationError(f"{origin}: {exc}") from None
    kwargs_by_section: dict[str, dict] = {name: {} for name in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigurationError(
                f"{origin}: unknown section [{section}] "
                f"(expected one of {sorted(_SCHEMA)})"
            )
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigurationError(
                    f"{origin}: unknown key {section}.{key} "
                    f"(expected one of {sorted(_SCHEMA[section])})"
                )
            field_name, convert = _SCHEMA[section][key]
            value = convert(raw, f"{section}.{key}")
            kwargs_by_section[section][field_name] = value

    def build(section: str, cls, **nested):
        try:
            return cls(**kwargs_by_section[section], **nested)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{origin}: [{section}] {exc}") from None

    nested = {
        f.name: build(f.name, f.default_factory)
        for f in dataclass_fields(SimConfig)
        if is_dataclass(f.default_factory)
    }
    return build("run", SimConfig, **nested)


def parse_config(path: str | Path) -> SimConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, origin=str(path))


def _render(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_config(config: SimConfig) -> str:
    """Full INI text with every key explicit; parse(emit(c)) == c."""
    lines = []
    for section, keys in _SCHEMA.items():
        holder = config if section == "run" else getattr(config, section)
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {_render(getattr(holder, name))}" for key, (name, _) in keys.items())
        lines.append("")
    return "\n".join(lines)
