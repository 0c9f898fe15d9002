"""The INI schema is derived from the config dataclasses: its key set and
order are pinned here, and so are the two documents that spell them out."""
from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from sketchdfl.config import _build_schema, emit_config, parse_config, parse_config_text
from sketchdfl.engine import SimConfig

ROOT = Path(__file__).resolve().parent.parent

# every key emit_config writes, in the order it writes them
PINNED = [
    ("task", "kind features classes hidden samples_per_client test_samples "
             "concentration dim separation noise"),
    ("topology", "kind p degree"),
    ("aggregator", "kind gamma kappa alpha krum_f sketch_size sketch_seed rel_tol"),
    ("attack", "kind sigma lam consistent_sketch"),
    ("run", "nodes byz_fraction rounds local_epochs lr batch_size threads "
            "verification per_client_eval"),
    ("seeds", "data topology byzantine training attack sketch"),
]


def section_keys(text: str) -> list[tuple[str, str]]:
    """(section, space-joined keys in file order) for each section."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    parser.read_string(text)
    return [(section, " ".join(parser[section])) for section in parser.sections()]


def reference_ini(markdown: str) -> str:
    """The one ```ini block that starts at [task] and holds all six sections;
    other ini examples beside it may show a few keys."""
    (block,) = [
        block for block in re.findall(r"```ini\n(.*?)```", markdown, re.S)
        if block.startswith("[task]\n")
        and {s for s, _ in PINNED} <= set(re.findall(r"^\[(\w+)\]", block, re.M))
    ]
    return block


def readme_ini() -> str:
    return reference_ini((ROOT / "README.md").read_text())


def test_reference_block_is_found_among_other_ini_examples():
    full = emit_config(SimConfig())
    partial = "[task]\nkind = quadratic\n\n[run]\nnodes = 5\n"
    markdown = "".join(f"```ini\n{block}```\n" for block in (partial, full, "[run]\nrounds = 2\n"))
    assert reference_ini(markdown) == full


def test_emitted_keys_are_pinned():
    keys = section_keys(emit_config(SimConfig()))
    assert keys == PINNED
    assert sum(len(k.split()) for _, k in keys) == 40


@pytest.mark.parametrize("name", ["README.md", "configs/default.ini"])
def test_reference_documents_list_every_key_in_emitted_order(name):
    text = readme_ini() if name == "README.md" else (ROOT / name).read_text()
    assert parse_config_text(text) == SimConfig()
    assert section_keys(text) == section_keys(emit_config(SimConfig()))


@dataclass(frozen=True)
class ListField:
    sizes: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class ComplexField:
    ratio: complex = 0j


@dataclass(frozen=True)
class NestedComplexField:
    inner: ComplexField = field(default_factory=ComplexField)
    n_nodes: int = 2


@pytest.mark.parametrize("cls, name", [(ListField, "sizes"), (NestedComplexField, "ratio")])
def test_schema_refuses_a_field_no_converter_reads(cls, name):
    with pytest.raises(TypeError, match=f"config field '{name}': no INI converter"):
        _build_schema(cls)

