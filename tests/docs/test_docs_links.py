"""Docs-link check: README/docs cross-references must stay valid.

Verifies that every relative markdown link in README.md and docs/*.md
resolves to a real file (anchors are checked against the target's
headings), that every repository path the docs mention in backticks
actually exists, and that every backticked ``pkg.module.Name`` reference
into ``repro`` still imports — so renames can't silently orphan the
documentation.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
DOC_FILES = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]

LINK_RE = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
BACKTICK_PATH_RE = re.compile(
    r"`((?:src|docs|tests|benchmarks|examples|\.github)/[A-Za-z0-9_./-]+)`"
)
# Three or more dotted parts, ``repro.`` optional: ``core.batch.screen_proof``.
# Two-part names are metric and span names (``engine.prove_s``), not symbols.
BACKTICK_SYMBOL_RE = re.compile(r"`([a-z_][a-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*){2,})`")


def _headings(markdown: str) -> set[str]:
    anchors = set()
    for line in markdown.splitlines():
        if line.startswith("#"):
            title = line.lstrip("#").strip().lower()
            anchor = re.sub(r"[^a-z0-9 _-]", "", title).replace(" ", "-")
            anchors.add(anchor)
    return anchors


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_relative_links_resolve(doc: Path):
    text = doc.read_text()
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, anchor = target.partition("#")
        resolved = (doc.parent / path_part).resolve() if path_part else doc
        assert resolved.exists(), f"{doc.name}: broken link -> {target}"
        if anchor and resolved.suffix == ".md":
            assert anchor in _headings(resolved.read_text()), (
                f"{doc.name}: dead anchor -> {target}"
            )


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_mentioned_repo_paths_exist(doc: Path):
    text = doc.read_text()
    for match in BACKTICK_PATH_RE.finditer(text):
        mention = match.group(1).rstrip("/.")
        assert (REPO_ROOT / mention).exists(), (
            f"{doc.name}: mentions nonexistent path `{mention}`"
        )


def _resolve(dotted: str) -> object:
    """Import the longest module prefix of ``dotted``, then ``getattr``
    the rest."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for name in parts[split:]:
            target = getattr(target, name)
        return target
    raise ModuleNotFoundError(dotted)


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_mentioned_symbols_exist(doc: Path):
    import repro

    packages = {module.name for module in pkgutil.iter_modules(repro.__path__)}
    for match in BACKTICK_SYMBOL_RE.finditer(doc.read_text()):
        mention = match.group(1)
        head = mention.partition(".")[0]
        if head != "repro" and head not in packages:
            continue
        dotted = mention if head == "repro" else f"repro.{mention}"
        try:
            _resolve(dotted)
        except (ImportError, AttributeError):
            raise AssertionError(
                f"{doc.name}: mentions nonexistent symbol `{mention}`"
            ) from None


def test_docs_exist():
    for doc in DOC_FILES:
        assert doc.exists()
    # README + ARCHITECTURE + BENCHMARKS + PROTOCOL + SCENARIOS
    assert len(DOC_FILES) >= 5
    names = {doc.name for doc in DOC_FILES}
    assert {"PROTOCOL.md", "SCENARIOS.md"} <= names


def test_protocol_spec_covers_the_verifier_facing_surface():
    """PROTOCOL.md must keep its spec sections and message field tables."""
    text = (REPO_ROOT / "docs" / "PROTOCOL.md").read_text()
    for required_heading in (
        "Challenge derivation",
        "Proof generation",
        "Verification",
        "Dispute and arbitration flow",
        "On-chain message summary",
    ):
        assert required_heading in text, f"PROTOCOL.md lost: {required_heading}"
    # the wire-format tables quote the paper's headline byte sizes
    for anchor_fact in ("288 bytes", "48 bytes", "1 − (1 − ρ)^c"):
        assert anchor_fact in text, f"PROTOCOL.md lost: {anchor_fact}"


def test_scenarios_doc_lists_every_strategy_with_a_command():
    """Each catalogued strategy documents a runnable `python -m repro` line."""
    text = (REPO_ROOT / "docs" / "SCENARIOS.md").read_text()
    for strategy in ("forge", "replay", "selective", "bitrot", "offline"):
        assert f"--strategy {strategy}" in text, (
            f"SCENARIOS.md lost the {strategy} reproduction command"
        )
    assert "--onchain" in text
    assert "1 − (1 − ρ)^c" in text


def test_scenarios_cli_commands_parse():
    """Every `python -m repro ...` invocation in the docs must still parse."""
    from repro.cli import build_parser

    # subcommand names may be hyphenated (e.g. ``da-sample``)
    command_re = re.compile(r"python -m repro ([a-z][a-z-]*(?: [^\n`#]*)?)")
    parser = build_parser()
    checked = 0
    for doc in DOC_FILES:
        for match in command_re.finditer(doc.read_text()):
            argv = match.group(1).split()
            # parse_args exits on unknown flags; catch to name the doc
            try:
                parser.parse_args(argv)
            except SystemExit:
                raise AssertionError(
                    f"{doc.name}: documented command no longer parses: "
                    f"python -m repro {' '.join(argv)}"
                ) from None
            checked += 1
    assert checked >= 6  # README + SCENARIOS carry the canonical commands
