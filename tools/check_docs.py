#!/usr/bin/env python3
"""Docs-consistency check: regenerate embedded snippets, fail on drift.

Markdown files under the repo embed two kinds of generated content,
delimited by HTML-comment markers:

- ``<!-- repro-help: ARGS -->`` … ``<!-- /repro-help -->`` — the output
  of ``repro ARGS --help`` (``ARGS`` may be empty for the top-level
  parser, or a subcommand path like ``trace record``), rendered at a
  fixed 80-column width so the text is stable across terminals;
- ``<!-- repro-NAME-schema -->`` … ``<!-- /repro-NAME-schema -->`` —
  one document's field tables, generated from the schema module's
  tables (the single source of truth) that :data:`SCHEMA_BLOCKS` names
  for the marker, e.g. ``repro.obs.schema.RECORD_TYPES`` for the
  ``repro-trace-v1`` block.

Run with no arguments to check (exit 1 on drift, printing what moved);
run with ``--write`` to rewrite the files in place.  CI runs the check
mode, so a CLI or schema change that forgets the docs fails the build.

Usage::

    PYTHONPATH=src python tools/check_docs.py            # check
    PYTHONPATH=src python tools/check_docs.py --write    # regenerate
"""

from __future__ import annotations

import argparse
import importlib
import os
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
DOC_FILES = [
    REPO / "README.md",
    REPO / "docs" / "OBSERVABILITY.md",
    REPO / "docs" / "ARCHITECTURE.md",
    REPO / "docs" / "PERFORMANCE.md",
    REPO / "docs" / "CAMPAIGNS.md",
    REPO / "docs" / "SERVICE.md",
]

_HELP_BLOCK = re.compile(
    r"(<!-- repro-help:(?P<args>[^>]*)-->\n)(?P<body>.*?)(<!-- /repro-help -->)",
    re.DOTALL,
)
_SCHEMA_BLOCK = re.compile(
    r"(<!-- (?P<marker>repro-[a-z-]+-schema) -->\n)(?P<body>.*?)"
    r"(<!-- /(?P=marker) -->)",
    re.DOTALL,
)

#: docs marker -> (schema module, schema version constant, field tables).
SCHEMA_BLOCKS = {
    "repro-trace-schema": ("repro.obs.schema", "SCHEMA", "RECORD_TYPES"),
    "repro-diagnosis-schema": ("repro.diagnose.schema", "SCHEMA", "DOCUMENT"),
    "repro-campaign-schema": (
        "repro.campaign.schema", "SPEC_SCHEMA", "SPEC_SECTIONS",
    ),
    "repro-importance-schema": (
        "repro.campaign.schema", "IMPORTANCE_SCHEMA", "IMPORTANCE_DOCUMENT",
    ),
    "repro-remedy-config-schema": (
        "repro.remedy.schema", "CONFIG_SCHEMA", "CONFIG_DOCUMENT",
    ),
    "repro-remedy-schema": ("repro.remedy.schema", "SCHEMA", "DOCUMENT"),
    "repro-service-schema": (
        "repro.service.schema", "SERVICE_SCHEMA", "DOCUMENT",
    ),
    "repro-profile-schema": ("repro.profiling", "PROFILE_SCHEMA", "DOCUMENT"),
}


def _subparser(parser: argparse.ArgumentParser, path: list[str]):
    """Resolve a subcommand path (e.g. ['trace', 'record']) to its parser."""
    for name in path:
        actions = [
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        if not actions or name not in actions[0].choices:
            raise SystemExit(f"no such subcommand in repro CLI: {path}")
        parser = actions[0].choices[name]
    return parser


def render_help(args_text: str) -> str:
    """``repro <path> --help`` as a fenced code block, 80 columns."""
    os.environ["COLUMNS"] = "80"
    from repro.cli import build_parser

    path = args_text.split()
    parser = _subparser(build_parser(), path)
    help_text = parser.format_help().rstrip("\n")
    return f"```text\n{help_text}\n```\n"


def _table(fields: dict) -> list[str]:
    """One field table as markdown, with a default column if it has one."""
    from repro._fields import type_name

    columns = ["field", "type", "meaning"]
    if len(next(iter(fields.values()))) == 3:
        columns.insert(2, "default")
    lines = ["| " + " | ".join(columns) + " |", "|" + "---|" * len(columns)]
    for name, (types, *default, description) in fields.items():
        cells = [f"`{name}`", f"`{type_name(types)}`"]
        cells += [f"`{value}`" for value in default] + [description]
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def render_schema(marker: str) -> str:
    """One schema block's tables, from the live definitions."""
    module_name, schema, tables = SCHEMA_BLOCKS[marker]
    module = importlib.import_module(module_name)
    lines = [
        f"Schema version: **`{getattr(module, schema)}`** (generated from "
        f"`{module_name}.{tables}` by `tools/check_docs.py`; "
        "edit the schema module, not this section).",
    ]
    if hasattr(module, "COMMON_FIELDS"):  # the trace's per-record fields
        lines += ["", "Common fields, present on every record:", ""]
        lines += _table(module.COMMON_FIELDS)
    for kind, spec in getattr(module, tables).items():
        lines += ["", f"### `{kind}`", "", spec["doc"], ""]
        lines += _table(spec["fields"])
    return "\n".join(lines) + "\n"


def regenerate(text: str) -> str:
    """One file's content with every generated block refreshed."""
    text = _HELP_BLOCK.sub(
        lambda m: m.group(1) + render_help(m.group("args")) + m.group(4), text
    )
    return _SCHEMA_BLOCK.sub(
        lambda m: m.group(1) + render_schema(m.group("marker")) + m.group(4),
        text,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite files instead of checking")
    args = parser.parse_args(argv)

    stale = []
    for path in DOC_FILES:
        if not path.exists():
            print(f"missing doc file: {path}", file=sys.stderr)
            return 1
        current = path.read_text()
        fresh = regenerate(current)
        if fresh != current:
            if args.write:
                path.write_text(fresh)
                print(f"regenerated {path.relative_to(REPO)}")
            else:
                stale.append(path.relative_to(REPO))
    if stale:
        names = ", ".join(str(p) for p in stale)
        print(
            f"stale generated docs in: {names}\n"
            "run: PYTHONPATH=src python tools/check_docs.py --write",
            file=sys.stderr,
        )
        return 1
    if not args.write:
        print("docs are consistent with the CLI and trace schema")
    return 0


if __name__ == "__main__":
    sys.exit(main())
