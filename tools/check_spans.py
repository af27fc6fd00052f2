#!/usr/bin/env python3
"""Fail when docs/OBSERVABILITY.md's span taxonomy drifts from the code.

    python3 tools/check_spans.py [--doc docs/OBSERVABILITY.md] [--src src]

Reads the "Span taxonomy" table (columns: Category | Spans | Meaning; a
row with an empty category continues the one above it) and every span
literal under the source tree: the first two string arguments of
`DEFA_TRACE_SPAN("name", "cat")`, `DEFA_TRACE_SPAN_ARG(...)`,
`DEFA_TRACE_INSTANT(...)`, `obs::record_span(...)` and
`obs::record_instant(...)`. It fails when

  * a span the table names has no such literal in its category, or
  * a `kernel`-category literal is missing from the table.

Exits nonzero listing every mismatch. Stdlib only.
"""

import argparse
import re
import sys
from pathlib import Path

SITE_RE = re.compile(
    r"\b(?:DEFA_TRACE_SPAN(?:_ARG)?|DEFA_TRACE_INSTANT|record_span|record_instant)"
    r"\(\s*\"([^\"]+)\"\s*,\s*\"([^\"]+)\""
)
CODE_RE = re.compile(r"`([^`]+)`")
SOURCE_SUFFIXES = {".cpp", ".h"}
# Categories whose every literal must appear in the table.
DOCUMENTED_CATEGORIES = {"kernel"}


def table_spans(doc: Path) -> dict:
    """{category: {span, ...}} from the Span taxonomy table."""
    text = doc.read_text(encoding="utf-8")
    start = text.find("## Span taxonomy")
    if start < 0:
        raise SystemExit(f"{doc}: no '## Span taxonomy' section")
    spans = {}
    category = None
    in_table = False
    for line in text[start:].splitlines()[1:]:
        if line.startswith("## "):
            break
        if not line.startswith("|"):
            if in_table:
                break
            continue
        in_table = True
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) < 2 or set(cells[0]) <= {"-", ":"} or cells[0] == "Category":
            continue
        names = CODE_RE.findall(cells[0])
        if names:
            category = names[0]
        if category is None:
            raise SystemExit(f"{doc}: table row without a category: {line}")
        spans.setdefault(category, set()).update(CODE_RE.findall(cells[1]))
    if not spans:
        raise SystemExit(f"{doc}: the Span taxonomy table is empty")
    return spans


def source_spans(src: Path) -> dict:
    """{category: {span: [file:line, ...]}} from the span literals."""
    spans = {}
    for path in sorted(src.rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
            continue
        text = path.read_text(encoding="utf-8")
        for m in SITE_RE.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            spans.setdefault(m.group(2), {}).setdefault(m.group(1), []).append(
                f"{path}:{line}")
    return spans


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--doc", type=Path, default=Path("docs/OBSERVABILITY.md"))
    ap.add_argument("--src", type=Path, default=Path("src"))
    args = ap.parse_args()

    documented = table_spans(args.doc)
    in_code = source_spans(args.src)
    errors = []
    for category, names in sorted(documented.items()):
        for name in sorted(names):
            if name not in in_code.get(category, {}):
                errors.append(f"table names `{name}` ({category}) but no span literal "
                              f"under {args.src}/ records it")
    for category in sorted(DOCUMENTED_CATEGORIES):
        for name, sites in sorted(in_code.get(category, {}).items()):
            if name not in documented.get(category, set()):
                errors.append(f"{sites[0]}: span `{name}` ({category}) is missing from "
                              f"the table in {args.doc}")
    for e in errors:
        print(f"check_spans: {e}", file=sys.stderr)
    if errors:
        return 1
    total = sum(len(v) for v in documented.values())
    print(f"ok: {total} documented spans in {len(documented)} categories match {args.src}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
