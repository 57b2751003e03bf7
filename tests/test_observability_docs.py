"""docs/OBSERVABILITY.md must stay in sync with the source catalogs.

Like the STATIC_CHECKS sync test, but the catalog is the source
itself: every histogram / trace-span name in ``src/repro`` must be
documented, and every documented name must still exist in the source
— so the doc tables can neither rot nor invent.

The names come from the calls that record them: ``phase(name, tracer,
metrics)`` opens the span ``name`` when a tracer argument is passed and
records the ``<name>_seconds`` histogram when a metrics argument is;
``observe_histogram(name, ...)`` records ``name``.  An f-string name
reads with each placeholder as ``<field>`` (``f"artifact.{artifact}"``
is ``artifact.<artifact>``).  The observability package itself only
defines these calls, so it is not scanned.
"""

import ast
import pathlib
import re

DOC = pathlib.Path(__file__).parent.parent / "docs" / "OBSERVABILITY.md"
SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"
PRIMITIVES = SRC / "observability"


def _callee(node):
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _name(node):
    """A string literal or f-string as a catalog name (else None)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts = []
        for value in node.values:
            if isinstance(value, ast.Constant):
                parts.append(value.value)
            else:
                field = ast.unparse(value.value).rsplit(".", 1)[-1]
                parts.append(f"<{field}>")
        return "".join(parts)
    return None


def _argument(node, position, keyword):
    """The argument passed at ``position`` or as ``keyword``, unless it
    is absent or a literal ``None``."""
    found = node.args[position] if len(node.args) > position else None
    for item in node.keywords:
        if item.arg == keyword:
            found = item.value
    if isinstance(found, ast.Constant) and found.value is None:
        return None
    return found


def source_names():
    histograms, spans = set(), set()
    for path in SRC.rglob("*.py"):
        if PRIMITIVES in path.parents:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            callee, name = _callee(node), _name(node.args[0])
            if name is None:
                continue
            if callee == "observe_histogram":
                histograms.add(name)
            elif callee == "phase":
                if _argument(node, 1, "tracer") is not None:
                    spans.add(name)
                if _argument(node, 2, "metrics") is not None:
                    histograms.add(f"{name}_seconds")
    return histograms, spans


def documented_table(section):
    """First-column `code` names of the table under ``### <section>``."""
    text = DOC.read_text()
    match = re.search(
        rf"^### {section}$(.*?)(?=^#{{2,3}} |\Z)",
        text,
        re.MULTILINE | re.DOTALL,
    )
    assert match, f"docs/OBSERVABILITY.md lost its '### {section}' table"
    return set(re.findall(r"^\| `([^`]+)` \|", match.group(1), re.MULTILINE))


def test_every_histogram_is_documented_exactly():
    histograms, _spans = source_names()
    assert histograms, "histogram scan found nothing — scanner rotted?"
    assert documented_table("Histograms") == histograms


def test_every_span_is_documented_exactly():
    _histograms, spans = source_names()
    assert spans, "span scan found nothing — scanner rotted?"
    assert documented_table("Spans") == spans
