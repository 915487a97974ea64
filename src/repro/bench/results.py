"""Benchmark result capture: every bench writes its table under results/.

``save_result`` keeps the human-readable ``.txt`` tables;
``save_json`` writes the machine-comparable sibling — benchmarks call
``save_rows`` to emit both from one rows structure.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

#: Default output directory (override with the REPRO_RESULTS env var).
RESULTS_DIR = Path(os.environ.get("REPRO_RESULTS", Path(__file__).resolve().parents[3] / "results"))


def save_result(name: str, text: str) -> Path:
    """Write *text* to ``results/<name>.txt`` and return the path."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path


def save_json(name: str, obj) -> Path:
    """Write *obj* as ``results/<name>.json`` and return the path.

    The object must be JSON-ready; documents are written sorted and
    indented so diffs stay reviewable.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path


def save_rows(name: str, title: str, col_names, rows, *, meta=None) -> tuple[Path, Path]:
    """Emit one benchmark table as both ``.txt`` and ``.json``.

    *rows* is the ``(label, values...)`` list ``format_table`` takes;
    the JSON sibling stores the same rows structurally
    (``{"title", "columns", "rows": [{"label", "values"}], "meta"}``)
    so other tooling can consume it without re-parsing the text.
    """
    from .tables import format_table

    txt_path = save_result(name, format_table(title, col_names, rows))
    doc = {
        "title": title,
        "columns": [str(c) for c in col_names],
        "rows": [
            {"label": str(r[0]), "values": list(r[1:])} for r in rows
        ],
        "meta": dict(meta) if meta else {},
    }
    json_path = save_json(name, doc)
    return txt_path, json_path
