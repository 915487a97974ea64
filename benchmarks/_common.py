"""Shared helpers for the per-table/per-figure benchmark modules.

Scale control: set ``REPRO_SCALE`` to tiny / small / medium / paper
(default ``tiny`` so the whole bench suite runs in minutes; use ``small``
or ``medium`` to approach paper-scale statistics — see EXPERIMENTS.md).

Per-stage breakdowns: set ``REPRO_STAGE_JSON`` to a directory and call
:func:`dump_stage_breakdown` from a benchmark to write a traced
per-stage JSON document next to the table rows (repro.observe spans).
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

from repro.baselines import SZBaselineCodec, ZFPBaselineCodec
from repro.codec import Codec, CodecConfig, SZxCodec
from repro.datasets import APPLICATION_NAMES, get_application

SCALE = os.environ.get("REPRO_SCALE", "tiny")

#: The three REL bounds of Tables 3-7.
REL_BOUNDS = (1e-2, 1e-3, 1e-4)

#: Cap on fields per application for the heavier sweeps.
MAX_FIELDS = int(os.environ.get("REPRO_MAX_FIELDS", "4"))


@lru_cache(maxsize=None)
def app_fields(app_name: str, limit: int | None = None):
    """Cached ``[(field_name, data), ...]`` for one application."""
    app = get_application(app_name, SCALE)
    fields = list(app.fields())
    if limit is not None:
        fields = fields[:limit]
    return fields


def all_apps():
    return APPLICATION_NAMES


#: One factory per compressor; every factory yields a `repro.codec.Codec`
#: configured for a REL bound, so benchmarks iterate them uniformly
#: (no per-baseline branches).
CODEC_FACTORIES = {
    "SZx": lambda rel: SZxCodec(CodecConfig(err_bound=rel, mode="rel")),
    "SZ": lambda rel: SZBaselineCodec(rel, mode="rel"),
    "ZFP": lambda rel: ZFPBaselineCodec(rel, bound_mode="rel"),
}


@lru_cache(maxsize=None)
def codec_for(name: str, rel: float) -> Codec:
    """A protocol-conformant codec instance for *name* at REL bound."""
    return CODEC_FACTORIES[name](rel)


#: Uniform (compress, decompress) interface per compressor, REL mode —
#: built from the one codec registry above.
COMPRESSORS = {
    name: (
        lambda d, rel, _n=name: codec_for(_n, rel).compress(d),
        lambda stream, _n=name: codec_for(_n, 1e-3).decompress(stream),
    )
    for name in CODEC_FACTORIES
}


def dump_stage_breakdown(table_name: str, fn, *args, meta=None, **kwargs):
    """Run *fn* traced and write a per-stage JSON if REPRO_STAGE_JSON set.

    Returns *fn*'s result either way, so benchmarks can call this in
    place of a direct call.
    """
    out_dir = os.environ.get("REPRO_STAGE_JSON")
    if not out_dir:
        return fn(*args, **kwargs)
    from repro.bench import stage_breakdown, write_stage_json

    result, spans = stage_breakdown(fn, *args, **kwargs)
    doc_meta = {"table": table_name, "scale": SCALE}
    if meta:
        doc_meta.update(meta)
    write_stage_json(
        os.path.join(out_dir, f"{table_name}.stages.json"), spans, meta=doc_meta
    )
    return result


def cr(data: np.ndarray, stream: bytes) -> float:
    return data.nbytes / len(stream)


def save_cells(name: str, table: dict, text: str, *, meta=None, extra=None):
    """Persist one benchmark table as ``.txt`` plus a ``.json`` row dump.

    *table* is the ``{(codec, rel, app): value}`` dict every table
    benchmark builds; the JSON sibling flattens it into
    ``[{"codec", "rel", "app", "value"}, ...]`` cells (tuples become
    lists) so other tooling can consume the run without re-parsing the
    aligned text.
    """
    from repro.bench import save_json, save_result

    save_result(name, text)
    cells = [
        {
            "codec": codec,
            "rel": rel,
            "app": app,
            "value": list(value) if isinstance(value, tuple) else value,
        }
        for (codec, rel, app), value in sorted(
            table.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])
        )
    ]
    doc = {"table": name, "scale": SCALE, "meta": dict(meta) if meta else {},
           "cells": cells}
    if extra:
        doc["extra"] = extra
    return save_json(name, doc)
