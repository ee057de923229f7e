"""Span arithmetic for the traced pass: self time and per-layer totals.

A span is a dict with ``id``, ``name``, ``start``, ``end`` and ``parent`` (the
id of the span that was open when it started, or None), plus optional
``counts``. Ids are unique within one invocation's span list.
"""

from __future__ import annotations

from collections import defaultdict

# The import of `abstainkit.cli`, timed by the launcher before any wrapper exists.
IMPORT_SPAN = "cli.import"


def self_times(spans) -> dict:
    """Map span id to its duration minus the durations of its child spans.

    Spans are recorded on one thread with a stack, so a span's children run one
    after another inside it.
    """
    children = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]
    return {span["id"]: span["end"] - span["start"] - children[span["id"]] for span in spans}


def layer_totals(invocations) -> dict:
    """Per-layer metrics summed over the span lists of one pass.

    Each function span contributes ``<name>.calls``, ``<name>.self_s`` and
    every counter it carries as ``<name>.<counter>``. The import span becomes
    ``cli.import_s``. The Fumera search's ``feasible_ratio`` is the share of
    grid tuples whose metric call returned a value.
    """
    totals = defaultdict(float)
    for spans in invocations:
        own = self_times(spans)
        for span in spans:
            name = span["name"]
            if name == IMPORT_SPAN:
                totals["cli.import_s"] += span["end"] - span["start"]
                continue
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += own[span["id"]]
            for key, value in span.get("counts", {}).items():
                totals[f"{name}.{key}"] += value
    fumera = "scoring.fumera_threshold_search"
    tuples = totals.pop(f"{fumera}.tuples", 0.0)
    if tuples:
        returned = totals[f"{fumera}.metric_calls"] - totals[f"{fumera}.metric_errors"]
        totals[f"{fumera}.feasible_ratio"] = returned / tuples
    return dict(totals)
