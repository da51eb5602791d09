"""Baseline gating for fluxlint/fluxflow findings.

A baseline file records *accepted* pre-existing findings so CI can fail on
new findings only.  Matching is resilient to line-number drift: a finding
matches a baseline entry when ``(rule, path, message-with-numbers-
normalized)`` agree; matching is multiset-aware, so two identical findings
need two baseline entries.

File format (checked in as ``statcheck-baseline.json``)::

    {
      "version": 1,
      "findings": [
        {"rule": "SPAN001", "path": "src/x.py", "message": "..."}
      ]
    }

Workflow: run with ``--baseline statcheck-baseline.json`` to gate; run with
``--update-baseline`` to accept the current findings wholesale (review the
diff!).  Stale entries — baseline entries that no longer match anything —
are reported on stderr so the file shrinks over time instead of rotting.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from typing import List, Sequence, Tuple

from ...errors import FluxionError
from ..core import Violation

__all__ = [
    "BASELINE_VERSION",
    "load_baseline",
    "save_baseline",
    "apply_baseline",
    "baseline_key",
]

BASELINE_VERSION = 1

_NUMBERS = re.compile(r"\d+")


def baseline_key(rule: str, path: str, message: str) -> Tuple[str, str, str]:
    """Match key for one finding; line/col and embedded numbers are
    normalized away so pure line drift does not invalidate the baseline."""
    return (rule, path, _NUMBERS.sub("N", message))


def load_baseline(path: str) -> "Counter[Tuple[str, str, str]]":
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise FluxionError(f"cannot read baseline {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise FluxionError(f"baseline {path} is not valid JSON: {exc}")
    if not isinstance(document, dict) or "findings" not in document:
        raise FluxionError(
            f"baseline {path} malformed: expected an object with 'findings'"
        )
    version = document.get("version")
    if version != BASELINE_VERSION:
        raise FluxionError(
            f"baseline {path} has unsupported version {version!r} "
            f"(expected {BASELINE_VERSION})"
        )
    keys: "Counter[Tuple[str, str, str]]" = Counter()
    for entry in document["findings"]:
        if not isinstance(entry, dict) or not all(
            isinstance(entry.get(k), str) for k in ("rule", "path", "message")
        ):
            raise FluxionError(
                f"baseline {path} malformed: each finding needs string "
                "'rule', 'path', and 'message' fields"
            )
        keys[baseline_key(entry["rule"], entry["path"], entry["message"])] += 1
    return keys


def save_baseline(path: str, violations: Sequence[Violation]) -> None:
    document = {
        "version": BASELINE_VERSION,
        "findings": [
            {"rule": v.rule, "path": v.path, "message": v.message}
            for v in sorted(violations)
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def apply_baseline(
    violations: Sequence[Violation],
    baseline: "Counter[Tuple[str, str, str]]",
) -> Tuple[List[Violation], int]:
    """Split findings against the baseline.

    Returns ``(new_violations, stale_entry_count)`` where stale entries are
    baseline entries that matched nothing this run.
    """
    remaining = Counter(baseline)
    fresh: List[Violation] = []
    for violation in sorted(violations):
        key = baseline_key(violation.rule, violation.path, violation.message)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
        else:
            fresh.append(violation)
    stale = sum(count for count in remaining.values() if count > 0)
    return fresh, stale
