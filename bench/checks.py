"""Comparison of CLI outputs against the stored reference outputs.

A call matches its reference when its exit status is the same and its
output agrees: the same keys or CSV header in the same order, the counts
``samples`` and ``violations`` (and the other integer fields) and every
boolean exactly, CSV shapes exactly, and every other number within
``ABS_TOL``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

ABS_TOL = 1e-12
EXACT_KEYS = frozenset({"samples", "violations", "n", "d", "d_env", "seed"})
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict[str, dict]:
    """Reference records of a workload: key -> {"exit": int, "out": str}."""
    return json.loads(reference_path(workload).read_text())["records"]


def _close(expected: str, got: str) -> bool:
    if expected == got:
        return True
    try:
        e, g = float(expected), float(got)
    except ValueError:
        return False
    return math.isfinite(e) and math.isfinite(g) and abs(e - g) <= ABS_TOL


def _compare_kv(expected: str, got: str) -> str | None:
    exp_lines, got_lines = expected.splitlines(), got.splitlines()
    if len(exp_lines) != len(got_lines):
        return f"{len(got_lines)} lines, expected {len(exp_lines)}"
    for e_line, g_line in zip(exp_lines, got_lines):
        e_key, _, e_val = e_line.partition(" = ")
        g_key, _, g_val = g_line.partition(" = ")
        if e_key != g_key:
            return f"key {g_key!r}, expected {e_key!r}"
        same = e_val == g_val if e_key in EXACT_KEYS else _close(e_val, g_val)
        if not same:
            return f"{e_key} = {g_val}, expected {e_val}"
    return None


def _compare_csv(expected: str, got: str) -> str | None:
    exp_rows, got_rows = expected.splitlines(), got.splitlines()
    if not got_rows or got_rows[0] != exp_rows[0]:
        return f"CSV header {got_rows[:1]}, expected {exp_rows[:1]}"
    if len(got_rows) != len(exp_rows):
        return f"{len(got_rows) - 1} CSV rows, expected {len(exp_rows) - 1}"
    for i, (e_row, g_row) in enumerate(zip(exp_rows[1:], got_rows[1:]), start=1):
        e_vals, g_vals = e_row.split(","), g_row.split(",")
        if len(e_vals) != len(g_vals):
            return f"CSV row {i} has {len(g_vals)} columns, expected {len(e_vals)}"
        for e, g in zip(e_vals, g_vals):
            if not _close(e, g):
                return f"CSV row {i}: {g}, expected {e}"
    return None


def mismatch(reference: dict, exit_code: int | None, out: str) -> str | None:
    """Why an output differs from its reference record, or None if it matches."""
    if exit_code != reference["exit"]:
        return f"exit status {exit_code}, expected {reference['exit']}"
    expected = reference["out"]
    if " = " not in expected.partition("\n")[0]:
        return _compare_csv(expected, out)
    return _compare_kv(expected, out)
