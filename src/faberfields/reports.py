"""Structured pass/fail reports for the identity check suites.

Checks return cell-by-cell results rather than a bare boolean so the CLI can
print coverage matrices and CI can diff failures.  A cell is keyed by its
index tuple (for example ``k`` and ``p``); the optional detail string names
the first offending coefficient when a cell fails.

Every identity is written once, as a generator of :class:`IdentityPair`
instances; :func:`report_from_pairs` turns such a stream into the exact
report, and the numeric sweep specializes the same pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class CheckCell:
    indices: tuple[tuple[str, int], ...]
    ok: bool
    detail: str = ""

    def to_json_obj(self) -> dict:
        obj: dict = {name: value for name, value in self.indices}
        obj["ok"] = self.ok
        if not self.ok and self.detail:
            obj["detail"] = self.detail
        return obj


@dataclass(frozen=True)
class CheckReport:
    suite: str
    cells: tuple[CheckCell, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.cells)

    @property
    def first_failure(self) -> CheckCell | None:
        for c in self.cells:
            if not c.ok:
                return c
        return None

    def to_json_obj(self) -> dict:
        return {"suite": self.suite,
                "cells": [c.to_json_obj() for c in self.cells]}

    def render_text(self) -> str:
        lines = [f"suite {self.suite}: "
                 f"{'PASS' if self.passed else 'FAIL'} "
                 f"({sum(c.ok for c in self.cells)}/{len(self.cells)} cells)"]
        names = self._grid_axes()
        if names:
            lines.extend(self._render_grid(*names))
        for c in self.cells:
            if not c.ok:
                keys = " ".join(f"{n}={v}" for n, v in c.indices)
                lines.append(f"  FAIL [{keys}] {c.detail}")
        return "\n".join(lines)

    def _grid_axes(self):
        if not self.cells:
            return None
        names = [n for n, _ in self.cells[0].indices]
        if len(names) != 2:
            return None
        if any([n for n, _ in c.indices] != names for c in self.cells):
            return None
        return names

    def _render_grid(self, row_name, col_name):
        rows = sorted({dict(c.indices)[row_name] for c in self.cells})
        cols = sorted({dict(c.indices)[col_name] for c in self.cells})
        status = {(dict(c.indices)[row_name], dict(c.indices)[col_name]):
                  ("ok" if c.ok else "XX") for c in self.cells}
        width = max(2, *(len(str(c)) for c in cols))
        label = f"{row_name}\\{col_name}"
        label_width = max(len(label), *(len(str(r)) for r in rows))
        header = f"  {label:>{label_width}} " + " ".join(f"{c:>{width}}" for c in cols)
        lines = [header]
        for r in rows:
            cells = " ".join(f"{status.get((r, c), '  '):>{width}}" for c in cols)
            lines.append(f"  {str(r):>{label_width}} {cells}")
        return lines


@dataclass(frozen=True)
class IdentityPair:
    """One polynomial identity instance: lhs and rhs computed by separate routes.

    The exact suites assert structural equality; the numeric sweep
    specializes both sides at random coefficient vectors and compares floats.
    """

    suite: str
    indices: tuple[tuple[str, int], ...]
    lhs: object  # CoeffPoly
    rhs: object  # CoeffPoly

    def label(self) -> str:
        keys = " ".join(f"{n}={v}" for n, v in self.indices)
        return f"{self.suite}[{keys}]"


def report_from_pairs(suite: str, pairs: Iterable[IdentityPair],
                      cell_keys: tuple[str, ...]) -> CheckReport:
    """Group pairs into cells by their indices restricted to ``cell_keys``.

    Cells keep the order in which their first pair arrives; a cell passes
    when every one of its pairs has ``lhs == rhs``, and a failing cell names
    its first differing pair.  Pairs are consumed one at a time and not
    kept.  A pair carrying none of the cell keys belongs to no cell, and a
    stream with no pair at all would report an empty pass: both raise.
    """
    verdicts: dict[tuple, str | None] = {}
    for pair in pairs:
        key = tuple((n, v) for n, v in pair.indices if n in cell_keys)
        if not key:
            raise ValueError(f"{pair.label()} carries none of the cell keys "
                             f"{', '.join(cell_keys)}")
        verdicts.setdefault(key, None)
        if verdicts[key] is None and pair.lhs != pair.rhs:
            verdicts[key] = (f"{pair.label()}: {pair.lhs.render()} "
                             f"!= {pair.rhs.render()}")
    if not verdicts:
        raise ValueError(f"suite {suite}: no identity pair, so no cell to check")
    return CheckReport(suite, tuple(CheckCell(key, detail is None, detail or "")
                                    for key, detail in verdicts.items()))


def series_pairs(suite: str, indices: tuple, lhs, rhs, through: int):
    """One pair per power z^m of two Laurent series, from the lower of their
    valuations through z^through; the power joins the indices as ``m``."""
    for m in range(min(lhs.valuation, rhs.valuation), through + 1):
        yield IdentityPair(suite, indices + (("m", m),),
                           lhs.coefficient(m), rhs.coefficient(m))
