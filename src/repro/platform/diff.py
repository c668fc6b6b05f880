"""Run comparison: regression/diff reports over two registry runs.

:func:`diff_runs` compares the deterministic metric payloads of two runs
experiment-by-experiment and reports, in decreasing order of severity:

* experiments present in only one run;
* ``ERROR`` rows that appeared or disappeared (a crash regression is a
  first-class diff, not a missing table);
* verdict changes (``REPRODUCED`` ↔ ``CHECK FAILED``);
* individual check flips;
* numeric metric-cell deltas (rows matched by their leading label cell,
  cells compared as numbers when both parse, with an optional relative
  tolerance so noisy metrics can be threshold-gated);
* table shape changes (column sets or row keys differ).

The report's emptiness gates the CLI exit code (``repro compare A B``
exits non-zero on any surviving difference), which is what the
``platform_lifecycle`` chaos campaign uses as a regression gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.tables import Table
from repro.platform.registry import RunRecord

__all__ = ["MetricDelta", "RunDiff", "diff_runs"]


@dataclass(frozen=True)
class MetricDelta:
    """One metric cell that differs between the runs."""

    experiment: str
    row: str
    column: str
    a: str
    b: str
    #: Numeric difference ``b - a`` when both cells parse as numbers.
    delta: float | None = None
    #: ``delta`` relative to ``|a|`` (None for non-numeric or a == 0).
    rel: float | None = None

    def describe(self) -> str:
        detail = ""
        if self.delta is not None:
            detail = f" (delta {self.delta:+g}"
            if self.rel is not None:
                detail += f", {self.rel:+.2%}"
            detail += ")"
        return (
            f"{self.experiment} [{self.row}] {self.column}: "
            f"{self.a} -> {self.b}{detail}"
        )


@dataclass
class RunDiff:
    """Structured difference report between two runs."""

    run_a: str
    run_b: str
    only_in_a: list = field(default_factory=list)
    only_in_b: list = field(default_factory=list)
    #: (experiment, error summary in B) — crashed in B but not in A.
    new_errors: list = field(default_factory=list)
    #: (experiment, error summary in A) — crashed in A, recovered in B.
    resolved_errors: list = field(default_factory=list)
    #: (experiment, verdict in A, verdict in B), ERRORs excluded.
    verdict_changes: list = field(default_factory=list)
    #: (experiment, check name, passed in A, passed in B).
    check_flips: list = field(default_factory=list)
    metric_deltas: list = field(default_factory=list)
    #: (experiment, human description) — incomparable table shapes.
    shape_changes: list = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not (
            self.only_in_a
            or self.only_in_b
            or self.new_errors
            or self.resolved_errors
            or self.verdict_changes
            or self.check_flips
            or self.metric_deltas
            or self.shape_changes
        )

    @property
    def count(self) -> int:
        return (
            len(self.only_in_a)
            + len(self.only_in_b)
            + len(self.new_errors)
            + len(self.resolved_errors)
            + len(self.verdict_changes)
            + len(self.check_flips)
            + len(self.metric_deltas)
            + len(self.shape_changes)
        )

    def format_ascii(self) -> str:
        lines = [f"run diff: {self.run_a} -> {self.run_b}"]
        if self.empty:
            lines.append("  identical: no metric, check, or verdict differences")
            return "\n".join(lines)
        lines.append(f"  {self.count} difference(s)")
        for eid in self.only_in_a:
            lines.append(f"  - only in {self.run_a}: {eid}")
        for eid in self.only_in_b:
            lines.append(f"  - only in {self.run_b}: {eid}")
        for eid, error in self.new_errors:
            lines.append(f"  - NEW ERROR {eid}: {error}")
        for eid, error in self.resolved_errors:
            lines.append(f"  - resolved error {eid} (was: {error})")
        for eid, va, vb in self.verdict_changes:
            lines.append(f"  - verdict {eid}: {va} -> {vb}")
        for eid, check, a, b in self.check_flips:
            word = "now passes" if b else "REGRESSED"
            lines.append(f"  - check {eid} \"{check}\": {word}")
        for delta in self.metric_deltas:
            lines.append(f"  - metric {delta.describe()}")
        for eid, description in self.shape_changes:
            lines.append(f"  - shape {eid}: {description}")
        return "\n".join(lines)

    def format_markdown(self) -> str:
        lines = [
            f"# Run diff — `{self.run_a}` vs `{self.run_b}`",
            "",
        ]
        if self.empty:
            lines.append(
                "**Identical**: no metric, check, or verdict differences."
            )
            return "\n".join(lines)
        lines.append(f"**{self.count} difference(s).**")
        lines.append("")

        def section(title, rows):
            if rows:
                lines.append(f"## {title}")
                lines.append("")
                lines.extend(f"- {row}" for row in rows)
                lines.append("")

        section(
            "Coverage",
            [f"only in `{self.run_a}`: {e}" for e in self.only_in_a]
            + [f"only in `{self.run_b}`: {e}" for e in self.only_in_b],
        )
        section(
            "Errors",
            [f"**new error** {eid}: `{err}`" for eid, err in self.new_errors]
            + [
                f"resolved error {eid} (was `{err}`)"
                for eid, err in self.resolved_errors
            ],
        )
        section(
            "Verdicts",
            [f"{eid}: {va} → {vb}" for eid, va, vb in self.verdict_changes],
        )
        section(
            "Checks",
            [
                f"{eid} “{check}”: "
                + ("now passes" if b else "**regressed**")
                for eid, check, _a, b in self.check_flips
            ],
        )
        if self.metric_deltas:
            lines.append("## Metric deltas")
            lines.append("")
            table = Table(
                f"{len(self.metric_deltas)} changed cell(s)",
                ["experiment", "row", "column", "a", "b", "delta"],
            )
            for d in self.metric_deltas:
                table.add_row(
                    d.experiment,
                    d.row,
                    d.column,
                    d.a,
                    d.b,
                    "n/a" if d.delta is None else f"{d.delta:+g}",
                )
            lines.append(table.format_markdown())
            lines.append("")
        section(
            "Table shapes",
            [f"{eid}: {description}" for eid, description in self.shape_changes],
        )
        return "\n".join(lines).rstrip() + "\n"


def _as_number(cell: str):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _row_index(rows) -> dict:
    """Rows keyed by (leading label cell, occurrence counter), so repeated
    labels — e.g. one row per tau value — still pair up positionally."""
    index: dict = {}
    seen: dict = {}
    for row in rows:
        label = row[0] if row else ""
        occurrence = seen.get(label, 0)
        seen[label] = occurrence + 1
        index[(label, occurrence)] = row
    return index


def _diff_tables(eid: str, table_a: dict, table_b: dict, diff: "RunDiff",
                 rel_tol: float) -> None:
    cols_a = list(table_a.get("columns", []))
    cols_b = list(table_b.get("columns", []))
    if cols_a != cols_b:
        diff.shape_changes.append(
            (eid, f"columns changed: {cols_a} -> {cols_b}")
        )
        return
    rows_a = _row_index(table_a.get("rows", []))
    rows_b = _row_index(table_b.get("rows", []))
    for key in rows_a.keys() - rows_b.keys():
        diff.shape_changes.append((eid, f"row {key[0]!r} disappeared"))
    for key in rows_b.keys() - rows_a.keys():
        diff.shape_changes.append((eid, f"row {key[0]!r} appeared"))
    for key in sorted(rows_a.keys() & rows_b.keys(), key=str):
        row_a, row_b = rows_a[key], rows_b[key]
        for column, cell_a, cell_b in zip(cols_a, row_a, row_b):
            if cell_a == cell_b:
                continue
            num_a, num_b = _as_number(cell_a), _as_number(cell_b)
            delta = rel = None
            if num_a is not None and num_b is not None:
                delta = num_b - num_a
                if num_a != 0:
                    rel = delta / abs(num_a)
                if rel_tol > 0 and (
                    abs(delta) <= rel_tol * max(abs(num_a), abs(num_b))
                ):
                    continue  # within tolerance: not a reportable delta
            diff.metric_deltas.append(
                MetricDelta(
                    experiment=eid,
                    row=str(key[0]),
                    column=column,
                    a=str(cell_a),
                    b=str(cell_b),
                    delta=delta,
                    rel=rel,
                )
            )


def diff_runs(a: RunRecord, b: RunRecord, *, rel_tol: float = 0.0) -> RunDiff:
    """Compare two runs' deterministic payloads.

    ``rel_tol`` suppresses numeric metric deltas whose magnitude is
    within that fraction of the larger operand — the threshold gate for
    CI use; verdicts, checks, errors, and coverage always report.
    """
    if rel_tol < 0:
        raise ValueError(f"rel_tol must be >= 0, got {rel_tol}")
    diff = RunDiff(run_a=a.run_id, run_b=b.run_id)
    ids_a, ids_b = set(a.payloads), set(b.payloads)
    diff.only_in_a = sorted(ids_a - ids_b, key=lambda e: int(e[1:]))
    diff.only_in_b = sorted(ids_b - ids_a, key=lambda e: int(e[1:]))
    for eid in sorted(ids_a & ids_b, key=lambda e: int(e[1:])):
        pa, pb = a.payloads[eid], b.payloads[eid]
        error_a = pa.get("verdict") == "ERROR"
        error_b = pb.get("verdict") == "ERROR"
        if error_b and not error_a:
            diff.new_errors.append((eid, pb.get("error", "")))
            continue
        if error_a and not error_b:
            diff.resolved_errors.append((eid, pa.get("error", "")))
            continue
        if error_a and error_b:
            if pa.get("error") != pb.get("error"):
                diff.metric_deltas.append(
                    MetricDelta(
                        experiment=eid,
                        row="(error)",
                        column="error",
                        a=str(pa.get("error", "")),
                        b=str(pb.get("error", "")),
                    )
                )
            continue
        if pa.get("verdict") != pb.get("verdict"):
            diff.verdict_changes.append(
                (eid, pa.get("verdict"), pb.get("verdict"))
            )
        checks_a = pa.get("checks", {})
        checks_b = pb.get("checks", {})
        for check in sorted(set(checks_a) | set(checks_b)):
            if check not in checks_a or check not in checks_b:
                diff.shape_changes.append(
                    (eid, f"check {check!r} present in only one run")
                )
            elif checks_a[check] != checks_b[check]:
                diff.check_flips.append(
                    (eid, check, checks_a[check], checks_b[check])
                )
        _diff_tables(
            eid, pa.get("table", {}), pb.get("table", {}), diff, rel_tol
        )
    return diff
