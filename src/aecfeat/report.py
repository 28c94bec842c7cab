"""Evaluation reports and fixed-width text tables (conditions as columns,
methods as rows, trailing unweighted average column)."""

import json
from dataclasses import dataclass, fields
from typing import Dict, List

import numpy as np

from .errors import AecError, read_json


@dataclass
class EvalReport:
    conditions: List[str]
    classes: List[str]
    # condition -> classes x classes segment counts, true class on rows
    confusion: Dict[str, list]
    config_fingerprint: str = ""
    variant: str = ""

    def class_counts(self, condition):
        """class -> [n_correct, n_segments] for one condition: the diagonal
        and the row sums of its confusion matrix."""
        rows = self.confusion[condition]
        return {cls: [rows[i][i], sum(rows[i])]
                for i, cls in enumerate(self.classes)}

    def condition_accuracy(self, condition, macro=False):
        """Segment accuracy [%] for one condition; micro (segment-weighted)
        by default, macro averages the per-class accuracies."""
        stats = self.class_counts(condition)
        if macro:
            accs = [100.0 * c / n for c, n in stats.values() if n > 0]
            return float(np.mean(accs)) if accs else 0.0
        correct = sum(c for c, _ in stats.values())
        total = sum(n for _, n in stats.values())
        return 100.0 * correct / total if total else 0.0

    def grand_average(self, macro=False):
        """Unweighted mean accuracy over conditions."""
        return float(np.mean([self.condition_accuracy(c, macro)
                              for c in self.conditions]))

    def to_dict(self):
        return {
            "conditions": self.conditions,
            "classes": self.classes,
            "per_condition_class": {c: self.class_counts(c)
                                    for c in self.conditions},
            "confusion": self.confusion,
            "config_fingerprint": self.config_fingerprint,
            "variant": self.variant,
            "condition_accuracy": {c: self.condition_accuracy(c)
                                   for c in self.conditions},
            "condition_accuracy_macro": {c: self.condition_accuracy(c, macro=True)
                                         for c in self.conditions},
            "grand_average": self.grand_average(),
            "grand_average_macro": self.grand_average(macro=True),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, path):
        """The report that `to_json` wrote to the file at `path`. A file
        that is not a JSON object, lacks a field, lists no condition, or
        whose `confusion` is not one classes x classes matrix of counts per
        listed condition raises an AecError naming the file."""
        d = read_json(path)
        if not isinstance(d, dict):
            raise AecError(f"{path} holds a JSON {type(d).__name__}, not a "
                           f"report object")
        missing = [x.name for x in fields(cls) if x.name not in d]
        if missing:
            raise AecError(f"{path} has no {', '.join(missing)}")
        report = cls(**{x.name: d[x.name] for x in fields(cls)})
        if not report.conditions or not all(
                isinstance(v, list) and all(isinstance(name, str) for name in v)
                for v in (report.conditions, report.classes)):
            raise AecError(f"{path}: conditions and classes must be lists "
                           f"of names, with at least one condition")
        n = len(report.classes)
        confusion = report.confusion if isinstance(report.confusion, dict) else {}
        bad = [c for c in report.conditions
               if not _is_counts(confusion.get(c), n)]
        if bad:
            raise AecError(f"{path}: confusion needs one {n} x {n} matrix of "
                           f"counts per condition; {', '.join(bad)} has none")
        return report


def _is_counts(rows, n):
    """Whether `rows` is an n x n list of lists of int counts."""
    return (isinstance(rows, list) and len(rows) == n
            and all(isinstance(r, list) and len(r) == n
                    and all(type(v) is int for v in r) for r in rows))


def render_table(rows, conditions, title=""):
    """Fixed-width accuracy table with a trailing unweighted average.

    rows: mapping of row name -> list of per-condition accuracies [%].
    """
    if not rows:
        raise AecError("no rows to render")
    name_w = max(len(n) for n in list(rows) + ["method"]) + 2
    col_w = max([len(c) for c in conditions] + [7]) + 2
    lines = []
    if title:
        lines.append(title)
    header = "method".ljust(name_w)
    header += "".join(c.rjust(col_w) for c in conditions)
    header += "average".rjust(col_w)
    lines.append(header)
    lines.append("-" * len(header))
    for name, values in rows.items():
        if len(values) != len(conditions):
            raise AecError(f"row {name!r} has {len(values)} values for "
                           f"{len(conditions)} conditions")
        avg = float(np.mean(values))
        line = name.ljust(name_w)
        line += "".join(f"{v:.1f}".rjust(col_w) for v in values)
        line += f"{avg:.1f}".rjust(col_w)
        lines.append(line)
    return "\n".join(lines)


def render_report(report):
    """Render an EvalReport as an accuracy table: per-condition columns with
    a trailing average."""
    if not report.conditions:
        raise AecError("report has no conditions")
    rows = {report.variant or "result":
            [report.condition_accuracy(c) for c in report.conditions]}
    return render_table(rows, report.conditions,
                        title="Average classification rate [%] per condition")
