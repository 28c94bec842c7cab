"""Evaluation reports and fixed-width text tables (conditions as columns,
methods as rows, trailing unweighted average column)."""

import json
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .errors import EmptyReport


@dataclass
class EvalReport:
    conditions: List[str]
    classes: List[str]
    # condition -> class -> (n_correct, n_segments)
    per_condition_class: Dict[str, Dict[str, List[int]]]
    # condition -> classes x classes counts, true class on rows
    confusion: Dict[str, list]
    config_fingerprint: str = ""
    variant: str = ""

    def condition_accuracy(self, condition, macro=False):
        """Segment accuracy [%] for one condition; micro (segment-weighted)
        by default, macro averages the per-class accuracies."""
        stats = self.per_condition_class[condition]
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
            "per_condition_class": self.per_condition_class,
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


def render_table(rows, conditions, title=""):
    """Fixed-width accuracy table with a trailing unweighted average.

    rows: mapping of row name -> list of per-condition accuracies [%].
    """
    if not rows:
        raise EmptyReport("no rows to render")
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
            raise EmptyReport(f"row {name!r} has {len(values)} values for "
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
        raise EmptyReport("report has no conditions")
    rows = {report.variant or "result":
            [report.condition_accuracy(c) for c in report.conditions]}
    return render_table(rows, report.conditions,
                        title="Average classification rate [%] per condition")
