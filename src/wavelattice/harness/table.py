"""Convergence tables: accumulation, observed orders, CSV and gnuplot output.

The observed order between consecutive levels is ``log2(e_{k-1} / e_k)`` of
the supremum errors; it is recomputed from the stored error columns whenever
needed, never stored independently, so the orders written to CSV always follow
from the error columns written next to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["TableRow", "ErrorTable"]

_CSV_HEADER = "level,dx,dt,sup_error,l2_error,observed_order"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass(frozen=True)
class TableRow:
    level: int
    dx: float
    dt: float
    sup_error: float
    l2_error: float


@dataclass
class ErrorTable:
    rows: list = field(default_factory=list)

    def add(self, level: int, dx: float, dt: float, sup_error: float, l2_error: float) -> None:
        self.rows.append(TableRow(level, float(dx), float(dt), float(sup_error), float(l2_error)))

    @property
    def sup_errors(self) -> list:
        return [row.sup_error for row in self.rows]

    @property
    def observed_orders(self) -> list:
        """Orders between consecutive rows; nan for the first row."""
        orders = [math.nan]
        for prev, cur in zip(self.rows, self.rows[1:]):
            if prev.sup_error > 0 and cur.sup_error > 0:
                orders.append(math.log2(prev.sup_error / cur.sup_error))
            else:
                orders.append(math.nan)
        return orders

    def monotone_decreasing(self) -> bool:
        errs = self.sup_errors
        return all(b < a for a, b in zip(errs, errs[1:]))

    def final_order(self) -> float:
        return self.observed_orders[-1]

    def to_csv_text(self) -> str:
        lines = [_CSV_HEADER]
        for row, order in zip(self.rows, self.observed_orders):
            lines.append(
                ",".join(
                    [
                        str(row.level),
                        _fmt(row.dx),
                        _fmt(row.dt),
                        _fmt(row.sup_error),
                        _fmt(row.l2_error),
                        _fmt(order),
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_csv_text())

    def gnuplot_script(self, csv_name: str, title: str = "convergence") -> str:
        """A gnuplot script plotting sup and l2 errors against dx, log-log."""
        return (
            "set logscale xy\n"
            "set datafile separator ','\n"
            f"set title '{title}'\n"
            "set xlabel 'dx'\n"
            "set ylabel 'error'\n"
            "set key left top\n"
            f"plot '{csv_name}' skip 1 using 2:4 with linespoints title 'sup', \\\n"
            f"     '{csv_name}' skip 1 using 2:5 with linespoints title 'l2'\n"
        )

    def write_gnuplot(self, path, csv_name: str, title: str = "convergence") -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.gnuplot_script(csv_name, title))
