"""Table I — auditing-feature comparison across DSN frameworks.

Regenerates the qualitative matrix; the timing component measures table
rendering only (the table itself is data, checked by the test suite).
"""

from __future__ import annotations

from baselines import TABLE_I, render_table


def test_table1_feature_matrix(benchmark, report):
    text = benchmark(render_table)
    lines = [
        "Paper Table I, plus this implementation's row (derived from the",
        "properties the test suite demonstrates).",
        "",
        text,
        "",
        f"{len(TABLE_I)} frameworks compared.",
    ]
    report("table1_features", "\n".join(lines))
    assert "This work" in text
