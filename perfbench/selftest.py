"""Self-test of the benchmark's own aggregation, on synthetic records only.

Usage::

    python3 perfbench/selftest.py

Checks the median, the tail percentile (highest percentile with at least ten
samples beyond it), the fail ratio, and the per-layer figures derived from
spans.  It starts no corrleak process.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import sys

import stats
import traced
from run import Tally


def expect(label: str, got, want) -> None:
    if got != want:
        raise SystemExit(f"selftest FAILED: {label}: got {got!r}, expected {want!r}")
    print(f"ok  {label}")


def span(name, start, end, parent=-1, **counts):
    return {"name": name, "start": start, "end": end, "parent": parent, **counts}


def main() -> int:
    walls = [float(v) for v in range(1, 21)]  # 1..20 s, shuffled below
    shuffled = walls[::2] + walls[1::2]
    expect("median of 20", stats.median(shuffled), 10.5)
    expect("median of 3", stats.median([3.0, 1.0, 2.0]), 2.0)
    expect("tail of 20 samples is p50", stats.tail_percentile(shuffled), (50, 10.0))
    expect("ten samples beyond the tail",
           sum(v > stats.tail_percentile(shuffled)[1] for v in shuffled), 10)
    expect("tail of 100 samples is p90",
           stats.tail_percentile([float(v) for v in range(100)]), (90, 89.0))
    expect("no tail below 11 samples", stats.tail_percentile(walls[:10]), None)
    expect("tail of 11 samples", stats.tail_percentile(walls[:11]), (9, 1.0))

    tally = Tally()
    for i in range(8):
        tally.record(f"cmd{i}", ["digest mismatch"] if i in (2, 5) else [])
    expect("attempted", tally.attempted, 8)
    expect("failed", tally.failed, 2)
    expect("fail ratio", stats.fail_ratio(tally.attempted, tally.failed), 0.25)

    # One command: main (0..10) -> analyzer init (1..5) -> support_arrays (1..3);
    # measure_security (6..9) -> support_arrays (6..8); nested bound_report calls.
    spans = [
        span("cli.main", 0.0, 10.0),
        span("leakage.analyzer_init", 1.0, 5.0, 0),
        span("seqmodel.support_arrays", 1.0, 3.0, 1, rows=100),
        span("cipher.measure_security", 6.0, 9.0, 0, key_space=8),
        span("seqmodel.support_arrays", 6.0, 8.0, 3, rows=100),
        span("leakage.bound_report", 9.0, 9.5, 0),
        span("leakage.bound_report", 9.1, 9.2, 5),
    ]
    installed = sorted({s["name"] for s in spans} | {"swcodec.joint_decode"})
    record = {"installed": installed, "spans": spans, "import_s": 0.2}
    metrics, absent = traced.layer_metrics({"curves": record})
    value = {name: v for name, (v, _) in metrics.items()}
    expect("support_arrays total", value["seqmodel.support_arrays.s"], 4.0)
    expect("support_arrays calls", value["seqmodel.support_arrays.calls"], 2)
    expect("support rows", value["seqmodel.support_rows"], 200)
    expect("analyzer init self time", value["leakage.analyzer_init.self_s"], 2.0)
    expect("key cells", value["cipher.key_cells"], 800)
    expect("nested calls counted once in time", value["leakage.bound_report.s"], 0.5)
    expect("nested calls counted in calls", value["leakage.bound_report.calls"], 2)
    expect("cli self time", value["cli.curves.self_s"], 10.0 - 4.0 - 3.0 - 0.5)
    expect("command not run reads 0", value["cli.analyze.self_s"], 0.0)
    expect("uncalled layer reads 0", value["swcodec.joint_decode.s"], 0)
    expect("uncalled layer is not absent", "swcodec.joint_decode.s" in absent, False)
    expect("missing entry point is absent", "leakage.minmax_curves.s" in absent, True)
    expect("present entry point is not absent", "cipher.key_cells" in absent, False)

    del spans[4]["rows"]
    _, absent = traced.layer_metrics({"curves": record})
    expect("unreadable count is absent", {"seqmodel.support_rows", "cipher.key_cells"} <= set(absent),
           True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
