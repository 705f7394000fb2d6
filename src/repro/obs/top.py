"""``repro top``: one text frame from a service's telemetry replies.

Pure formatting over plain dicts — the ``node_status``, ``metrics_get``
and ``explorer_lanes`` RPC results — so any client that can reach a
service can draw the same dashboard the CLI does.
"""

from __future__ import annotations


def _metric_total(snapshot: dict, name: str) -> float:
    """Sum a counter/gauge family's series from a metrics_get snapshot."""
    family = snapshot.get(name) or {}
    return sum(point.get("value", 0) for point in family.get("series", ()))


def _metric_histogram(snapshot: dict, name: str) -> dict:
    """First (unlabelled) histogram series of a family, or an empty one."""
    family = snapshot.get(name) or {}
    for point in family.get("series", ()):
        return point
    return {"count": 0, "sum": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}


def render_top(status: dict, snapshot: dict, lanes: list) -> str:
    """One ``repro top`` frame from node_status + metrics_get + lanes."""
    uptime = max(status.get("uptime_seconds", 0.0), 1e-9)
    epochs = _metric_total(snapshot, "engine_epochs_total")
    audits = _metric_total(snapshot, "engine_audits_total")
    depth = _metric_total(snapshot, "mempool_depth")
    verify = _metric_histogram(snapshot, "engine_verify_seconds")
    fees = {
        point["labels"].get("lane", "?"): point["value"]
        for point in (snapshot.get("fabric_lane_base_fee_wei") or {}).get(
            "series", ()
        )
    }
    total_txs = sum(summary.get("transactions", 0) for summary in lanes)
    lane_bits = []
    for summary in lanes:
        lane_id = summary.get("lane", "?")
        txs = summary.get("transactions", 0)
        share = 100.0 * txs / total_txs if total_txs else 0.0
        fee_gwei = fees.get(str(lane_id), 0) / 1e9
        lane_bits.append(
            f"lane{lane_id} {share:3.0f}% ({txs} txs, {fee_gwei:g} gwei)"
        )
    lines = [
        f"up {uptime:8.1f}s   height {status.get('height', 0):>6}   "
        f"lanes {status.get('num_lanes', 0)}"
        f"{' (concurrent)' if status.get('concurrent') else ''}   "
        f"auto-mine {'on' if status.get('auto_mine') else 'off'}",
        f"epochs  {epochs:10.0f} total  {epochs / uptime:8.2f}/s   "
        f"audits {audits:10.0f} total  {audits / uptime:8.2f}/s",
        f"mempool depth {depth:6.0f}   blocks mined "
        f"{_metric_total(snapshot, 'fabric_blocks_mined_total'):6.0f}   "
        f"txs settled "
        f"{_metric_total(snapshot, 'fabric_txs_settled_total'):6.0f}",
        "lanes   " + "   ".join(lane_bits),
        f"verify  p50 {verify['p50'] * 1e3:8.2f} ms   "
        f"p99 {verify['p99'] * 1e3:8.2f} ms   "
        f"over {verify['count']} epochs",
    ]
    return "\n".join(lines)
