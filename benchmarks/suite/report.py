"""One result schema, and the tool that compares two documents."""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from . import spec

SCHEMA = 1


def document(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-run records (``cli.measure``) into one document:
    workload -> end-to-end metrics, per-layer metrics, raw samples."""
    end_units = spec.units("end_to_end")
    layer_units = spec.units("per_layer")
    workloads: Dict[str, Dict[str, Any]] = {}
    for record in records:
        entry = workloads.setdefault(
            record["workload"], {"end_to_end": {}, "per_layer": {}, "runs": []}
        )
        entry["runs"].append(
            {
                key: record[key]
                for key in ("trace", "seed", "quick", "n", "attempted", "failed", "failures", "host", "notes")
            }
        )
        if record["trace"]:
            entry["per_layer"] = {
                name: {"value": record["per_layer"].get(name, 0.0), "unit": unit}
                for name, unit in layer_units.items()
            }
        else:
            entry["end_to_end"] = {
                name: {"value": record["end_to_end"][name], "unit": unit, "n": record["n"]}
                for name, unit in end_units.items()
            }
            entry["samples"] = record["samples"]
    return {"schema": SCHEMA, "workloads": workloads}


def _relative_range(samples: Sequence[float]) -> float:
    if len(samples) < 2:
        return 0.0
    middle = sorted(samples)[len(samples) // 2]
    return (max(samples) - min(samples)) / middle if middle else 0.0


def _host_spin(entry: Dict[str, Any]) -> float:
    """Median of the untraced run's host yardstick (``procstat.spin_ms``)."""
    spins = sorted(entry.get("samples", {}).get("host_spin_ms") or [1.0])
    return spins[len(spins) // 2]


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Report lines and whether any metric regressed.

    Per end-to-end metric x workload: B's value over A's, the bound, and
    ``ok`` / ``regressed`` / ``unresolved`` — unresolved when the spread
    between either document's repeats is wider than the bound, unless
    every repeat of B reads better than every repeat of A, and for every
    timing when the host yardstick itself moved by more than the bound
    between the two documents.  Then the exact counts of the traced
    passes, which must be equal.
    """
    contract = {m["name"]: m for m in spec.load_contract()["end_to_end"]}
    lines = [
        f"{'workload':<10} {'metric':<16} {'A':>12} {'B':>12} {'B/A':>7} "
        f"{'bound':>6}  verdict"
    ]
    regressed = False
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        speed = _host_spin(entry_b) / _host_spin(entry_a)
        lines.append(f"{workload:<10} host yardstick B/A {speed:.3f}")
        for name, metric in contract.items():
            if name not in entry_a["end_to_end"] or name not in entry_b["end_to_end"]:
                continue
            base = entry_a["end_to_end"][name]["value"]
            new = entry_b["end_to_end"][name]["value"]
            lower = metric["better"] == "lower"
            worsening = (new - base) / base if lower else (base - new) / base
            samples_a = entry_a.get("samples", {}).get(name, [])
            samples_b = entry_b.get("samples", {}).get(name, [])
            spread = max(_relative_range(samples_a), _relative_range(samples_b))
            timing = name != "peak_rss_mb"
            if timing and abs(speed - 1.0) > metric["bound"]:
                verdict = "unresolved"  # the host changed, whatever the code did
            elif spread > metric["bound"]:
                clear_win = bool(samples_a and samples_b) and (
                    max(samples_b) < min(samples_a)
                    if lower
                    else min(samples_b) > max(samples_a)
                )
                verdict = "ok" if clear_win else "unresolved"
            elif worsening > metric["bound"]:
                verdict = "regressed"
                regressed = True
            else:
                verdict = "ok"
            lines.append(
                f"{workload:<10} {name:<16} {base:>12.4f} {new:>12.4f} "
                f"{new / base:>7.3f} {metric['bound']:>6.2f}  {verdict}"
            )
        for name in spec.EXACT_COUNTS:
            count_a = entry_a["per_layer"].get(name)
            count_b = entry_b["per_layer"].get(name)
            if count_a is None or count_b is None:
                continue
            if count_a["value"] != count_b["value"]:
                regressed = True
                lines.append(
                    f"{workload:<10} {name:<24} count differs: "
                    f"{count_a['value']} -> {count_b['value']}"
                )
    if not regressed:
        lines.append("exact counts: equal wherever both documents have them")
    return lines, regressed
