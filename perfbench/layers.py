"""Per-layer metrics from the spans of traced report processes.

Busy time is inclusive: a span's duration, counted once where calls of the
same name nest. Self time is a span's duration minus the part of it its
child spans cover. Every metric is a total over the traced reports.
"""
from __future__ import annotations

from collections import defaultdict

# name -> unit; the per_layer list of BENCHMARK.json names the same metrics
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.import.scipy_s": "s",
    "cli.command_s": "s",
    "cli.self_s": "s",
    "cli.load_device.busy_s": "s",
    "cli.report_bytes": "bytes",
    "numerics.permanent.calls": "count",
    "numerics.permanent.busy_s": "s",
    "numerics.permanent.ops": "count",
    "numerics.hermitian_eig.calls": "count",
    "numerics.hermitian_eig.busy_s": "s",
    "numerics.unitarize.calls": "count",
    "numerics.unitarize.busy_s": "s",
    "polarization.rotation_matrices.calls": "count",
    "polarization.rotation_matrices.busy_s": "s",
    "polarization.keys_built": "count",
    "walk.exact_law.calls": "count",
    "walk.exact_law.busy_s": "s",
    "walk.outcomes_enumerated": "count",
    "walk.law_useful_ratio": "ratio",
    "walk.run_protocol.self_s": "s",
    "walk.protocol_distribution.busy_s": "s",
    "security.encrypted_density.calls": "count",
    "security.encrypted_density.busy_s": "s",
    "security.keys_streamed": "count",
    "security.density_bytes": "bytes",
    "security.density_unique_ratio": "ratio",
    "security.entropy_trace.busy_s": "s",
    "security.simulate_attack.busy_s": "s",
    "security.attack_trials": "count",
    "reconstruct.synthesize_measurements.busy_s": "s",
    "reconstruct.reconstruct_unitary.busy_s": "s",
    "reconstruct.lm_solves": "count",
    "reconstruct.lm_nfev": "count",
    "trace.overhead_frac": "ratio",
}

WALK_CALLS = ("walk.run_protocol", "walk.protocol_distribution")


def importtime_s(stderr: str, module: str) -> float:
    """Cumulative import time of `module` from `python -X importtime` output."""
    total = 0.0
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            fields = line[len("import time:"):].split("|")
            if len(fields) == 3 and fields[2].strip() == module:
                total += int(fields[1]) / 1e6
    return total


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _report_totals(spans, totals: dict) -> None:
    """Add one report's spans to the running totals."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)

    def ancestors(i):
        parent = spans[i][3]
        while parent >= 0:
            yield parent
            parent = spans[parent][3]

    seen_laws = set()
    pairs = set()
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        totals[name + ".calls"] += 1
        if all(spans[a][0] != name for a in ancestors(i)):
            totals[name + ".busy_s"] += end - start
        totals[name + ".self_s"] += end - start - _covered(
            (spans[c][1], spans[c][2]) for c in children[i])
        attrs = attrs or {}
        if name == "numerics.permanent":
            totals["numerics.permanent.ops"] += attrs["n"] * 2 ** attrs["n"]
        elif name == "polarization.rotation_matrices":
            totals["polarization.keys_built"] += attrs["keys"]
        elif name == "walk.exact_law":
            totals["walk.outcomes_enumerated"] += attrs["outcomes"]
            # a law reaches the report when it is the first evaluation of its
            # (kind, device, source) and, inside a walk call, it is the walker law
            key = (attrs["kind"], attrs["device"], tuple(attrs["source"]))
            walk = next((a for a in ancestors(i) if spans[a][0] in WALK_CALLS), None)
            if key not in seen_laws and (walk is None or spans[walk][4]["walkers"] == attrs["source"]):
                totals["walk.useful_permanents"] += sum(
                    1 for c in children[i] if spans[c][0] == "numerics.permanent")
            seen_laws.add(key)
        elif name == "security.encrypted_density":
            totals["security.keys_streamed"] += attrs["keys"]
            totals["security.density_bytes"] += attrs["bytes"]
            pairs.add(attrs["pair"])
        elif name == "security.simulate_attack":
            totals["security.attack_trials"] += attrs["trials"]
        elif name == "reconstruct.lm_solve":
            totals["reconstruct.lm_nfev"] += attrs["nfev"]
    totals["security.distinct_pairs"] += len(pairs)


def per_layer(traced, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics of the traced reports (each with .meta, .stdout and .stderr)."""
    totals: dict = defaultdict(float)
    for r in traced:
        totals["cli.import_s"] += r.meta["import_s"]
        totals["cli.import.scipy_s"] += importtime_s(r.stderr, "scipy.optimize")
        totals["cli.report_bytes"] += len(r.stdout)
        _report_totals(r.meta["spans"], totals)

    def ratio(num, den):
        return totals[num] / totals[den] if totals[den] else 0.0

    derived = {
        "cli.command_s": totals["cli.main.busy_s"],
        "cli.self_s": totals["cli.main.self_s"],
        "walk.law_useful_ratio": ratio("walk.useful_permanents", "numerics.permanent.calls"),
        "security.density_unique_ratio": ratio("security.distinct_pairs",
                                               "security.encrypted_density.calls"),
        "reconstruct.lm_solves": totals["reconstruct.lm_solve.calls"],
        "trace.overhead_frac": overhead_frac,
    }
    return {name: float(derived[name] if name in derived else totals[name])
            for name in PER_LAYER_UNITS}
