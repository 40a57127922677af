"""Per-layer metrics, computed from the Chrome trace a traced run writes.

Every value here is read back from the trace file alone: spans ("ph": "X",
with "id" and "parent" in args) and counters ("ph": "C"). See README.md for
each metric's definition and base.
"""

import json
import statistics
from collections import defaultdict

# Layers of the two models, as "<index>_<layer name>" of sequential::layer(i).
MLP_LAYERS = ["0_linear", "2_linear", "4_linear"]
VGG_LAYERS = ["0_conv2d", "3_conv2d", "6_conv2d", "8_conv2d", "11_conv2d", "13_conv2d",
              "15_conv2d", "17_conv2d", "20_linear"]
MAPPED_LAYERS = MLP_LAYERS + VGG_LAYERS


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(len(ordered) - 1, lo + 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    return statistics.median(values) if values else 0.0


class Trace:
    def __init__(self, path):
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        self.meta = doc.get("otherData", {})
        self.spans = defaultdict(list)
        self.by_id = {}
        self.counters = defaultdict(list)
        for e in doc["traceEvents"]:
            if e.get("ph") == "X":
                span = {"name": e["name"], "start": e["ts"] / 1e6, "dur": e["dur"] / 1e6,
                        "args": e.get("args", {})}
                self.spans[e["name"]].append(span)
                self.by_id[span["args"].get("id")] = span
            elif e.get("ph") == "C":
                self.counters[e["name"]].append(e["args"]["value"])

    def durations(self, name):
        return [s["dur"] for s in self.spans.get(name, [])]

    def counter(self, name):
        """The last sample of a counter (counts repeat exactly per pass)."""
        values = self.counters.get(name)
        return values[-1] if values else 0.0

    def self_times(self):
        """Per span name: count, total and self seconds. Self time is a span's
        duration minus the part of its interval that its children cover."""
        children = defaultdict(list)
        for span in self.by_id.values():
            parent = span["args"].get("parent", -1)
            if parent in self.by_id:
                children[parent].append(span)
        summary = {}
        for name, spans in self.spans.items():
            total = 0.0
            own = 0.0
            for span in spans:
                start, end = span["start"], span["start"] + span["dur"]
                covered = 0.0
                cursor = start
                intervals = sorted((max(start, c["start"]), min(end, c["start"] + c["dur"]))
                                   for c in children.get(span["args"].get("id"), []))
                for lo, hi in intervals:
                    lo = max(lo, cursor)
                    if hi > lo:
                        covered += hi - lo
                        cursor = hi
                total += span["dur"]
                own += span["dur"] - covered
            summary[name] = {"count": len(spans), "total_s": total, "self_s": own}
        return summary


def compute(path):
    """All per-layer metrics as {name: (value, unit)}."""
    t = Trace(path)
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    def ms(name):
        return 1e3 * median(t.durations(name))

    # workload
    pretrain = t.spans.get("workload.pretrain", [])
    put("workload.data_s", sum(t.durations("workload.data")), "s")
    put("workload.pretrain_s", sum(s["dur"] for s in pretrain), "s")
    steps = sum(s["args"].get("steps", 0) for s in pretrain)
    put("workload.pretrain_step_ms",
        1e3 * sum(s["dur"] for s in pretrain) / steps if steps else 0.0, "ms")

    # resilience (Step 1)
    cells = t.durations("resilience.cell")
    put("resilience.cells", t.counter("resilience.cells"), "count")
    put("resilience.cell_s_p50", percentile(cells, 50), "s")
    put("resilience.cell_s_p90", percentile(cells, 90), "s")
    put("resilience.epoch0_eval_ms", ms("resilience.epoch0_eval"), "ms")
    capacity = sum(s["args"].get("workers", 1) * s["dur"]
                   for s in t.spans.get("resilience.step1", []))
    put("resilience.busy_share", sum(cells) / capacity if capacity else 0.0, "ratio")

    # policy (Step 2)
    put("policy.plan_ms", ms("policy.plan"), "ms")
    put("policy.selection_failed", t.counter("policy.selection_failed"), "count")

    # fault
    put("fault.fleet_ms", 1e3 * sum(t.durations("fault.make_fleet")), "ms")
    put("fault.mask_ms", ms("fault.attach_masks"), "ms")
    put("fault.effective_rate_ms", ms("fault.effective_rate"), "ms")
    for name in ("timeline_events", "timeline_rollbacks", "timeline_restarts"):
        put("fault." + name, t.counter("fault." + name), "count")

    # fleet (fleet_executor's schedule)
    chips = t.counter("fleet.chips")
    put("fleet.grouped_share", t.counter("fleet.grouped_chips") / chips if chips else 0.0,
        "ratio")
    for name in ("alloc_downgrades", "scenario_downgrades", "nonfinite_downgrades"):
        put("fleet." + name, t.counter("fleet." + name), "count")
    busy = sum(sum(t.durations(n)) for n in ("tune.chip", "tune_group.group", "eval.block"))
    capacity = sum(s["args"].get("workers", 1) * s["dur"] for s in t.spans.get("fleet.run", []))
    put("fleet.busy_share", busy / capacity if capacity else 0.0, "ratio")
    put("fleet.sink_wait_s_p90", percentile(t.durations("fleet.sink_wait"), 90), "s")

    # tune (serial chip_tuner) and tune_group (grouped_chip_tuner)
    tune = t.spans.get("tune.chip", [])
    put("tune.chip_s_p50", percentile([s["dur"] for s in tune], 50), "s")
    put("tune.chip_s_p90", percentile([s["dur"] for s in tune], 90), "s")
    epochs = sum(s["args"].get("epochs", 0.0) for s in tune)
    put("tune.ms_per_epoch", 1e3 * sum(s["dur"] for s in tune) / epochs if epochs else 0.0,
        "ms")
    k8 = [s["dur"] / 8 for s in t.spans.get("tune_group.group", []) if s["args"].get("k") == 8]
    put("tune_group.chip_s", median(k8), "s")
    sample = t.spans.get("tune_group.sample", [])
    serial = median(t.durations("tune.sample_serial"))
    grouped = median([s["dur"] / s["args"]["k"] for s in sample])
    put("tune_group.speedup_vs_serial", serial / grouped if grouped else 0.0, "x")

    # eval (multi_mask_evaluator)
    for k in (1, 8):
        runs = [s["dur"] / k for s in t.spans.get("eval.probe", []) if s["args"].get("k") == k]
        put("eval.variant_ms_k%d" % k, 1e3 * median(runs), "ms")

    # nn: one training batch, layer by layer and through the whole model
    fwd_total = 0.0
    other = {"fwd": 0.0, "bwd": 0.0}
    for name in t.spans:
        for kind in ("fwd", "bwd"):
            prefix = "nn.%s." % kind
            if not name.startswith(prefix):
                continue
            label = name[len(prefix):]
            value = ms(name)
            if kind == "fwd":
                fwd_total += value
            if label not in MAPPED_LAYERS:
                other[kind] += value
    for label in MAPPED_LAYERS:
        put("nn.fwd_ms." + label, ms("nn.fwd." + label), "ms")
        put("nn.bwd_ms." + label, ms("nn.bwd." + label), "ms")
    put("nn.fwd_ms.other", other["fwd"], "ms")
    put("nn.bwd_ms.other", other["bwd"], "ms")
    seq_fwd = ms("nn.seq_fwd")
    put("nn.seq_fwd_ms", seq_fwd, "ms")
    put("nn.seq_bwd_ms", ms("nn.seq_bwd"), "ms")
    put("nn.fusion_ratio", fwd_total / seq_fwd if seq_fwd else 0.0, "ratio")
    put("nn.optim_ms", ms("nn.optim"), "ms")
    put("nn.eval_fwd_ms", ms("nn.eval_fwd"), "ms")

    # tensor: forward GEMM / conv entry point at each mapped layer's shape
    flops = 0.0
    seconds = 0.0
    for label in MAPPED_LAYERS:
        spans = t.spans.get("tensor.gemm." + label, [])
        put("tensor.gemm_ms." + label, ms("tensor.gemm." + label), "ms")
        if spans:
            flops += spans[0]["args"].get("flops", 0.0)
            seconds += median([s["dur"] for s in spans])
    put("tensor.gemm_gflops", flops / seconds / 1e9 if seconds else 0.0, "GFLOP/s")
    speedup = 0.0
    for name in t.spans:
        if name.startswith("tensor.gemm_1t."):
            budget = median(t.durations("tensor.gemm." + name[len("tensor.gemm_1t."):]))
            speedup = median(t.durations(name)) / budget if budget else 0.0
    put("tensor.par_speedup", speedup, "x")

    # data, pool
    batch = t.spans.get("data.batch", [])
    put("data.batch_ms",
        1e3 * sum(s["dur"] for s in batch) / sum(s["args"]["calls"] for s in batch)
        if batch else 0.0, "ms")
    pool = t.spans.get("pool.dispatch", [])
    put("pool.dispatch_us",
        1e6 * sum(s["dur"] for s in pool) / sum(s["args"]["calls"] for s in pool)
        if pool else 0.0, "us")

    # dist
    for name in ("leases_granted", "leases_reassigned", "duplicate_results", "stray_results"):
        put("dist." + name, t.counter("dist." + name), "count")
    appends = t.durations("dist.journal_append")
    put("dist.journal_append_ms_p50", 1e3 * percentile(appends, 50), "ms")
    put("dist.journal_append_ms_p90", 1e3 * percentile(appends, 90), "ms")
    encodes = t.spans.get("dist.encode", [])
    put("dist.result_frame_bytes", encodes[-1]["args"]["bytes"] if encodes else 0.0, "bytes")
    put("dist.encode_ms", ms("dist.encode"), "ms")
    put("dist.decode_ms", ms("dist.decode"), "ms")
    jobs = t.spans.get("dist.fleet_job", [])
    workers = t.meta.get("thread_budgets", {}).get("fleet_workers", 1)
    capacity = workers * sum(s["dur"] for s in jobs)
    put("dist.overhead_share", 1.0 - sum(t.durations("tune.chip")) / capacity
        if capacity else 0.0, "ratio")
    put("dist.worker_join_s", max(t.durations("dist.worker_join"), default=0.0), "s")

    # the tracing itself
    overheads = t.counters.get("trace.overhead_s", [])
    untraced = t.counter("trace.untraced_wall_s")
    put("trace.overhead_s", median(overheads), "s")
    put("trace.overhead_share", median(overheads) / untraced if untraced else 0.0, "ratio")
    return m, t.self_times()
