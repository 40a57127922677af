// perfbench_harness — one benchmark run of one workload.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     --out-dir DIR [--tiny]
//
// --trace 0 sets the workload up several times, then repeats the whole
// pipeline (cold Step 1, Step 2, Step 3 under reduce then fixed-0.5) for
// about S seconds and reports the end-to-end metrics as medians over the
// passes. --trace 1 runs one untraced pass, then traced passes and the
// layer probes, and writes a Chrome trace to DIR; perfbench/run.py reads the
// per-layer metrics back from that file. Either way the last stdout line is
// one JSON object; correctness gates that fail make the exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "pipeline.h"
#include "probes.h"
#include "trace.h"
#include "util/log.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using reduce::json_array;
using reduce::json_object;
using reduce::json_value;

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string out_dir = ".bench_build/perfbench/out";
};

options parse_args(int argc, char** argv) {
    options o;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--tiny") {
            o.tiny = true;
            continue;
        }
        if (i + 1 >= argc) { throw std::invalid_argument("missing value for " + key); }
        const std::string value = argv[++i];
        if (key == "--workload") {
            o.workload = value;
        } else if (key == "--seed") {
            o.seed = std::stoull(value);
        } else if (key == "--seconds") {
            o.seconds = std::stod(value);
        } else if (key == "--trace") {
            o.trace = value == "1";
        } else if (key == "--out-dir") {
            o.out_dir = value;
        } else {
            throw std::invalid_argument("unknown option " + key);
        }
    }
    if (o.workload.empty()) { throw std::invalid_argument("--workload is required"); }
    return o;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// The micro-kernel the library's GEMM dispatch picks on this CPU (same
/// feature test as tensor/gemm.cpp).
std::string gemm_kernel() {
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) { return "avx2+fma"; }
#endif
    return "portable";
}

/// Correctness gates: failures make the run incorrect; timing never does.
class gate_list {
public:
    void check(const std::string& name, bool ok, const std::string& detail = "") {
        json_object g;
        g.set("gate", json_value(name));
        g.set("ok", json_value(ok));
        if (!detail.empty()) { g.set("detail", json_value(detail)); }
        gates_.push_back(json_value(std::move(g)));
        if (!ok) {
            all_ok_ = false;
            std::cerr << "perfbench: gate '" << name << "' FAILED: " << detail << "\n";
        }
    }
    bool ok() const { return all_ok_; }
    json_value to_json() const { return json_value(gates_); }

private:
    json_array gates_;
    bool all_ok_ = true;
};

json_value budgets(const workload_spec& spec) {
    json_object b;
    b.set("fleet_workers", json_value(spec.workers));
    b.set("sweep_workers", json_value(spec.workers));
    b.set("gemm_threads", json_value(spec.gemm_threads));
    b.set("eval_batch_chips", json_value(spec.eval_batch_chips));
    b.set("train_batch_chips", json_value(spec.train_batch_chips));
    return json_value(std::move(b));
}

json_object base_info(const options& o, const workload_spec& spec) {
    json_object info;
    info.set("workload", json_value(spec.name));
    info.set("seed", json_value(static_cast<double>(o.seed)));
    info.set("tiny", json_value(o.tiny));
    info.set("thread_budgets", budgets(spec));
    info.set("build_type", json_value(PERFBENCH_BUILD_TYPE));
    info.set("gemm_kernel", json_value(gemm_kernel()));
    info.set("chips", json_value(spec.chips));
    info.set("sweep_cells", json_value(spec.sweep_rates.size() * spec.sweep_repeats));
    info.set("scenario", json_value(spec.scenario));
    info.set("distributed", json_value(spec.distributed));
    return info;
}

void metric(json_object& metrics, const std::string& name, double value,
            const std::string& unit) {
    json_object m;
    m.set("value", json_value(value));
    m.set("unit", json_value(unit));
    metrics.set(name, json_value(std::move(m)));
}

/// Gates every workload shares: Step 1 cold and complete, no pass errors.
void check_passes(gate_list& gates, const workload_spec& spec,
                  const std::vector<const iteration*>& passes) {
    const std::size_t expected = spec.sweep_rates.size() * spec.sweep_repeats;
    std::string errors;
    bool complete = true;
    for (const iteration* it : passes) {
        if (!it->error.empty() && errors.empty()) { errors = it->error; }
        complete = complete && it->cells == expected;
    }
    gates.check("no_pass_threw", errors.empty(), errors);
    gates.check("step1_cold_and_complete", complete,
                "no Step-1 cache is configured; every pass must compute all " +
                    std::to_string(expected) + " cells");
}

void check_workload_gates(gate_list& gates, const workload_spec& spec, const iteration& it) {
    if (!spec.scenario.empty()) {
        std::size_t events = 0;
        for (const policy_run& run : it.runs) { events += run.stats.timeline_events; }
        gates.check("timeline_events_fired", events > 0,
                    std::to_string(events) + " timeline events");
    }
    if (spec.model == model_kind::vgg && !spec.distributed) {
        std::size_t grouped = 0;
        for (const policy_run& run : it.runs) { grouped += run.stats.grouped_train_chips; }
        gates.check("grouped_share_positive", grouped > 0,
                    std::to_string(grouped) + " chips trained grouped");
    }
}

int run_untraced(const options& o, const workload_spec& spec) {
    gate_list gates;
    // Set-up repetitions are spread between the passes rather than run back
    // to back, so setup_s samples the same stretch of machine time as the
    // pass metrics do.
    std::vector<double> setup_times;
    std::uint64_t golden = 0;
    bool setup_deterministic = true;
    auto set_up = [&]() {
        const auto t = bench_clock::now();
        reduce::workload built = build_workload(spec, false);
        setup_times.push_back(seconds_since(t));
        const std::uint64_t h = hash_snapshot(built.pretrained);
        if (setup_times.size() == 1) { golden = h; }
        setup_deterministic = setup_deterministic && h == golden;
        return built;
    };
    reduce::workload w = set_up();
    const run_inputs in = make_inputs(spec, w, o.seed);
    const std::string temp_dir = (std::filesystem::path(o.out_dir) / "tmp").string();

    iteration reference;
    if (spec.distributed) { reference = run_local(spec, w, in); }

    std::vector<iteration> passes;
    const auto measure_start = bench_clock::now();
    for (;;) {
        const auto t = bench_clock::now();
        passes.push_back(spec.distributed ? run_distributed(spec, w, in, temp_dir)
                                          : run_local(spec, w, in));
        const double last = seconds_since(t);
        if (setup_times.size() < spec.setup_reps) { (void)set_up(); }
        if (seconds_since(measure_start) + last > o.seconds || passes.size() >= 64) { break; }
    }
    while (setup_times.size() < spec.setup_reps) { (void)set_up(); }
    gates.check("setup_deterministic", setup_deterministic,
                "every set-up must pretrain to the same golden snapshot");

    std::vector<const iteration*> all;
    for (const iteration& it : passes) { all.push_back(&it); }
    if (spec.distributed) { all.push_back(&reference); }
    check_passes(gates, spec, all);
    std::string drift;
    for (std::size_t i = 1; i < passes.size() && drift.empty(); ++i) {
        drift = compare_iterations(passes.front(), passes[i]);
    }
    gates.check("outcomes_identical_across_passes", drift.empty(), drift);
    const iteration& first = passes.front();
    if (spec.distributed) {
        std::string mismatch;
        for (std::size_t i = 0; i < passes.size() && mismatch.empty(); ++i) {
            mismatch = compare_iterations(reference, passes[i]);
        }
        gates.check("dist_matches_local", mismatch.empty(),
                    mismatch.empty() ? "tables, outcomes and streamed snapshots equal "
                                       "the local fleet_executor path"
                                     : mismatch);
        check_workload_gates(gates, spec, reference);
    } else {
        check_workload_gates(gates, spec, first);
    }
    if (spec.model == model_kind::vgg && first.runs.size() == 2) {
        const std::string diff = check_sampled_group(spec, w, in, first);
        gates.check("sampled_group_equals_serial", diff.empty(), diff);
    }

    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<double> step1, e2e, rate, p50, p90;
    for (const iteration& it : passes) {
        attempted += it.attempted;
        failed += it.failed;
        step1.push_back(it.step1_s);
        e2e.push_back(it.e2e_s);
        double sunk = 0.0;
        double wall = 0.0;
        std::vector<double> ready;
        for (const policy_run& run : it.runs) {
            sunk += static_cast<double>(run.sunk);
            wall += run.wall_s;
            for (const double r : run.ready_s) {
                if (r >= 0.0) { ready.push_back(r); }
            }
        }
        rate.push_back(wall > 0.0 ? sunk / wall : 0.0);
        p50.push_back(percentile(ready, 50.0));
        p90.push_back(percentile(ready, 90.0));
    }
    double fleet_epochs = 0.0;
    for (const policy_run& run : first.runs) { fleet_epochs += run.outcome.total_epochs(); }
    const reduce::policy_outcome& reduce_run =
        first.runs.empty() ? reduce::policy_outcome{} : first.runs.front().outcome;

    json_object metrics;
    metric(metrics, "setup_s", median(setup_times), "s");
    metric(metrics, "step1_s", median(step1), "s");
    metric(metrics, "e2e_s", median(e2e), "s");
    metric(metrics, "chips_per_s", median(rate), "1/s");
    metric(metrics, "chip_ready_p50_s", median(p50), "s");
    metric(metrics, "chip_ready_p90_s", median(p90), "s");
    metric(metrics, "epochs_per_chip", reduce_run.mean_epochs(), "epochs");
    metric(metrics, "pct_meeting", 100.0 * reduce_run.fraction_meeting(), "%");
    metric(metrics, "retrain_epochs_total", first.cell_epochs + fleet_epochs, "epochs");
    metric(metrics, "peak_rss_mb", peak_rss_mb(), "MB");
    metric(metrics, "failed_pct",
           attempted > 0 ? 100.0 * static_cast<double>(failed) / attempted : 0.0, "%");

    json_object info = base_info(o, spec);
    info.set("passes", json_value(passes.size()));
    json_array setups;
    for (const double s : setup_times) { setups.push_back(json_value(s)); }
    info.set("setup_s_samples", json_value(std::move(setups)));
    json_array e2e_samples;
    for (const double s : e2e) { e2e_samples.push_back(json_value(s)); }
    info.set("e2e_s_samples", json_value(std::move(e2e_samples)));
    info.set("clean_accuracy", json_value(w.clean_accuracy));
    if (spec.distributed) {
        double join = 0.0;
        for (const iteration& it : passes) { join += it.worker_join_s; }
        info.set("dist_worker_join_s_mean", json_value(join / passes.size()));
    }

    json_object out;
    out.set("correct", json_value(gates.ok()));
    out.set("attempted", json_value(attempted));
    out.set("failed", json_value(failed));
    out.set("metrics", json_value(std::move(metrics)));
    out.set("gates", gates.to_json());
    out.set("info", json_value(std::move(info)));
    std::cout << json_value(std::move(out)).dump() << std::endl;
    return gates.ok() ? 0 : 1;
}

/// Counts the traced pass observed, as trace counters.
void emit_counters(const iteration& traced, const iteration* dist_pass) {
    trace_counter("resilience.cells", static_cast<double>(traced.cells));
    double selection_failed = 0.0;
    if (!traced.runs.empty()) {
        for (const reduce::chip_outcome& c : traced.runs.front().outcome.chips) {
            selection_failed += c.selection_failed ? 1.0 : 0.0;
        }
    }
    trace_counter("policy.selection_failed", selection_failed);
    reduce::fleet_run_stats sum;
    std::size_t chips = 0;
    for (const policy_run& run : traced.runs) {
        chips += run.outcome.chips.size();
        sum.grouped_train_chips += run.stats.grouped_train_chips;
        sum.alloc_downgrades += run.stats.alloc_downgrades;
        sum.scenario_downgrades += run.stats.scenario_downgrades;
        sum.nonfinite_downgrades += run.stats.nonfinite_downgrades;
        sum.timeline_events += run.stats.timeline_events;
        sum.timeline_rollbacks += run.stats.timeline_rollbacks;
        sum.timeline_restarts += run.stats.timeline_restarts;
    }
    trace_counter("fleet.chips", static_cast<double>(chips));
    trace_counter("fleet.grouped_chips", static_cast<double>(sum.grouped_train_chips));
    trace_counter("fleet.alloc_downgrades", static_cast<double>(sum.alloc_downgrades));
    trace_counter("fleet.scenario_downgrades", static_cast<double>(sum.scenario_downgrades));
    trace_counter("fleet.nonfinite_downgrades", static_cast<double>(sum.nonfinite_downgrades));
    trace_counter("fault.timeline_events", static_cast<double>(sum.timeline_events));
    trace_counter("fault.timeline_rollbacks", static_cast<double>(sum.timeline_rollbacks));
    trace_counter("fault.timeline_restarts", static_cast<double>(sum.timeline_restarts));
    const reduce::dist::coordinator_stats stats =
        dist_pass != nullptr ? dist_pass->dist_stats : reduce::dist::coordinator_stats{};
    trace_counter("dist.leases_granted", static_cast<double>(stats.leases_granted));
    trace_counter("dist.leases_reassigned", static_cast<double>(stats.leases_reassigned));
    trace_counter("dist.duplicate_results", static_cast<double>(stats.duplicate_results));
    trace_counter("dist.stray_results", static_cast<double>(stats.stray_results));
}

/// True when the traced schedule reproduced the executor's counters.
std::string compare_stats(const iteration& untraced, const iteration& traced) {
    for (std::size_t p = 0; p < std::min(untraced.runs.size(), traced.runs.size()); ++p) {
        const reduce::fleet_run_stats& a = untraced.runs[p].stats;
        const reduce::fleet_run_stats& b = traced.runs[p].stats;
        if (a.grouped_train_chips != b.grouped_train_chips ||
            a.serial_train_chips != b.serial_train_chips ||
            a.alloc_downgrades != b.alloc_downgrades ||
            a.scenario_downgrades != b.scenario_downgrades ||
            a.nonfinite_downgrades != b.nonfinite_downgrades ||
            a.timeline_events != b.timeline_events) {
            return "fleet counters of policy " + untraced.runs[p].outcome.policy_name +
                   " differ between fleet_executor and the traced schedule";
        }
    }
    return "";
}

int run_traced_mode(const options& o, const workload_spec& spec) {
    gate_list gates;
    const auto run_start = bench_clock::now();
    set_tracing(false);
    const auto t_untraced = bench_clock::now();
    const reduce::workload untraced_w = build_workload(spec, false);
    const double setup_untraced_s = seconds_since(t_untraced);

    set_tracing(true);
    const auto t_traced = bench_clock::now();
    reduce::workload w = build_workload(spec, true);
    const double setup_traced_s = seconds_since(t_traced);
    gates.check("traced_setup_matches_untraced",
                hash_snapshot(w.pretrained) == hash_snapshot(untraced_w.pretrained),
                "the traced set-up must pretrain the same golden snapshot");
    const run_inputs in = make_inputs(spec, w, o.seed);
    const std::string temp_dir = (std::filesystem::path(o.out_dir) / "tmp").string();

    set_tracing(false);
    const iteration untraced = spec.distributed ? run_distributed(spec, w, in, temp_dir)
                                                : run_local(spec, w, in);
    set_tracing(true);

    std::vector<iteration> traced_passes;
    std::vector<iteration> traced_dist;
    std::vector<double> overheads;
    for (;;) {
        const auto t = bench_clock::now();
        if (spec.distributed) {
            traced_dist.push_back(run_distributed(spec, w, in, temp_dir));
            overheads.push_back(traced_dist.back().e2e_s - untraced.e2e_s);
        }
        traced_passes.push_back(run_traced(spec, w, in));
        if (!spec.distributed) { overheads.push_back(traced_passes.back().e2e_s - untraced.e2e_s); }
        emit_counters(traced_passes.back(), spec.distributed ? &traced_dist.back() : nullptr);
        trace_counter("trace.untraced_wall_s", untraced.e2e_s);
        trace_counter("trace.overhead_s", overheads.back());
        // Leave room for the probes, which take about one pass.
        if (seconds_since(run_start) + 2.0 * seconds_since(t) > o.seconds) { break; }
    }

    const json_value layers = run_layer_probes(spec, w, in);
    if (spec.distributed) { run_dist_probes(spec, w, in, temp_dir); }

    std::vector<const iteration*> all{&untraced};
    for (const iteration& it : traced_passes) { all.push_back(&it); }
    for (const iteration& it : traced_dist) { all.push_back(&it); }
    check_passes(gates, spec, all);
    std::string diff;
    std::string stats_diff;
    for (const iteration& it : traced_passes) {
        if (diff.empty()) { diff = compare_iterations(untraced, it); }
        if (stats_diff.empty() && !spec.distributed) { stats_diff = compare_stats(untraced, it); }
    }
    for (const iteration& it : traced_dist) {
        if (diff.empty()) { diff = compare_iterations(untraced, it); }
    }
    gates.check("traced_outcomes_equal_untraced", diff.empty(), diff);
    gates.check("traced_schedule_matches_executor_counters", stats_diff.empty(), stats_diff);
    check_workload_gates(gates, spec, spec.distributed ? traced_passes.front() : untraced);
    if (spec.model == model_kind::vgg) {
        const std::string group_diff = check_sampled_group(spec, w, in, untraced);
        gates.check("sampled_group_equals_serial", group_diff.empty(), group_diff);
    }

    json_object info = base_info(o, spec);
    info.set("traced_passes", json_value(traced_passes.size()));
    info.set("setup_untraced_s", json_value(setup_untraced_s));
    info.set("setup_traced_s", json_value(setup_traced_s));
    info.set("untraced_wall_s", json_value(untraced.e2e_s));
    info.set("tracing_overhead_s", json_value(median(overheads)));
    info.set("clean_accuracy", json_value(w.clean_accuracy));

    json_object meta = info;
    meta.set("layers", layers);
    std::filesystem::create_directories(o.out_dir);
    const std::string trace_path =
        (std::filesystem::path(o.out_dir) /
         (spec.name + "-seed" + std::to_string(o.seed) + ".trace.json"))
            .string();
    write_chrome_trace(trace_path, json_value(std::move(meta)));
    info.set("spans", json_value(recorded_spans()));

    std::size_t attempted = 0;
    std::size_t failed = 0;
    for (const iteration* it : all) {
        attempted += it->attempted;
        failed += it->failed;
    }
    json_object out;
    out.set("correct", json_value(gates.ok()));
    out.set("attempted", json_value(attempted));
    out.set("failed", json_value(failed));
    out.set("trace_file", json_value(trace_path));
    out.set("gates", gates.to_json());
    out.set("info", json_value(std::move(info)));
    std::cout << json_value(std::move(out)).dump() << std::endl;
    return gates.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    try {
        const options o = parse_args(argc, argv);
        reduce::set_log_level(reduce::log_level::warn);
        const workload_spec spec = find_workload(o.workload, o.tiny);
        std::filesystem::create_directories(std::filesystem::path(o.out_dir) / "tmp");
        return o.trace ? run_traced_mode(o, spec) : run_untraced(o, spec);
    } catch (const std::exception& e) {
        std::cerr << "perfbench_harness: " << e.what() << "\n";
        return 2;
    }
}
