#include "pipeline.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unistd.h>

#include "core/grouped_fat_trainer.h"
#include "core/multi_mask_eval.h"
#include "dist/worker.h"
#include "fault/mask_builder.h"
#include "trace.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace reduce;

namespace {

constexpr std::uint64_t fnv_prime = 1099511628211ull;

std::uint64_t mix_words(std::uint64_t h, const void* data, std::size_t bytes) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    std::size_t i = 0;
    for (; i + 8 <= bytes; i += 8) {
        std::uint64_t word;
        std::memcpy(&word, p + i, 8);
        h = (h ^ word) * fnv_prime;
        h ^= h >> 29;
    }
    for (; i < bytes; ++i) { h = (h ^ p[i]) * fnv_prime; }
    return h ^ bytes;
}

void record_table(iteration& it, const resilience_table& table) {
    it.table_json = table.to_json().dump();
    it.cells = table.runs().size();
    for (const resilience_run& run : table.runs()) {
        if (!run.trajectory.empty()) { it.cell_epochs += run.trajectory.back().epochs; }
    }
}

policy_run fresh_run(std::size_t chips) {
    policy_run run;
    run.ready_s.assign(chips, -1.0);
    run.snapshot_hash.assign(chips, 0);
    return run;
}

/// Failure accounting: each Step-1 cell and each chip episode is one
/// operation; a chip fails if its episode threw, diverged (hit_nonfinite),
/// or its snapshot never reached the sink.
void count_failures(iteration& it, std::size_t cells_expected, std::size_t chips) {
    it.attempted = cells_expected + 2 * chips;
    it.failed = cells_expected > it.cells ? cells_expected - it.cells : 0;
    for (std::size_t p = 0; p < 2; ++p) {
        if (p >= it.runs.size()) {
            it.failed += chips;
            continue;
        }
        const policy_run& run = it.runs[p];
        for (std::size_t i = 0; i < chips; ++i) {
            const bool diverged =
                i < run.outcome.chips.size() && run.outcome.chips[i].hit_nonfinite;
            if (run.ready_s[i] < 0.0 || diverged) { ++it.failed; }
        }
    }
}

std::string describe(const std::exception_ptr& error) {
    try {
        std::rethrow_exception(error);
    } catch (const std::exception& e) {
        return e.what();
    } catch (...) {
        return "unknown exception";
    }
}

}  // namespace

std::uint64_t hash_snapshot(const model_snapshot& snapshot) {
    std::uint64_t h = 14695981039346656037ull;
    for (const std::string& name : snapshot.names) { h = mix_words(h, name.data(), name.size()); }
    for (const tensor& t : snapshot.values) {
        h = mix_words(h, t.raw(), t.numel() * sizeof(float));
    }
    for (const tensor& t : snapshot.state) {
        h = mix_words(h, t.raw(), t.numel() * sizeof(float));
    }
    return h;
}

bool same_outcome(const chip_outcome& a, const chip_outcome& b) {
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    return a.chip_id == b.chip_id && bits(a.nominal_fault_rate) == bits(b.nominal_fault_rate) &&
           bits(a.effective_fault_rate) == bits(b.effective_fault_rate) &&
           bits(a.masked_weight_fraction) == bits(b.masked_weight_fraction) &&
           bits(a.epochs_allocated) == bits(b.epochs_allocated) &&
           bits(a.epochs_run) == bits(b.epochs_run) &&
           bits(a.accuracy_before) == bits(b.accuracy_before) &&
           bits(a.final_accuracy) == bits(b.final_accuracy) &&
           a.meets_constraint == b.meets_constraint &&
           a.selection_failed == b.selection_failed && a.events_applied == b.events_applied &&
           a.rollbacks == b.rollbacks && a.restarts == b.restarts &&
           a.hit_nonfinite == b.hit_nonfinite;
}

std::string compare_iterations(const iteration& a, const iteration& b) {
    if (a.table_json != b.table_json) { return "Step-1 tables differ"; }
    if (a.runs.size() != b.runs.size()) { return "policy run counts differ"; }
    for (std::size_t p = 0; p < a.runs.size(); ++p) {
        const policy_run& x = a.runs[p];
        const policy_run& y = b.runs[p];
        const std::string who = "policy " + x.outcome.policy_name;
        if (x.outcome.policy_name != y.outcome.policy_name) { return who + ": names differ"; }
        if (x.outcome.chips.size() != y.outcome.chips.size()) {
            return who + ": chip counts differ";
        }
        for (std::size_t i = 0; i < x.outcome.chips.size(); ++i) {
            if (!same_outcome(x.outcome.chips[i], y.outcome.chips[i])) {
                return who + ": outcome of chip " + std::to_string(i) + " differs";
            }
            if (x.snapshot_hash[i] != y.snapshot_hash[i]) {
                return who + ": snapshot of chip " + std::to_string(i) + " differs";
            }
        }
    }
    return "";
}

double percentile(std::vector<double> values, double q) {
    if (values.empty()) { return 0.0; }
    std::sort(values.begin(), values.end());
    const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(values.size() - 1, lo + 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

// ---- local runner: the library's own engines ------------------------------

iteration run_local(const workload_spec& spec, workload& w, const run_inputs& in) {
    iteration it;
    const std::size_t n = in.fleet.size();
    const std::size_t cells_expected = spec.sweep_rates.size() * spec.sweep_repeats;
    const auto t0 = bench_clock::now();
    std::optional<resilience_table> table;
    try {
        resilience_analyzer analyzer(*w.model, w.pretrained, w.train_data, w.test_data,
                                     w.array, w.trainer_cfg);
        sweep_options opts;
        opts.threads = spec.workers;
        opts.gemm_threads = spec.gemm_threads;
        opts.eval_group = spec.eval_batch_chips;
        table = analyzer.analyze(in.sweep, opts);
        it.step1_s = seconds_since(t0);
        record_table(it, *table);
    } catch (const std::exception& e) {
        it.error = std::string("Step 1: ") + e.what();
        count_failures(it, cells_expected, n);
        return it;
    }

    fleet_executor_config fc;
    fc.threads = spec.workers;
    fc.gemm_threads = spec.gemm_threads;
    fc.eval_batch_chips = spec.eval_batch_chips;
    fc.train_batch_chips = spec.train_batch_chips;
    fc.scenario = in.scenario;
    for (const auto& policy : make_policies(spec, *table)) {
        it.runs.push_back(fresh_run(n));
        policy_run& run = it.runs.back();
        fleet_executor executor(*w.model, w.pretrained, w.train_data, w.test_data, w.array,
                                w.trainer_cfg, fc);
        const auto r0 = bench_clock::now();
        executor.set_model_sink([&](const chip&, const model_snapshot& snap) {
            const std::size_t k = run.sunk++;
            run.ready_s[k] = seconds_since(r0);
            run.snapshot_hash[k] = hash_snapshot(snap);
            it.e2e_s = seconds_since(t0);
        });
        try {
            run.outcome = executor.run(*policy, in.fleet);
        } catch (const std::exception& e) {
            if (it.error.empty()) { it.error = policy->name() + ": " + e.what(); }
        }
        run.wall_s = seconds_since(r0);
        run.stats = executor.last_run_stats();
    }
    count_failures(it, cells_expected, n);
    return it;
}

// ---- traced runner: the executor's schedule from outside -------------------

namespace {

resilience_table traced_step1(const workload_spec& spec, workload& w, const run_inputs& in) {
    const std::vector<sweep_cell> cells = enumerate_sweep_cells(in.sweep);
    const thread_budget budget =
        resolve_thread_budget(spec.workers, spec.gemm_threads, cells.size());
    const std::size_t workers = std::min(budget.fleet_workers, cells.size());
    span step("resilience.step1");
    step.arg("workers", static_cast<double>(workers));
    step.arg("cells", static_cast<double>(cells.size()));
    const std::int64_t parent = step.id();
    std::vector<std::optional<resilience_table>> parts(cells.size());
    std::atomic<std::size_t> next{0};
    const scoped_intra_op_threads intra(budget.gemm_threads);
    run_workers(workers, [&]() {
        resilience_analyzer analyzer(*w.model, w.pretrained, w.train_data, w.test_data,
                                     w.array, w.trainer_cfg);
        sweep_options opts;
        opts.threads = 1;
        opts.gemm_threads = budget.gemm_threads;
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= cells.size()) { return; }
            span cell("resilience.cell", parent);
            cell.arg("rate", cells[i].fault_rate);
            parts[i] = analyzer.analyze_cells(in.sweep, {cells[i]}, opts);
            cell.arg("epochs", parts[i]->runs().front().trajectory.back().epochs);
        }
    });
    std::vector<resilience_table> shards;
    shards.reserve(parts.size());
    for (auto& part : parts) { shards.push_back(std::move(*part)); }
    return resilience_table::merge(shards);
}

/// fleet_executor::run, re-driven from outside: the same views, plan,
/// claim blocks, grouping rule and fleet-order sink, with a span around
/// every public call.
void traced_policy_run(const workload_spec& spec, workload& w, const run_inputs& in,
                       const retraining_policy& policy, policy_run& run,
                       bench_clock::time_point t0, double& e2e_s) {
    const std::vector<chip>& fleet = in.fleet;
    const std::size_t n = fleet.size();
    const double constraint = policy.accuracy_target();
    span run_span("fleet.run");
    run_span.arg("chips", static_cast<double>(n));
    const std::int64_t parent = run_span.id();
    const auto r0 = bench_clock::now();

    const resilience_table* table = policy.table();
    std::vector<chip_view> views(n);
    for (std::size_t i = 0; i < n; ++i) {
        span s("fault.effective_rate");
        views[i].index = i;
        views[i].device = &fleet[i];
        views[i].effective_fault_rate =
            effective_fault_rate(*w.model, w.array, fleet[i].faults, policy.rate_kind());
        views[i].table = table;
        views[i].epoch_budget = table != nullptr ? table->max_epochs() : 0.0;
    }
    std::vector<epoch_allocation> allocations;
    {
        span s("policy.plan");
        allocations = policy.plan(views);
        double failed = 0.0;
        for (const epoch_allocation& a : allocations) { failed += a.selection_failed ? 1 : 0; }
        s.arg("selection_failed", failed);
    }

    run.outcome.policy_name = policy.name();
    run.outcome.accuracy_constraint = constraint;
    run.outcome.chips.resize(n);
    fleet_run_stats& stats = run.stats;

    const thread_budget budget =
        resolve_thread_budget(spec.workers, spec.gemm_threads, n);
    const std::size_t claim_width = std::max<std::size_t>(
        {spec.eval_batch_chips, spec.train_batch_chips, std::size_t{1}});
    const std::size_t group = cap_group_at_fair_share(claim_width, n, budget.fleet_workers);
    const std::size_t workers = std::min(budget.fleet_workers, (n + group - 1) / group);
    const bool scenario_serial = spec.train_batch_chips > 1 && !in.scenario.empty();
    run_span.arg("workers", static_cast<double>(workers));

    std::vector<std::uint64_t> pending(n, 0);
    std::vector<bool> ready(n, false);
    std::vector<bench_clock::time_point> done_at(n);
    std::size_t next_sink = 0;
    std::mutex lock;
    std::atomic<std::size_t> next{0};

    // Caller holds `lock`. Sinks leave as a fleet-order prefix, exactly like
    // the executor's; each chip's wait between finishing and sinking is the
    // head-of-line cost of that order.
    auto flush = [&]() {
        while (next_sink < n && ready[next_sink]) {
            const auto now = bench_clock::now();
            record_span("fleet.sink_wait", done_at[next_sink], now, parent);
            run.ready_s[next_sink] = std::chrono::duration<double>(now - r0).count();
            run.snapshot_hash[next_sink] = pending[next_sink];
            e2e_s = std::chrono::duration<double>(now - t0).count();
            ++run.sunk;
            ++next_sink;
        }
    };

    auto job = [&]() {
        span worker_span("fleet.worker", parent);
        const std::int64_t wparent = worker_span.id();
        chip_tuner tuner(*w.model, w.pretrained, w.train_data, w.test_data, w.array,
                         w.trainer_cfg);
        tuner.set_capture_tuned(true);
        tuner.set_scenario(in.scenario);
        std::unique_ptr<multi_mask_evaluator> evaluator;
        std::unique_ptr<grouped_chip_tuner> gtuner;

        auto deliver = [&](std::size_t i, std::uint64_t hash) {
            done_at[i] = bench_clock::now();
            pending[i] = hash;
            ready[i] = true;
            flush();
        };
        auto tune_serial = [&](std::size_t i, std::size_t begin,
                               const std::vector<double>& before) {
            chip_outcome co;
            {
                span s("tune.chip", wparent);
                co = tuner.tune(fleet[i], allocations[i], constraint,
                                views[i].effective_fault_rate,
                                before.empty() ? std::nullopt
                                               : std::optional<double>(before[i - begin]));
                s.arg("epochs", co.epochs_run);
            }
            const std::uint64_t hash = hash_snapshot(tuner.take_tuned());
            std::lock_guard<std::mutex> guard(lock);
            run.outcome.chips[i] = co;
            ++stats.serial_train_chips;
            if (co.hit_nonfinite) { ++stats.serial_nonfinite_chips; }
            stats.timeline_events += co.events_applied;
            stats.timeline_rollbacks += co.rollbacks;
            stats.timeline_restarts += co.restarts;
            deliver(i, hash);
        };
        auto tune_grouped = [&](std::size_t s, std::size_t e, std::size_t begin,
                                const std::vector<double>& before) -> bool {
            if (!gtuner) {
                gtuner = std::make_unique<grouped_chip_tuner>(
                    *w.model, w.pretrained, w.train_data, w.test_data, w.array,
                    w.trainer_cfg);
                gtuner->set_capture_tuned(true);
            }
            const std::size_t k = e - s;
            std::vector<const chip*> chips(k);
            std::vector<const epoch_allocation*> allocs(k);
            std::vector<double> rates(k);
            std::vector<double> before_slice;
            for (std::size_t g = 0; g < k; ++g) {
                chips[g] = &fleet[s + g];
                allocs[g] = &allocations[s + g];
                rates[g] = views[s + g].effective_fault_rate;
                if (!before.empty()) { before_slice.push_back(before[s + g - begin]); }
            }
            std::vector<chip_outcome> results;
            try {
                span sp("tune_group.group", wparent);
                sp.arg("k", static_cast<double>(k));
                sp.arg("epochs", allocations[s].epochs);
                results = gtuner->tune_group(chips, allocs, constraint, rates, before_slice);
            } catch (const grouped_nonfinite_error&) {
                std::lock_guard<std::mutex> guard(lock);
                stats.nonfinite_downgrades += k;
                return false;
            }
            std::vector<std::uint64_t> hashes(k);
            for (std::size_t g = 0; g < k; ++g) { hashes[g] = hash_snapshot(gtuner->take_tuned(g)); }
            std::lock_guard<std::mutex> guard(lock);
            ++stats.grouped_train_groups;
            stats.grouped_train_chips += k;
            for (std::size_t g = 0; g < k; ++g) {
                run.outcome.chips[s + g] = results[g];
                deliver(s + g, hashes[g]);
            }
            return true;
        };

        for (;;) {
            const std::size_t begin = next.fetch_add(group);
            if (begin >= n) { return; }
            const std::size_t end = std::min(n, begin + group);
            std::vector<double> before;
            if (end - begin > 1 && spec.eval_batch_chips > 1) {
                if (!evaluator) {
                    evaluator = std::make_unique<multi_mask_evaluator>(
                        *w.model, w.pretrained, w.test_data, w.array, w.trainer_cfg);
                }
                std::vector<const fault_grid*> grids;
                for (std::size_t i = begin; i < end; ++i) { grids.push_back(&fleet[i].faults); }
                span s("eval.block", wparent);
                s.arg("k", static_cast<double>(grids.size()));
                before = evaluator->evaluate(grids);
            }
            if (spec.train_batch_chips > 1 && end - begin > 1 && !scenario_serial) {
                std::size_t s = begin;
                while (s < end) {
                    std::size_t run_end = s + 1;
                    while (run_end < end &&
                           allocations[run_end].epochs == allocations[s].epochs &&
                           allocations[run_end].train_to_target ==
                               allocations[s].train_to_target) {
                        ++run_end;
                    }
                    if (run_end - s == 1) {
                        {
                            std::lock_guard<std::mutex> guard(lock);
                            ++stats.alloc_downgrades;
                        }
                        tune_serial(s, begin, before);
                        s = run_end;
                        continue;
                    }
                    for (std::size_t c = s; c < run_end;) {
                        const std::size_t ce = std::min(run_end, c + spec.train_batch_chips);
                        const bool grouped_ok =
                            ce - c >= 2 && tune_grouped(c, ce, begin, before);
                        if (!grouped_ok) {
                            for (std::size_t i = c; i < ce; ++i) { tune_serial(i, begin, before); }
                        }
                        c = ce;
                    }
                    s = run_end;
                }
            } else {
                for (std::size_t i = begin; i < end; ++i) {
                    if (scenario_serial) {
                        std::lock_guard<std::mutex> guard(lock);
                        ++stats.scenario_downgrades;
                    }
                    tune_serial(i, begin, before);
                }
            }
        }
    };

    const scoped_intra_op_threads intra(budget.gemm_threads);
    run_workers(workers, job);
    run.wall_s = seconds_since(r0);
}

}  // namespace

iteration run_traced(const workload_spec& spec, workload& w, const run_inputs& in) {
    iteration it;
    const std::size_t n = in.fleet.size();
    const std::size_t cells_expected = spec.sweep_rates.size() * spec.sweep_repeats;
    span pass("pipeline");
    const auto t0 = bench_clock::now();
    std::optional<resilience_table> table;
    try {
        table = traced_step1(spec, w, in);
        it.step1_s = seconds_since(t0);
        record_table(it, *table);
    } catch (const std::exception& e) {
        it.error = std::string("Step 1: ") + e.what();
        count_failures(it, cells_expected, n);
        return it;
    }
    for (const auto& policy : make_policies(spec, *table)) {
        it.runs.push_back(fresh_run(n));
        try {
            traced_policy_run(spec, w, in, *policy, it.runs.back(), t0, it.e2e_s);
        } catch (const std::exception& e) {
            if (it.error.empty()) { it.error = policy->name() + ": " + e.what(); }
        }
    }
    count_failures(it, cells_expected, n);
    return it;
}

// ---- distributed runner: coordinator + loopback workers --------------------

namespace {

/// A fresh journal directory for one job, removed when the job is done.
class temp_journal {
public:
    explicit temp_journal(const std::string& root) {
        static std::atomic<std::size_t> counter{0};
        path_ = (std::filesystem::path(root) /
                 ("journal-" + std::to_string(::getpid()) + "-" +
                  std::to_string(counter.fetch_add(1))))
                    .string();
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~temp_journal() {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    const std::string& path() const { return path_; }

private:
    std::string path_;
};

/// Runs the workload's loopback workers against `port` on their own
/// threads; join() waits for all of them.
class worker_crew {
public:
    worker_crew(const workload_spec& spec, workload& w, const run_inputs& in, int port,
                std::int64_t parent) {
        reports_.resize(spec.workers);
        errors_.resize(spec.workers);
        for (std::size_t i = 0; i < spec.workers; ++i) {
            threads_.emplace_back([&, i, port, parent] {
                span s("dist.worker", parent);
                try {
                    dist::worker_config wc;
                    wc.port = port;
                    wc.name = "w" + std::to_string(i);
                    wc.gemm_threads = spec.gemm_threads;
                    dist::worker node(wc, *w.model, w.pretrained, w.train_data, w.test_data,
                                      w.array, w.trainer_cfg, in.sweep);
                    reports_[i] = node.run();
                } catch (const std::exception& e) {
                    errors_[i] = e.what();
                }
            });
        }
    }
    ~worker_crew() { join(); }
    void join() {
        for (std::thread& t : threads_) {
            if (t.joinable()) { t.join(); }
        }
    }
    std::string error() const {
        for (const std::string& e : errors_) {
            if (!e.empty()) { return e; }
        }
        return "";
    }

private:
    std::vector<std::thread> threads_;
    std::vector<dist::worker_report> reports_;
    std::vector<std::string> errors_;
};

void add_stats(dist::coordinator_stats& into, const dist::coordinator_stats& s) {
    into.leases_granted += s.leases_granted;
    into.leases_reassigned += s.leases_reassigned;
    into.duplicate_results += s.duplicate_results;
    into.stray_results += s.stray_results;
}

}  // namespace

iteration run_distributed(const workload_spec& spec, workload& w, const run_inputs& in,
                          const std::string& temp_dir) {
    iteration it;
    const std::size_t n = in.fleet.size();
    const std::size_t cells_expected = spec.sweep_rates.size() * spec.sweep_repeats;
    span pass("pipeline");
    const auto t0 = bench_clock::now();
    std::optional<resilience_table> table;
    try {
        span job_span("dist.sweep_job");
        temp_journal journal(temp_dir);
        dist::coordinator_config cc;
        cc.journal_dir = journal.path();
        dist::coordinator coord(cc, dist::sweep_job{in.sweep, ""});
        coord.start();
        worker_crew crew(spec, w, in, coord.port(), job_span.id());
        table = coord.wait_table();
        it.step1_s = seconds_since(t0);
        const auto joined_from = bench_clock::now();
        crew.join();
        it.worker_join_s += seconds_since(joined_from);
        record_span("dist.worker_join", joined_from, bench_clock::now(), job_span.id());
        add_stats(it.dist_stats, coord.stats());
        if (!crew.error().empty()) { throw std::runtime_error(crew.error()); }
        record_table(it, *table);
    } catch (const std::exception& e) {
        it.error = std::string("Step 1 (sweep_job): ") + e.what();
        count_failures(it, cells_expected, n);
        return it;
    }

    const std::string fingerprint = resilience_fingerprint(in.sweep);
    for (const auto& policy : make_policies(spec, *table)) {
        it.runs.push_back(fresh_run(n));
        policy_run& run = it.runs.back();
        try {
            span job_span("dist.fleet_job");
            const auto r0 = bench_clock::now();
            dist::fleet_job job = dist::plan_fleet_job(*w.model, w.array, *policy, in.fleet);
            job.collect_snapshots = true;
            temp_journal journal(temp_dir);
            dist::coordinator_config cc;
            cc.fingerprint = fingerprint;
            cc.journal_dir = journal.path();
            dist::coordinator coord(cc, std::move(job));
            coord.set_model_sink([&](const chip&, const model_snapshot& snap) {
                const std::size_t k = run.sunk++;
                run.ready_s[k] = seconds_since(r0);
                run.snapshot_hash[k] = hash_snapshot(snap);
                it.e2e_s = seconds_since(t0);
            });
            coord.start();
            worker_crew crew(spec, w, in, coord.port(), job_span.id());
            std::exception_ptr failure;
            try {
                run.outcome = coord.wait_fleet();
            } catch (...) {
                failure = std::current_exception();
            }
            run.wall_s = seconds_since(r0);
            const auto joined_from = bench_clock::now();
            crew.join();
            it.worker_join_s += seconds_since(joined_from);
            record_span("dist.worker_join", joined_from, bench_clock::now(), job_span.id());
            add_stats(it.dist_stats, coord.stats());
            if (failure) { throw std::runtime_error(describe(failure)); }
            if (!crew.error().empty()) { throw std::runtime_error(crew.error()); }
        } catch (const std::exception& e) {
            if (it.error.empty()) { it.error = policy->name() + " (fleet_job): " + e.what(); }
        }
    }
    count_failures(it, cells_expected, n);
    return it;
}

}  // namespace perfbench
