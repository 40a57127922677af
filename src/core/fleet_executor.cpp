#include "core/fleet_executor.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "core/grouped_fat_trainer.h"
#include "core/multi_mask_eval.h"
#include "fault/mask_builder.h"
#include "tensor/workspace.h"
#include "util/error.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace reduce {

double policy_outcome::mean_epochs() const {
    if (chips.empty()) { return 0.0; }
    return total_epochs() / static_cast<double>(chips.size());
}

double policy_outcome::total_epochs() const {
    double total = 0.0;
    for (const chip_outcome& c : chips) { total += c.epochs_run; }
    return total;
}

double policy_outcome::fraction_meeting() const {
    if (chips.empty()) { return 0.0; }
    std::size_t meeting = 0;
    for (const chip_outcome& c : chips) {
        if (c.meets_constraint) { ++meeting; }
    }
    return static_cast<double>(meeting) / static_cast<double>(chips.size());
}

chip_tuner::chip_tuner(const sequential& prototype, const model_snapshot& pretrained,
                       const dataset& train_data, const dataset& test_data,
                       const array_config& array, fat_config trainer_cfg)
    : model_(clone_model(prototype)),
      pretrained_(pretrained),
      train_data_(train_data),
      test_data_(test_data),
      array_(array),
      trainer_cfg_(trainer_cfg) {}

chip_outcome chip_tuner::tune(const chip& c, const epoch_allocation& alloc,
                              double constraint, double effective_rate,
                              std::optional<double> accuracy_before) {
    restore_parameters(model_->parameters(), pretrained_);
    // Episode seeding: dropout streams depend on the chip alone, never on
    // what this tuner ran before — the thread-count-independence fix for
    // stochastic models.
    reseed_stochastic_layers(*model_, c.seed);
    // The guard clears masks, re-restores the weights, and restores state
    // buffers (batch-norm running statistics) on every exit path, so a
    // throwing train() cannot leave the tuner's model corrupted.
    fault_state_guard guard(*model_, pretrained_);
    // Timeline events mutate a working COPY of the chip's grid; the fleet's
    // descriptor stays pristine (and with no scenario the copy is inert).
    fault_grid working = c.faults;
    const mask_stats stats = attach_fault_masks(*model_, array_, working);

    // Scenario → trainer hooks. The timeline seed is a pure function of
    // (scenario.seed, chip id), so any worker on any machine replays the
    // same event contents for this chip.
    const fault_timeline timeline = timeline_for_chip(scenario_, c.id);
    train_event_hooks hooks;
    const train_event_hooks* hooks_ptr = nullptr;
    if (!scenario_.empty()) {
        hooks.event_epochs.reserve(scenario_.events.size());
        for (const fault_event& ev : scenario_.events) {
            hooks.event_epochs.push_back(ev.epoch);
        }
        hooks.mode = scenario_.mode;
        hooks.rollback_budget = scenario_.rollback_budget;
        hooks.on_event = [&](std::size_t event_index) {
            apply_fault_event(working, timeline, event_index);
            guard.swap_masks(array_, working);
        };
        hooks_ptr = &hooks;
    }

    fault_aware_trainer trainer(*model_, train_data_, test_data_, trainer_cfg_);
    chip_outcome outcome;
    outcome.chip_id = c.id;
    outcome.nominal_fault_rate = c.nominal_fault_rate;
    outcome.effective_fault_rate = effective_rate;
    outcome.masked_weight_fraction = stats.masked_fraction();
    outcome.epochs_allocated = alloc.epochs;
    outcome.selection_failed = alloc.selection_failed;
    // Post-FAP accuracy: injected by the grouped evaluator, or computed
    // here. Either way the value doubles as the trainers' epoch-0
    // trajectory point below — evaluate() is pure for a fixed model state,
    // so reusing it skips a redundant pass without changing any number.
    outcome.accuracy_before =
        accuracy_before.has_value() ? *accuracy_before : trainer.evaluate();
    const std::optional<double> epoch0(outcome.accuracy_before);

    if (alloc.train_to_target && alloc.epochs > 0.0) {
        // Oracle accounting: run the budget on the shared checkpoint grid and
        // charge only up to the first checkpoint that meets the target.
        const std::vector<double> grid = make_eval_grid(alloc.epochs, 1.0, 0.05, 0.5);
        const fat_result result = trainer.train(alloc.epochs, grid, epoch0, hooks_ptr);
        outcome.events_applied = result.events_applied;
        outcome.rollbacks = result.rollbacks;
        outcome.restarts = result.restarts;
        outcome.hit_nonfinite = result.hit_nonfinite;
        const std::optional<double> reached =
            epochs_to_reach(result.trajectory, constraint);
        if (reached.has_value()) {
            outcome.epochs_run = *reached;
            outcome.final_accuracy = accuracy_at_epochs(result.trajectory, *reached);
            // The charge stops at *reached: a divergence past that point is
            // outside the charged (and replayed) run, so the outcome is the
            // finite prefix, not the non-finite tail.
            outcome.hit_nonfinite = false;
            if (capture_tuned_ && *reached < result.epochs_run) {
                // The model now holds the full-budget weights; re-train to the
                // charged checkpoint so the distributed snapshot matches the
                // reported accuracy (training is deterministic per config, so
                // this replays the exact prefix of the budget run — dropout
                // included, thanks to the re-reseed).
                restore_parameters(model_->parameters(), pretrained_);
                reseed_stochastic_layers(*model_, c.seed);
                if (hooks_ptr != nullptr) {
                    // The replay must start from the chip's ORIGINAL grid:
                    // the timeline re-fires its events (same seeds, same
                    // contents) from the same step boundaries, so the prefix
                    // is exact — event evolution included.
                    working = c.faults;
                    guard.swap_masks(array_, working);
                }
                // The replay's fat_result is discarded — only the weights it
                // leaves behind matter — so inject the known epoch-0 value
                // rather than paying another full test-set pass.
                (void)trainer.train(*reached, {}, epoch0, hooks_ptr);
            }
        } else {
            outcome.epochs_run = result.epochs_run;
            outcome.final_accuracy = result.final_accuracy;
        }
    } else {
        const fat_result result = trainer.train(alloc.epochs, {}, epoch0, hooks_ptr);
        outcome.epochs_run = result.epochs_run;
        outcome.final_accuracy = result.final_accuracy;
        outcome.events_applied = result.events_applied;
        outcome.rollbacks = result.rollbacks;
        outcome.restarts = result.restarts;
        outcome.hit_nonfinite = result.hit_nonfinite;
    }
    outcome.meets_constraint = outcome.final_accuracy >= constraint;

    // Full deployable capture: parameters AND state buffers (batch-norm
    // running statistics), taken before the guard's restore — a model-sink
    // consumer deploying a tuned BN snapshot must evaluate with the
    // statistics behind the reported final_accuracy, not the pretrained
    // ones.
    if (capture_tuned_) { last_tuned_ = snapshot_model(*model_); }
    return outcome;
}

fleet_executor::fleet_executor(sequential& model, const model_snapshot& pretrained,
                               const dataset& train_data, const dataset& test_data,
                               const array_config& array, fat_config trainer_cfg,
                               fleet_executor_config cfg)
    : model_(model),
      pretrained_(pretrained),
      train_data_(train_data),
      test_data_(test_data),
      array_(array),
      trainer_cfg_(trainer_cfg),
      cfg_(cfg) {}

resilience_table fleet_executor::analyze(const resilience_config& cfg) {
    sweep_options opts;
    opts.threads = cfg_.threads;
    opts.gemm_threads = cfg_.gemm_threads;
    opts.eval_group = cfg_.eval_batch_chips;
    return analyze(cfg, opts);
}

resilience_table fleet_executor::analyze(const resilience_config& cfg,
                                         const sweep_options& opts) {
    resilience_analyzer analyzer(model_, pretrained_, train_data_, test_data_, array_,
                                 trainer_cfg_);
    return analyzer.analyze(cfg, opts);
}

policy_outcome fleet_executor::run(const retraining_policy& policy,
                                   const std::vector<chip>& fleet,
                                   const std::string& run_name) {
    REDUCE_CHECK(!fleet.empty(), "fleet executor run over an empty fleet");
    const double constraint = policy.accuracy_target();
    REDUCE_CHECK(constraint >= 0.0 && constraint <= 1.0,
                 "accuracy constraint must be a fraction in [0, 1], got " << constraint);

    // Per-chip views. Rate estimation only reads layer geometry — cheap
    // enough to stay serial, which keeps view order trivially deterministic.
    const resilience_table* table = policy.table();
    std::vector<chip_view> views;
    views.reserve(fleet.size());
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        chip_view view;
        view.index = i;
        view.device = &fleet[i];
        view.effective_fault_rate =
            effective_fault_rate(model_, array_, fleet[i].faults, policy.rate_kind());
        view.table = table;
        view.epoch_budget = table != nullptr ? table->max_epochs() : 0.0;
        views.push_back(view);
    }

    const std::vector<epoch_allocation> allocations = policy.plan(views);
    REDUCE_CHECK(allocations.size() == fleet.size(),
                 "policy '" << policy.name() << "' planned " << allocations.size()
                            << " allocations for " << fleet.size() << " chips");

    policy_outcome outcome;
    outcome.policy_name = run_name.empty() ? policy.name() : run_name;
    outcome.accuracy_constraint = constraint;
    outcome.chips.resize(fleet.size());
    stats_ = fleet_run_stats{};

    // Completed-but-not-yet-sunk snapshots. Flushed as a fleet-order prefix
    // so memory stays bounded by worker skew, not O(fleet).
    std::vector<model_snapshot> pending;
    std::vector<bool> ready;
    std::size_t next_sink = 0;
    if (sink_) {
        pending.resize(fleet.size());
        ready.assign(fleet.size(), false);
    }

    // Chips are claimed in fleet-order blocks — one grouped
    // accuracy_before pass per block when grouping is on. The claim width
    // is the eval group CAPPED at an even fleet/worker split, so a huge
    // --eval-batch-chips can shrink its grouping benefit but never
    // serialize the fleet onto one worker. Block membership is a pure
    // function of fleet order and the worker count, and grouping never
    // changes values, so outcomes stay identical either way.
    //
    // Two-level budget: fleet workers fan out over chips while each
    // worker's tensor kernels draw on the (guarded) intra-op budget — see
    // resolve_thread_budget for the oversubscription rule. Neither level
    // changes a single outcome bit.
    const thread_budget budget =
        resolve_thread_budget(cfg_.threads, cfg_.gemm_threads, fleet.size());
    const std::size_t worker_budget = budget.fleet_workers;
    // The claim width serves BOTH grouping knobs: a block is the unit of
    // grouped accuracy_before evaluation AND the pool grouped training
    // carves same-allocation runs from.
    const std::size_t claim_width = std::max<std::size_t>(
        {cfg_.eval_batch_chips, cfg_.train_batch_chips, std::size_t{1}});
    const std::size_t group =
        cap_group_at_fair_share(claim_width, fleet.size(), worker_budget);
    // Spawn no more workers than there are claimable blocks — a surplus
    // worker would deep-clone a tuner model just to find the queue empty.
    const std::size_t workers =
        std::min(worker_budget, (fleet.size() + group - 1) / group);
    // Grouped tuning runs no fault timeline, so a non-empty scenario
    // downgrades the whole fleet to the serial path, loudly.
    const bool scenario_serial = cfg_.train_batch_chips > 1 && !cfg_.scenario.empty();
    if (scenario_serial) {
        LOG_WARN << outcome.policy_name << ": fault timeline active ("
                 << cfg_.scenario.events.size() << " events) — grouped retraining "
                 << "(--train-batch-chips " << cfg_.train_batch_chips
                 << ") downgraded to serial for all " << fleet.size() << " chips";
    }
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::size_t completed = 0;  // guarded by progress_mutex
    std::mutex progress_mutex;
    auto worker = [&]() {
        chip_tuner tuner(model_, pretrained_, train_data_, test_data_, array_,
                         trainer_cfg_);
        // Per-worker scratch: the tuner's retraining loops draw im2col/GEMM
        // buffers from this thread's arena, warmed by the first chip and
        // reused for every chip after it.
        workspace& arena = workspace::local();
        tuner.set_capture_tuned(static_cast<bool>(sink_));
        tuner.set_scenario(cfg_.scenario);
        // Grouped engines are built lazily: a worker that never claims a
        // multi-chip block (ragged tails, tiny fleets) never clones for them.
        std::unique_ptr<multi_mask_evaluator> evaluator;
        std::unique_ptr<grouped_chip_tuner> gtuner;

        // Sink flushing — caller must hold progress_mutex. Snapshots leave
        // as a fleet-order prefix regardless of completion order.
        auto flush_sinks = [&]() {
            while (next_sink < fleet.size() && ready[next_sink]) {
                sink_(fleet[next_sink], pending[next_sink]);
                pending[next_sink] = model_snapshot{};  // free eagerly
                ++next_sink;
            }
        };

        // Serial per-chip path (also the fallback target of every grouped
        // downgrade). `before` spans [begin, end) when grouped evaluation ran.
        auto tune_serial = [&](std::size_t i, std::size_t begin,
                               const std::vector<double>& before) {
            outcome.chips[i] = tuner.tune(
                fleet[i], allocations[i], constraint, views[i].effective_fault_rate,
                before.empty() ? std::nullopt
                               : std::optional<double>(before[i - begin]));
            LOG_DEBUG << outcome.policy_name << ": chip " << fleet[i].id
                      << " rate=" << views[i].effective_fault_rate
                      << " epochs=" << allocations[i].epochs
                      << " acc=" << outcome.chips[i].final_accuracy;
            // Count, notify, and sink under one lock: the reported
            // 'completed' sequence is strictly increasing and sinks fire in
            // fleet order regardless of which worker finished first.
            const chip_outcome& co = outcome.chips[i];
            if (co.hit_nonfinite) {
                LOG_WARN << outcome.policy_name << ": chip " << fleet[i].id
                         << " retraining diverged to non-finite state (reported "
                         << "accuracy 0.0, " << co.rollbacks << " rollbacks used)";
            }
            std::lock_guard<std::mutex> lock(progress_mutex);
            ++stats_.serial_train_chips;
            if (co.hit_nonfinite) { ++stats_.serial_nonfinite_chips; }
            stats_.timeline_events += co.events_applied;
            stats_.timeline_rollbacks += co.rollbacks;
            stats_.timeline_restarts += co.restarts;
            ++completed;
            if (progress_) { progress_(completed, fleet.size(), outcome.chips[i]); }
            if (sink_) {
                pending[i] = tuner.take_tuned();
                ready[i] = true;
                flush_sinks();
            }
        };

        // Grouped path over the same-allocation run [s, e). Returns false
        // when the group hit non-finite state — the caller re-runs it
        // serially (the downgrade is logged AND counted, never silent).
        auto tune_grouped = [&](std::size_t s, std::size_t e, std::size_t begin,
                                const std::vector<double>& before) -> bool {
            if (!gtuner) {
                gtuner = std::make_unique<grouped_chip_tuner>(
                    model_, pretrained_, train_data_, test_data_, array_, trainer_cfg_);
                gtuner->set_capture_tuned(static_cast<bool>(sink_));
            }
            const std::size_t k = e - s;
            std::vector<const chip*> chips(k);
            std::vector<const epoch_allocation*> allocs(k);
            std::vector<double> rates(k);
            std::vector<double> before_slice;
            if (!before.empty()) { before_slice.resize(k); }
            for (std::size_t g = 0; g < k; ++g) {
                chips[g] = &fleet[s + g];
                allocs[g] = &allocations[s + g];
                rates[g] = views[s + g].effective_fault_rate;
                if (!before.empty()) { before_slice[g] = before[s + g - begin]; }
            }
            std::vector<chip_outcome> results;
            try {
                results = gtuner->tune_group(chips, allocs, constraint, rates, before_slice);
            } catch (const grouped_nonfinite_error& err) {
                LOG_WARN << outcome.policy_name << ": grouped retraining of chips ["
                         << fleet[s].id << ".." << fleet[e - 1].id
                         << "] downgraded to serial: " << err.what();
                std::lock_guard<std::mutex> lock(progress_mutex);
                stats_.nonfinite_downgrades += k;
                return false;
            }
            for (std::size_t g = 0; g < k; ++g) {
                const std::size_t i = s + g;
                outcome.chips[i] = results[g];
                LOG_DEBUG << outcome.policy_name << ": chip " << fleet[i].id
                          << " rate=" << views[i].effective_fault_rate
                          << " epochs=" << allocations[i].epochs
                          << " acc=" << outcome.chips[i].final_accuracy << " (grouped x"
                          << k << ")";
                std::lock_guard<std::mutex> lock(progress_mutex);
                if (g == 0) {
                    ++stats_.grouped_train_groups;
                    stats_.grouped_train_chips += k;
                }
                ++completed;
                if (progress_) { progress_(completed, fleet.size(), outcome.chips[i]); }
                if (sink_) {
                    pending[i] = gtuner->take_tuned(g);
                    ready[i] = true;
                    flush_sinks();
                }
            }
            return true;
        };

        for (;;) {
            // Stop picking up work once any chip has failed — the whole
            // outcome is void, so finishing the fleet would be wasted epochs.
            if (failed.load(std::memory_order_relaxed)) { return; }
            const std::size_t begin = next.fetch_add(group);
            if (begin >= fleet.size()) {
                LOG_DEBUG << "fleet worker done; arena high-water "
                          << arena.peak_floats() * sizeof(float) << " bytes";
                return;
            }
            const std::size_t end = std::min(fleet.size(), begin + group);
            std::vector<double> before;
            try {
                if (end - begin > 1 && cfg_.eval_batch_chips > 1) {
                    if (!evaluator) {
                        evaluator = std::make_unique<multi_mask_evaluator>(
                            model_, pretrained_, test_data_, array_, trainer_cfg_);
                    }
                    std::vector<const fault_grid*> grids;
                    grids.reserve(end - begin);
                    for (std::size_t i = begin; i < end; ++i) {
                        grids.push_back(&fleet[i].faults);
                    }
                    before = evaluator->evaluate(grids);
                }
                if (cfg_.train_batch_chips > 1 && end - begin > 1 && !scenario_serial) {
                    // Carve the block into maximal same-allocation runs —
                    // a group is one training plan, so only chips with
                    // identical (epochs, train_to_target) group.
                    std::size_t s = begin;
                    while (s < end) {
                        if (failed.load(std::memory_order_relaxed)) { return; }
                        std::size_t run_end = s + 1;
                        while (run_end < end &&
                               allocations[run_end].epochs == allocations[s].epochs &&
                               allocations[run_end].train_to_target ==
                                   allocations[s].train_to_target) {
                            ++run_end;
                        }
                        if (run_end - s == 1) {
                            // Isolated by allocation mismatch: loud serial
                            // downgrade (logged at debug, counted always).
                            {
                                std::lock_guard<std::mutex> lock(progress_mutex);
                                ++stats_.alloc_downgrades;
                            }
                            tune_serial(s, begin, before);
                            s = run_end;
                            continue;
                        }
                        for (std::size_t c = s; c < run_end;) {
                            if (failed.load(std::memory_order_relaxed)) { return; }
                            const std::size_t ce =
                                std::min(run_end, c + cfg_.train_batch_chips);
                            bool grouped_ok = false;
                            if (ce - c >= 2) {
                                grouped_ok = tune_grouped(c, ce, begin, before);
                            }
                            if (!grouped_ok) {
                                for (std::size_t i = c; i < ce; ++i) {
                                    if (failed.load(std::memory_order_relaxed)) { return; }
                                    tune_serial(i, begin, before);
                                }
                            }
                            c = ce;
                        }
                        s = run_end;
                    }
                } else {
                    for (std::size_t i = begin; i < end; ++i) {
                        if (failed.load(std::memory_order_relaxed)) { return; }
                        if (scenario_serial) {
                            std::lock_guard<std::mutex> lock(progress_mutex);
                            ++stats_.scenario_downgrades;
                        }
                        tune_serial(i, begin, before);
                    }
                }
            } catch (...) {
                failed.store(true, std::memory_order_relaxed);
                throw;
            }
        }
    };

    const scoped_intra_op_threads intra(budget.gemm_threads);
    run_workers(workers, worker);
    if (cfg_.train_batch_chips > 1) {
        LOG_INFO << outcome.policy_name << ": grouped retraining "
                 << stats_.grouped_train_chips << "/" << fleet.size() << " chips in "
                 << stats_.grouped_train_groups << " groups, "
                 << stats_.serial_train_chips << " serial ("
                 << stats_.alloc_downgrades << " allocation downgrades, "
                 << stats_.nonfinite_downgrades << " non-finite downgrades, "
                 << stats_.scenario_downgrades << " scenario downgrades)";
    }
    if (!cfg_.scenario.empty()) {
        LOG_INFO << outcome.policy_name << ": fault timeline fired "
                 << stats_.timeline_events << " events across the fleet ("
                 << stats_.timeline_rollbacks << " rollbacks, "
                 << stats_.timeline_restarts << " restarts, "
                 << stats_.serial_nonfinite_chips << " non-finite chips)";
    }
    return outcome;
}

}  // namespace reduce
