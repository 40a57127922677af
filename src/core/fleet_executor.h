// Parallel per-chip retraining over a fleet (Steps 2+3, executor side).
//
// The executor separates the *decision* (a retraining_policy allocating
// epochs per chip) from the *work* (chip_tuner: restore weights, mask for
// the chip's faults, run FAT, report). Work fans out over a configurable
// thread pool; results are deterministic and thread-count-independent
// because every tune starts from a per-worker clone of the prototype model
// restored to the pretrained snapshot — chip i's outcome depends only on
// chip i. Stochastic layers are reseeded per chip (mix_seed(chip.seed,
// layer)) and batch-norm running statistics are snapshot/restored by the
// fault_state_guard, so the bit-identical guarantee covers dropout and
// normalizing models too.
//
// Grouped evaluation: with eval_batch_chips > 1 a worker drains its chips
// in fleet-order blocks, computing the whole block's `accuracy_before` in
// one pass through the batched multi-mask evaluator (core/multi_mask_eval)
// before tuning each chip — one batch gather, mask materialization and
// restore per block instead of per chip, every outcome byte-identical to
// the serial path.
//
// Grouped training: with train_batch_chips > 1, same-allocation chips of a
// block retrain as one group through grouped_chip_tuner, which runs each
// chip's serial chip_tuner episode in turn (core/grouped_fat_trainer.h).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/fat_trainer.h"
#include "core/policy.h"
#include "core/resilience.h"
#include "fault/chip.h"
#include "nn/serialize.h"

namespace reduce {

/// Per-chip result of a retraining policy.
struct chip_outcome {
    std::size_t chip_id = 0;
    double nominal_fault_rate = 0.0;
    double effective_fault_rate = 0.0;
    double masked_weight_fraction = 0.0;
    double epochs_allocated = 0.0;
    double epochs_run = 0.0;
    double accuracy_before = 0.0;  ///< after FAP, before retraining
    double final_accuracy = 0.0;
    bool meets_constraint = false;
    bool selection_failed = false;  ///< table deemed the target unreachable
    /// Fault-timeline accounting (all zero when no scenario is active).
    std::size_t events_applied = 0;  ///< timeline events fired mid-retraining
    std::size_t rollbacks = 0;       ///< recoveries to the last finite checkpoint
    std::size_t restarts = 0;        ///< restart-from-scratch resets at events
    /// Retraining diverged to non-finite state and stopped early;
    /// final_accuracy is reported as exactly 0.0, never a propagated NaN.
    bool hit_nonfinite = false;
};

/// Fleet-level summary of a policy run (one panel of Fig. 3).
struct policy_outcome {
    std::string policy_name;
    double accuracy_constraint = 0.0;
    std::vector<chip_outcome> chips;

    /// Average retraining epochs per chip (x-axis of Fig. 3f).
    double mean_epochs() const;

    /// Total epochs across the fleet (the aggregate cost Reduce minimizes).
    double total_epochs() const;

    /// Fraction of chips with final accuracy >= constraint (y-axis of
    /// Fig. 3f), in [0, 1].
    double fraction_meeting() const;
};

/// Hook invoked after each chip is tuned — the "distribute the fault-aware
/// DNN to its chip" step. Receives the chip and the tuned weights. The
/// executor streams sinks as a fleet-order prefix (chip i sinks once chips
/// 0..i have finished), so the callback sequence is identical at any thread
/// count while snapshot memory stays bounded by worker skew. Called under
/// the executor's lock, possibly from a worker thread.
using model_sink = std::function<void(const chip&, const model_snapshot&)>;

/// Progress hook: (chips completed so far, fleet size, the outcome that just
/// finished). Invoked under a lock in completion order — safe to touch
/// shared state from the callback, but completion order is thread-timing
/// dependent; only the *set* of calls is deterministic.
using progress_sink =
    std::function<void(std::size_t completed, std::size_t total, const chip_outcome&)>;

/// Self-contained per-chip retraining worker. Owns a deep clone of the
/// prototype model, so concurrent tuners never share mutable state; the
/// referenced datasets/snapshot are read-only and shared.
class chip_tuner {
public:
    /// Clones `prototype`; the references must outlive the tuner.
    chip_tuner(const sequential& prototype, const model_snapshot& pretrained,
               const dataset& train_data, const dataset& test_data,
               const array_config& array, fat_config trainer_cfg);

    /// Restores the pretrained weights, masks for the chip's faults, trains
    /// per the allocation, and reports the outcome. The owned model is back
    /// in the clean pretrained state on return — also when training throws.
    /// Dropout layers are reseeded from mix_seed(c.seed, layer) so the
    /// episode is a function of the chip alone, not of worker history.
    ///
    /// `accuracy_before` injects a precomputed post-FAP accuracy (from the
    /// grouped multi-mask evaluator); when absent the tuner evaluates
    /// serially. An injected value computed on the same pretrained weights
    /// and fault grid leaves the outcome byte-identical.
    chip_outcome tune(const chip& c, const epoch_allocation& alloc, double constraint,
                      double effective_rate,
                      std::optional<double> accuracy_before = std::nullopt);

    /// When enabled, tune() captures the tuned weights AND module state
    /// buffers (batch-norm running statistics) pre-restore so the executor
    /// can feed model sinks a fully deployable snapshot. Off by default —
    /// snapshots cost memory.
    void set_capture_tuned(bool capture) { capture_tuned_ = capture; }

    /// Tuned weights of the last tune() (requires set_capture_tuned(true)).
    const model_snapshot& last_tuned() const { return last_tuned_; }

    /// Moves the last tune()'s captured weights out of the tuner.
    model_snapshot take_tuned() { return std::move(last_tuned_); }

    /// Installs a fault-event timeline scenario: every subsequent tune()
    /// derives the chip's timeline as timeline_for_chip(scenario, c.id) —
    /// a pure function of the scenario and the chip id, so distributed
    /// workers and the local path replay identical event sequences — and
    /// runs the trainer with mid-run event hooks (events mutate a working
    /// COPY of the chip's fault grid; the fleet descriptor is never
    /// touched). An empty scenario (the default) disables timelines.
    void set_scenario(scenario_config scenario) { scenario_ = std::move(scenario); }

private:
    std::unique_ptr<sequential> model_;
    const model_snapshot& pretrained_;
    const dataset& train_data_;
    const dataset& test_data_;
    array_config array_;
    fat_config trainer_cfg_;
    bool capture_tuned_ = false;
    model_snapshot last_tuned_;
    scenario_config scenario_;
};

/// Executor knobs.
struct fleet_executor_config {
    /// Worker threads for the fan-out; 0 → hardware concurrency. The thread
    /// count never changes per-chip outcomes, only wall-clock time.
    std::size_t threads = 1;
    /// Intra-op (GEMM/conv-lowering) threads each worker's tensor kernels
    /// may use (--gemm-threads); 0 → hardware concurrency. Applied for the
    /// duration of run()/analyze() via the process-wide intra-op budget and
    /// restored afterwards. The two-level product is guarded against
    /// oversubscription: with more than one worker, gemm threads shrink so
    /// workers x gemm_threads never exceeds the hardware thread count (see
    /// resolve_thread_budget). Never changes outcomes — the tensor kernels
    /// are bit-identical at any intra-op budget.
    std::size_t gemm_threads = 1;
    /// Chips whose accuracy_before evaluations share one grouped pass
    /// (--eval-batch-chips). 0 or 1 → serial per-chip evaluation. Grouping
    /// never changes outcomes (byte-identical contract of
    /// multi_mask_evaluator), only wall-clock time and peak memory (one
    /// group holds K masked weight sets).
    /// The executor caps the effective group at an even fleet/worker split
    /// so an oversized value cannot starve worker threads of chips. Blocks
    /// are also the unit workers claim, so grouping coarsens load balancing
    /// toward the slowest BLOCK (not chip) — keep groups modest (~8) when
    /// per-chip training time varies widely.
    std::size_t eval_batch_chips = 1;
    /// Chips retrained as one group by a grouped_chip_tuner
    /// (--train-batch-chips). 0 or 1 → serial per-chip training.
    /// Within a claimed block, only chips with the SAME allocation (epochs
    /// and train_to_target) share a group — a group is one training plan;
    /// mismatched chips run serially and are counted in
    /// fleet_run_stats::alloc_downgrades. Grouping never changes outcomes
    /// (byte-identical contract of grouped_chip_tuner); a chip that
    /// diverges to non-finite state makes the whole group fall back to the
    /// serial path (nonfinite_downgrades) — loudly, never silently wrong.
    std::size_t train_batch_chips = 1;
    /// Fault-event timeline applied to every chip (per-chip event contents
    /// derive from timeline_for_chip(scenario, chip.id)). Non-empty
    /// scenarios force timeline chips OFF the grouped-training path —
    /// grouped tuning runs no fault timeline — with the downgrade
    /// logged and counted in fleet_run_stats::scenario_downgrades. Grouped
    /// accuracy_before evaluation is unaffected (epoch-0 is pre-event).
    scenario_config scenario{};
};

/// Observability counters for one run(): how much of the fleet actually
/// trained grouped vs serially, and why chips fell back. Downgrades are
/// NEVER silent — they are logged when they happen and tallied here.
struct fleet_run_stats {
    std::size_t grouped_train_groups = 0;  ///< training groups executed
    std::size_t grouped_train_chips = 0;   ///< chips tuned inside those groups
    std::size_t serial_train_chips = 0;    ///< chips tuned by the serial path
    /// Chips that could not join a group because their allocation differs
    /// from every neighbour's in the claimed block.
    std::size_t alloc_downgrades = 0;
    /// Chips re-run serially after their group hit non-finite state
    /// (grouped_nonfinite_error).
    std::size_t nonfinite_downgrades = 0;
    /// Timeline-carrying chips forced off the grouped-training path (a
    /// non-empty executor scenario downgrades the whole fleet to serial).
    std::size_t scenario_downgrades = 0;
    /// Serial tunes that ended hit_nonfinite (diverged after exhausting any
    /// rollback budget; outcome reports final_accuracy 0.0, never NaN).
    std::size_t serial_nonfinite_chips = 0;
    /// Fleet-wide timeline accounting, summed over chip outcomes.
    std::size_t timeline_events = 0;
    std::size_t timeline_rollbacks = 0;
    std::size_t timeline_restarts = 0;
};

/// Runs a retraining policy over a fleet, one chip_tuner per worker.
class fleet_executor {
public:
    /// References must outlive the executor; `pretrained` is the golden
    /// snapshot every chip's retraining starts from. The prototype model is
    /// only read (cloned and rate-estimated), never mutated.
    fleet_executor(sequential& model, const model_snapshot& pretrained,
                   const dataset& train_data, const dataset& test_data,
                   const array_config& array, fat_config trainer_cfg,
                   fleet_executor_config cfg = {});

    /// Step 1 convenience wrapper: runs the sweep on the executor's thread
    /// budget (cfg_.threads) and grouped-eval budget (eval_batch_chips →
    /// sweep_options::eval_group). Results are bit-identical at any thread
    /// count and any grouping.
    resilience_table analyze(const resilience_config& cfg);

    /// Step 1 with explicit execution knobs (thread count, shard split) —
    /// see resilience_analyzer::analyze for the determinism contract.
    resilience_table analyze(const resilience_config& cfg, const sweep_options& opts);

    /// Steps 2+3: allocates epochs via the policy, tunes every chip, and
    /// aggregates. `run_name` overrides the reported policy name (empty →
    /// policy.name()). Outcomes are ordered by fleet position and identical
    /// at any thread count. If any chip's tuning throws, workers stop picking
    /// up new chips and the first exception is re-thrown to the caller.
    policy_outcome run(const retraining_policy& policy, const std::vector<chip>& fleet,
                       const std::string& run_name = "");

    /// Installs the tuned-model hook (pass nullptr to remove).
    void set_model_sink(model_sink sink) { sink_ = std::move(sink); }

    /// Installs the progress hook (pass nullptr to remove).
    void set_progress_sink(progress_sink sink) { progress_ = std::move(sink); }

    const fleet_executor_config& config() const { return cfg_; }

    /// Counters of the most recent run() (reset at each run's start).
    const fleet_run_stats& last_run_stats() const { return stats_; }

private:
    sequential& model_;
    const model_snapshot& pretrained_;
    const dataset& train_data_;
    const dataset& test_data_;
    array_config array_;
    fat_config trainer_cfg_;
    fleet_executor_config cfg_;
    model_sink sink_;
    progress_sink progress_;
    fleet_run_stats stats_;
};

}  // namespace reduce
