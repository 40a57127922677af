// Grouped retraining — one same-allocation group of chips, tuned per chip.
//
// grouped_chip_tuner is the executor's unit for a group of chips that share
// one epoch allocation (--train-batch-chips). It tunes each chip of the
// group in turn with chip_tuner::tune on one owned clone — the serial
// episode itself — so every chip_outcome, trajectory, and captured snapshot
// is byte-identical to the serial path at every group size K and every
// --gemm-threads. The group stays a scheduling unit (claim width, the
// same-allocation runs and their counters in fleet_run_stats); it is not a
// second training loop.
//
// Non-finite divergence keeps its loud fallback: when a chip's serial
// episode ends hit_nonfinite, tune_group throws grouped_nonfinite_error,
// and the fleet executor re-runs the whole group serially (counted in
// fleet_run_stats::nonfinite_downgrades).
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "core/fat_trainer.h"
#include "core/fleet_executor.h"
#include "core/policy.h"
#include "fault/chip.h"
#include "nn/serialize.h"

namespace reduce {

/// Thrown when a chip of a group diverges to non-finite state. The
/// tuner's clone is already restored (chip_tuner's guard); callers fall
/// back to the serial per-chip path.
class grouped_nonfinite_error : public std::runtime_error {
public:
    explicit grouped_nonfinite_error(const std::string& what)
        : std::runtime_error(what) {}
};

/// Retraining worker over groups of chips. Owns one chip_tuner (one deep
/// clone of the prototype), so concurrent tuners never share mutable
/// state; the referenced datasets/snapshot are read-only and shared.
class grouped_chip_tuner {
public:
    /// Clones `prototype`; all references must outlive the tuner.
    grouped_chip_tuner(const sequential& prototype, const model_snapshot& pretrained,
                       const dataset& train_data, const dataset& test_data,
                       const array_config& array, fat_config trainer_cfg);

    /// Like chip_tuner::set_capture_tuned: capture per-chip deployable
    /// snapshots (parameters + state buffers) during tune_group.
    void set_capture_tuned(bool capture) { capture_tuned_ = capture; }

    /// Tunes `chips` in order. Every allocation must be IDENTICAL in
    /// epochs and train_to_target (REDUCE_CHECK — the executor only groups
    /// same-allocation runs; selection_failed may differ, it is only
    /// reported). `accuracy_before` injects precomputed post-FAP accuracies
    /// (one per chip, from the grouped evaluator); pass empty to evaluate
    /// each chip's epoch-0 point here.
    ///
    /// Returns one chip_outcome per chip, byte-identical to serial
    /// chip_tuner::tune. Throws grouped_nonfinite_error when a chip
    /// diverges (see header note); the clone is restored on every exit.
    std::vector<chip_outcome> tune_group(const std::vector<const chip*>& chips,
                                         const std::vector<const epoch_allocation*>& allocs,
                                         double constraint,
                                         const std::vector<double>& effective_rates,
                                         const std::vector<double>& accuracy_before);

    /// Moves chip g's captured snapshot out (requires set_capture_tuned).
    model_snapshot take_tuned(std::size_t g);

private:
    chip_tuner tuner_;
    bool capture_tuned_ = false;
    std::vector<model_snapshot> tuned_;
};

}  // namespace reduce
