// Batched multi-variant retraining — K chips' FAT episodes in lockstep.
//
// PR 4 batched the fleet's *evaluation* (multi_mask_eval); retraining stayed
// strictly serial per chip, which leaves the executor paying the per-layer
// fixed costs (conv lowering, scatter, allocation, fork/join) once per chip
// per step. grouped_chip_tuner batches the training loop itself: K
// fault-masked clones advance through the SAME shuffled batch sequence in
// lockstep on a variant-stacked batch, sharing one batch gather, one stacked
// walker pass per layer (per-variant A and B operands — after the first
// optimizer step every variant owns different weights), and one optimizer
// sweep over the K per-variant SGD states.
//
// Determinism contract: every chip_outcome, trajectory point, and captured
// snapshot is byte-identical to running chip_tuner::tune serially on the
// same chip — at every group size K and every --gemm-threads. The pieces:
//   * the loader is shared, so each variant sees the exact serial batch
//     sequence (and BN variants see the exact serial batch statistics —
//     blocks slice per variant through each clone's own layers);
//   * per-variant losses are computed on each block independently (CE
//     normalizes by its own block's N = the serial batch size);
//   * the walker's grouped GEMMs run the serial kernels per block
//     (never-split-K), and the optimizer sweep steps each variant's own
//     sgd — inside a parallel region its element loops gate off, so the
//     fan-out over variants never changes a bit;
//   * clones are reseeded per chip (mix_seed(chip.seed, layer)) and wrapped
//     in fault_state_guard, exactly like the serial tuner.
//
// Non-finite divergence is the one thing the grouped path does not handle
// itself (the serial trainer stops such a run with hit_nonfinite, and
// rolls it back under a recover timeline), so it FAILS LOUDLY instead:
// a non-finite per-variant loss or a non-finite mapped weight at any
// checkpoint throws grouped_nonfinite_error, the guards restore every
// clone, and the fleet executor re-runs the whole block serially (counted
// in fleet_run_stats::nonfinite_downgrades).
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fat_trainer.h"
#include "core/fleet_executor.h"
#include "core/policy.h"
#include "fault/chip.h"
#include "nn/serialize.h"

namespace reduce {

/// Thrown when a grouped training episode meets non-finite state (a
/// diverging variant), whose handling lives in the serial trainer. The
/// thrower's clones are already restored (guards); callers fall back to
/// the serial per-chip path.
class grouped_nonfinite_error : public std::runtime_error {
public:
    explicit grouped_nonfinite_error(const std::string& what)
        : std::runtime_error(what) {}
};

/// Lockstep retraining worker over groups of chips. Owns K lazily-grown
/// deep clones of the prototype (K = largest group tuned so far), so
/// concurrent tuners never share mutable state; the referenced
/// datasets/snapshot are read-only and shared.
class grouped_chip_tuner {
public:
    /// Clones lazily from `prototype`; all references must outlive the tuner.
    grouped_chip_tuner(const sequential& prototype, const model_snapshot& pretrained,
                       const dataset& train_data, const dataset& test_data,
                       const array_config& array, fat_config trainer_cfg);

    /// Like chip_tuner::set_capture_tuned: capture per-chip deployable
    /// snapshots (parameters + state buffers) during tune_group.
    void set_capture_tuned(bool capture) { capture_tuned_ = capture; }

    /// Tunes `chips` in lockstep. Every allocation must be IDENTICAL in
    /// epochs and train_to_target (REDUCE_CHECK — the executor only groups
    /// same-allocation runs; selection_failed may differ, it is only
    /// reported). `accuracy_before` injects precomputed post-FAP accuracies
    /// (one per chip, from the grouped evaluator); pass empty to evaluate
    /// the group's epoch-0 point here in one stacked pass.
    ///
    /// Returns one chip_outcome per chip, byte-identical to serial
    /// chip_tuner::tune. Throws grouped_nonfinite_error when a variant
    /// diverges (see header note); the clones are restored on every exit.
    std::vector<chip_outcome> tune_group(const std::vector<const chip*>& chips,
                                         const std::vector<const epoch_allocation*>& allocs,
                                         double constraint,
                                         const std::vector<double>& effective_rates,
                                         const std::vector<double>& accuracy_before);

    /// Moves chip g's captured snapshot out (requires set_capture_tuned).
    model_snapshot take_tuned(std::size_t g);

private:
    void ensure_clones(std::size_t k);
    /// Throws grouped_nonfinite_error when any of the first `k` clones holds
    /// a non-finite mapped weight (`where` labels the check site).
    void check_mapped_finite(std::size_t k, const char* where);

    const sequential& prototype_;
    const model_snapshot& pretrained_;
    const dataset& train_data_;
    const dataset& test_data_;
    array_config array_;
    fat_config trainer_cfg_;
    bool capture_tuned_ = false;
    std::vector<std::unique_ptr<sequential>> clones_;
    std::vector<model_snapshot> tuned_;
};

}  // namespace reduce
