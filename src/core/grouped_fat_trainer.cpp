#include "core/grouped_fat_trainer.h"

#include "util/error.h"

namespace reduce {

grouped_chip_tuner::grouped_chip_tuner(const sequential& prototype,
                                       const model_snapshot& pretrained,
                                       const dataset& train_data, const dataset& test_data,
                                       const array_config& array, fat_config trainer_cfg)
    : tuner_(prototype, pretrained, train_data, test_data, array, trainer_cfg) {
    train_data.validate();
    test_data.validate();
    REDUCE_CHECK(trainer_cfg.batch_size > 0, "batch size must be positive");
    REDUCE_CHECK(trainer_cfg.learning_rate > 0.0, "learning rate must be positive");
}

std::vector<chip_outcome> grouped_chip_tuner::tune_group(
    const std::vector<const chip*>& chips, const std::vector<const epoch_allocation*>& allocs,
    double constraint, const std::vector<double>& effective_rates,
    const std::vector<double>& accuracy_before) {
    const std::size_t k = chips.size();
    REDUCE_CHECK(k > 0, "tune_group over an empty chip group");
    REDUCE_CHECK(allocs.size() == k && effective_rates.size() == k,
                 "tune_group: " << k << " chips, " << allocs.size() << " allocations, "
                                << effective_rates.size() << " rates");
    REDUCE_CHECK(accuracy_before.empty() || accuracy_before.size() == k,
                 "tune_group: accuracy_before must be empty or one value per chip");
    // A group is one training plan: the executor groups by (epochs,
    // train_to_target), so anything else reaching this point is a grouping
    // bug — fail loudly (selection_failed is merely reported, it may differ).
    for (std::size_t g = 1; g < k; ++g) {
        REDUCE_CHECK(allocs[g]->epochs == allocs[0]->epochs &&
                         allocs[g]->train_to_target == allocs[0]->train_to_target,
                     "tune_group: chip " << chips[g]->id << " allocation ("
                                         << allocs[g]->epochs << " epochs, to_target="
                                         << allocs[g]->train_to_target
                                         << ") differs from the group's ("
                                         << allocs[0]->epochs << ", to_target="
                                         << allocs[0]->train_to_target
                                         << ") — group only same-allocation chips");
    }

    tuned_.clear();
    if (capture_tuned_) { tuned_.resize(k); }
    tuner_.set_capture_tuned(capture_tuned_);
    std::vector<chip_outcome> outcomes(k);
    for (std::size_t g = 0; g < k; ++g) {
        outcomes[g] = tuner_.tune(*chips[g], *allocs[g], constraint, effective_rates[g],
                                  accuracy_before.empty()
                                      ? std::nullopt
                                      : std::optional<double>(accuracy_before[g]));
        if (outcomes[g].hit_nonfinite) {
            throw grouped_nonfinite_error(
                "grouped retraining: chip " + std::to_string(chips[g]->id) +
                " diverged to non-finite state — the group's divergence is counted and "
                "the group is retrained on the serial path");
        }
        if (capture_tuned_) { tuned_[g] = tuner_.take_tuned(); }
    }
    return outcomes;
}

model_snapshot grouped_chip_tuner::take_tuned(std::size_t g) {
    REDUCE_CHECK(g < tuned_.size(),
                 "take_tuned(" << g << ") but only " << tuned_.size()
                               << " captured snapshots (set_capture_tuned before tuning)");
    return std::move(tuned_[g]);
}

}  // namespace reduce
