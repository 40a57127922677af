#include "core/grouped_fat_trainer.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "fault/mask_builder.h"
#include "nn/grouped.h"
#include "nn/loss.h"
#include "nn/metrics.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace reduce {

namespace {

/// Repeats one batch's features K times along dim 0 — every variant trains
/// on the exact serial batch (and BN variants see the exact serial batch
/// statistics).
tensor tile_features(const tensor& features, std::size_t k) {
    shape_t shape = features.shape();
    shape[0] *= k;
    tensor stacked(shape);
    const std::size_t block = features.numel();
    for (std::size_t g = 0; g < k; ++g) {
        std::memcpy(stacked.raw() + g * block, features.raw(), block * sizeof(float));
    }
    return stacked;
}

/// One stacked pass over the full test set: per-variant accuracies,
/// byte-identical to fault_aware_trainer::evaluate per clone (eval-mode
/// passes are row-local, so batch splits never change a logit).
std::vector<double> evaluate_group(grouped_train_net& net,
                                   const std::vector<sequential*>& variants,
                                   const dataset& test_data, const fat_config& cfg) {
    const std::size_t k = variants.size();
    for (sequential* v : variants) { v->set_training(false); }
    // Divide the serial eval batch across the stack so peak activation
    // memory matches the serial path's, with a floor that keeps per-layer
    // fixed costs amortized — the multi_mask_eval sizing rule.
    const std::size_t serial_rows = eval_batch_rows(cfg);
    const std::size_t rows_per_batch = std::max<std::size_t>(32, (serial_rows + k - 1) / k);
    std::vector<std::size_t> correct(k, 0);
    std::vector<std::size_t> indices;
    std::size_t index = 0;
    while (index < test_data.size()) {
        const std::size_t count = std::min(rows_per_batch, test_data.size() - index);
        indices.resize(count);
        for (std::size_t i = 0; i < count; ++i) { indices[i] = index + i; }
        const batch b = gather_batch(test_data, indices);
        const tensor logits = net.forward(tile_features(b.features, k));
        const std::vector<std::size_t> counts = correct_counts_grouped(logits, k, b.labels);
        for (std::size_t g = 0; g < k; ++g) { correct[g] += counts[g]; }
        index += count;
    }
    for (sequential* v : variants) { v->set_training(true); }
    std::vector<double> acc(k);
    for (std::size_t g = 0; g < k; ++g) {
        acc[g] = static_cast<double>(correct[g]) / static_cast<double>(test_data.size());
    }
    return acc;
}

}  // namespace

grouped_chip_tuner::grouped_chip_tuner(const sequential& prototype,
                                       const model_snapshot& pretrained,
                                       const dataset& train_data, const dataset& test_data,
                                       const array_config& array, fat_config trainer_cfg)
    : prototype_(prototype),
      pretrained_(pretrained),
      train_data_(train_data),
      test_data_(test_data),
      array_(array),
      trainer_cfg_(trainer_cfg) {
    train_data_.validate();
    test_data_.validate();
    REDUCE_CHECK(trainer_cfg_.batch_size > 0, "batch size must be positive");
    REDUCE_CHECK(trainer_cfg_.learning_rate > 0.0, "learning rate must be positive");
}

void grouped_chip_tuner::ensure_clones(std::size_t k) {
    while (clones_.size() < k) { clones_.push_back(clone_model(prototype_)); }
}

void grouped_chip_tuner::check_mapped_finite(std::size_t k, const char* where) {
    for (std::size_t g = 0; g < k; ++g) {
        for (const mapped_layer& layer : collect_mapped_layers(*clones_[g])) {
            const float* w = layer.weight->value.raw();
            const std::size_t n = layer.weight->value.numel();
            for (std::size_t e = 0; e < n; ++e) {
                if (!std::isfinite(w[e])) {
                    throw grouped_nonfinite_error(
                        std::string("grouped retraining: variant ") + std::to_string(g) +
                        " holds a non-finite mapped weight at " + where +
                        " — divergence is handled by the serial trainer; retrain "
                        "this group serially");
                }
            }
        }
    }
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
    // Lockstep training shares ONE loader and ONE checkpoint schedule, so
    // every chip in the group must have the same training plan. The
    // executor groups by (epochs, train_to_target); anything else reaching
    // this point is a grouping bug — fail loudly rather than training a
    // chip on the wrong plan (selection_failed is merely reported, it may
    // differ).
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
    const epoch_allocation& alloc = *allocs[0];

    ensure_clones(k);
    tuned_.clear();
    if (capture_tuned_) { tuned_.resize(k); }

    // Per-chip episode setup, exactly the serial tuner's sequence: restore,
    // reseed from the chip alone, guard, mask. Guards restore every clone
    // (weights, masks cleared, BN statistics) on every exit path — a
    // grouped_nonfinite_error thrown below leaves the tuner reusable.
    std::vector<sequential*> variants(k);
    std::vector<std::unique_ptr<fault_state_guard>> guards;
    guards.reserve(k);
    std::vector<mask_stats> stats(k);
    for (std::size_t g = 0; g < k; ++g) {
        sequential& clone = *clones_[g];
        restore_parameters(clone.parameters(), pretrained_);
        reseed_stochastic_layers(clone, chips[g]->seed);
        guards.push_back(std::make_unique<fault_state_guard>(clone, pretrained_));
        stats[g] = attach_fault_masks(clone, array_, chips[g]->faults);
        variants[g] = &clone;
    }
    check_mapped_finite(k, "episode start");

    grouped_train_net net(variants);

    std::vector<chip_outcome> outcomes(k);
    for (std::size_t g = 0; g < k; ++g) {
        outcomes[g].chip_id = chips[g]->id;
        outcomes[g].nominal_fault_rate = chips[g]->nominal_fault_rate;
        outcomes[g].effective_fault_rate = effective_rates[g];
        outcomes[g].masked_weight_fraction = stats[g].masked_fraction();
        outcomes[g].epochs_allocated = alloc.epochs;
        outcomes[g].selection_failed = allocs[g]->selection_failed;
    }

    // Epoch-0 point: injected (grouped evaluator upstream) or computed here
    // in one stacked pass.
    std::vector<double> before = accuracy_before;
    if (before.empty()) {
        before = evaluate_group(net, variants, test_data_, trainer_cfg_);
    }
    for (std::size_t g = 0; g < k; ++g) { outcomes[g].accuracy_before = before[g]; }

    // Checkpoint schedule — fault_aware_trainer::train's exact rule on the
    // group's shared budget (oracle allocations add the shared eval grid).
    std::vector<double> checkpoints;
    if (alloc.train_to_target && alloc.epochs > 0.0) {
        for (const double e : make_eval_grid(alloc.epochs, 1.0, 0.05, 0.5)) {
            if (e > 0.0 && e < alloc.epochs - 1e-9) { checkpoints.push_back(e); }
        }
        std::sort(checkpoints.begin(), checkpoints.end());
        checkpoints.erase(std::unique(checkpoints.begin(), checkpoints.end()),
                          checkpoints.end());
    }
    if (alloc.epochs > 0.0) { checkpoints.push_back(alloc.epochs); }

    std::vector<std::vector<training_point>> trajectories(k);
    for (std::size_t g = 0; g < k; ++g) { trajectories[g].push_back({0.0, before[g]}); }

    // ONE loader: every variant sees the serial batch sequence. Per-variant
    // optimizers over each clone's own parameters.
    data_loader loader(train_data_, trainer_cfg_.batch_size, trainer_cfg_.shuffle_seed);
    sgd::config opt_cfg;
    opt_cfg.learning_rate = trainer_cfg_.learning_rate;
    opt_cfg.momentum = trainer_cfg_.momentum;
    opt_cfg.weight_decay = trainer_cfg_.weight_decay;
    std::vector<std::unique_ptr<sgd>> opts;
    opts.reserve(k);
    for (std::size_t g = 0; g < k; ++g) {
        variants[g]->set_training(true);
        opts.push_back(std::make_unique<sgd>(variants[g]->parameters(), opt_cfg));
        apply_all_masks(opts[g]->params());
    }

    std::size_t steps_done = 0;
    for (const double checkpoint : checkpoints) {
        const std::size_t target_steps = loader.steps_for_epochs(checkpoint);
        while (steps_done < target_steps) {
            const batch b = loader.next_batch();
            const std::size_t n = b.features.extent(0);
            const tensor logits = net.forward(tile_features(b.features, k));
            const std::size_t classes = logits.extent(1);
            tensor stacked_grad({n * k, classes});
            tensor block({n, classes});
            for (std::size_t g = 0; g < k; ++g) {
                std::memcpy(block.raw(), logits.raw() + g * n * classes,
                            n * classes * sizeof(float));
                // CE normalizes by its own block's n — the serial batch size.
                const loss_result loss = cross_entropy_loss(block, b.labels);
                if (!std::isfinite(loss.value)) {
                    throw grouped_nonfinite_error(
                        std::string("grouped retraining: variant ") + std::to_string(g) +
                        " (chip " + std::to_string(chips[g]->id) +
                        ") hit a non-finite loss at step " + std::to_string(steps_done) +
                        " — divergence is outside the grouped bit-identity "
                        "contract; retrain this group serially");
                }
                std::memcpy(stacked_grad.raw() + g * n * classes, loss.grad.raw(),
                            n * classes * sizeof(float));
            }
            for (std::size_t g = 0; g < k; ++g) { opts[g]->zero_grad(); }
            net.backward(stacked_grad);
            if (trainer_cfg_.grad_clip > 0.0) {
                for (std::size_t g = 0; g < k; ++g) {
                    clip_grad_norm(opts[g]->params(), trainer_cfg_.grad_clip);
                }
            }
            // K independent optimizer states in one sweep. Inside the
            // parallel region each sgd's element loops gate off
            // (should_fan_out), so the per-variant update math is the exact
            // serial chain at any --gemm-threads.
            if (k > 1 && intra_op_threads() > 1 && !in_intra_op_region()) {
                parallel_for(k, [&](std::size_t begin, std::size_t end) {
                    for (std::size_t g = begin; g < end; ++g) { opts[g]->step(); }
                });
            } else {
                for (std::size_t g = 0; g < k; ++g) { opts[g]->step(); }
            }
            ++steps_done;
        }
        // Divergence check before results are consumed: non-finite weights
        // persist under SGD (momentum and decay keep them non-finite), so
        // even when the loss check above lags a step the checkpoint scan
        // catches the variant before any trajectory point is reported.
        check_mapped_finite(k, "checkpoint");
        const std::vector<double> accs = evaluate_group(net, variants, test_data_,
                                                        trainer_cfg_);
        for (std::size_t g = 0; g < k; ++g) {
            trajectories[g].push_back({checkpoint, accs[g]});
        }
    }
    const double epochs_run =
        static_cast<double>(steps_done) / static_cast<double>(loader.steps_per_epoch());

    // Per-chip accounting, mirroring chip_tuner::tune field for field.
    for (std::size_t g = 0; g < k; ++g) {
        chip_outcome& out = outcomes[g];
        const std::optional<double> epoch0(out.accuracy_before);
        if (alloc.train_to_target && alloc.epochs > 0.0) {
            const std::optional<double> reached =
                epochs_to_reach(trajectories[g], constraint);
            if (reached.has_value()) {
                out.epochs_run = *reached;
                out.final_accuracy = accuracy_at_epochs(trajectories[g], *reached);
                if (capture_tuned_ && *reached < epochs_run) {
                    // The clone holds full-budget weights; replay the exact
                    // serial prefix to the charged checkpoint so the
                    // captured snapshot matches the reported accuracy.
                    restore_parameters(clones_[g]->parameters(), pretrained_);
                    reseed_stochastic_layers(*clones_[g], chips[g]->seed);
                    fault_aware_trainer trainer(*clones_[g], train_data_, test_data_,
                                                trainer_cfg_);
                    (void)trainer.train(*reached, {}, epoch0);
                }
            } else {
                out.epochs_run = epochs_run;
                out.final_accuracy = trajectories[g].back().test_accuracy;
            }
        } else {
            out.epochs_run = epochs_run;
            out.final_accuracy = trajectories[g].back().test_accuracy;
        }
        out.meets_constraint = out.final_accuracy >= constraint;
        if (capture_tuned_) { tuned_[g] = snapshot_model(*clones_[g]); }
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
