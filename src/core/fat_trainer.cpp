#include "core/fat_trainer.h"

#include <algorithm>
#include <cmath>

#include "nn/loss.h"
#include "nn/metrics.h"
#include "nn/serialize.h"
#include "util/error.h"
#include "util/log.h"
#include "util/stopwatch.h"

namespace reduce {

namespace {

/// True when every parameter value is finite — run at every stop, so a
/// divergence that has not yet reached the loss is still caught there.
bool params_finite(const std::vector<parameter*>& params) {
    for (const parameter* p : params) {
        for (const float v : p->value.data()) {
            if (!std::isfinite(v)) { return false; }
        }
    }
    return true;
}

}  // namespace

std::vector<double> make_eval_grid(double max_epochs, double fine_until, double fine_step,
                                   double coarse_step) {
    REDUCE_CHECK(max_epochs > 0.0, "eval grid needs positive max_epochs");
    REDUCE_CHECK(fine_step > 0.0 && coarse_step > 0.0, "eval grid steps must be positive");
    REDUCE_CHECK(fine_until >= 0.0, "fine_until must be non-negative");
    std::vector<double> grid;
    const double eps = 1e-9;
    // Every point is an integer multiple of its step — ONE rounded product
    // per point instead of a growing addition chain, so awkward steps like
    // 0.1 yield 0.3 rather than 0.30000000000000004. Checkpoint values then
    // compare exactly across trajectories, cached-table fingerprints, and
    // the grouped/serial training paths, which all phrase queries on this
    // grid.
    const double fine_limit = std::min(fine_until, max_epochs);
    for (std::size_t i = 1;; ++i) {
        const double e = static_cast<double>(i) * fine_step;
        if (e > fine_limit + eps) { break; }
        grid.push_back(e);
    }
    const double coarse_base = grid.empty() ? 0.0 : grid.back();
    for (std::size_t j = 1;; ++j) {
        const double c = coarse_base + static_cast<double>(j) * coarse_step;
        if (c > max_epochs + eps) { break; }
        grid.push_back(c);
    }
    if (grid.empty() || grid.back() < max_epochs - eps) { grid.push_back(max_epochs); }
    return grid;
}

std::optional<double> epochs_to_reach(const std::vector<training_point>& trajectory,
                                      double target) {
    for (const training_point& point : trajectory) {
        if (point.test_accuracy >= target) { return point.epochs; }
    }
    return std::nullopt;
}

double accuracy_at_epochs(const std::vector<training_point>& trajectory, double epochs) {
    REDUCE_CHECK(!trajectory.empty(), "empty trajectory");
    REDUCE_CHECK(trajectory.front().epochs == 0.0, "trajectory must start at epoch 0");
    double acc = trajectory.front().test_accuracy;
    for (const training_point& point : trajectory) {
        if (point.epochs <= epochs + 1e-9) {
            acc = point.test_accuracy;
        } else {
            break;
        }
    }
    return acc;
}

fault_aware_trainer::fault_aware_trainer(sequential& model, const dataset& train_data,
                                         const dataset& test_data, fat_config cfg)
    : model_(model), train_data_(train_data), test_data_(test_data), cfg_(cfg) {
    train_data_.validate();
    test_data_.validate();
    REDUCE_CHECK(cfg_.batch_size > 0, "batch size must be positive");
    REDUCE_CHECK(cfg_.learning_rate > 0.0, "learning rate must be positive");
}

double fault_aware_trainer::evaluate() {
    model_.set_training(false);
    // Evaluate in batches to bound activation memory on large test sets.
    // The forward passes below draw their im2col/GEMM scratch from the
    // calling thread's workspace arena, so repeated evaluations (one per
    // trajectory checkpoint) reuse the same slabs.
    const std::size_t eval_batch = eval_batch_rows(cfg_);
    std::size_t correct = 0;
    std::size_t index = 0;
    std::vector<std::size_t> indices;
    while (index < test_data_.size()) {
        const std::size_t count = std::min(eval_batch, test_data_.size() - index);
        indices.resize(count);
        for (std::size_t i = 0; i < count; ++i) { indices[i] = index + i; }
        const batch b = gather_batch(test_data_, indices);
        const tensor logits = model_.forward(b.features);
        correct += correct_count(logits, b.labels);
        index += count;
    }
    model_.set_training(true);
    return static_cast<double>(correct) / static_cast<double>(test_data_.size());
}

fat_result fault_aware_trainer::train(double epoch_budget, const std::vector<double>& eval_grid,
                                      const std::optional<double>& epoch0_accuracy,
                                      const train_event_hooks* hooks) {
    REDUCE_CHECK(epoch_budget >= 0.0, "epoch budget must be non-negative");
    stopwatch timer;

    // Checkpoints: strictly increasing, <= budget, always ending at budget.
    std::vector<double> checkpoints;
    for (const double e : eval_grid) {
        if (e > 0.0 && e < epoch_budget - 1e-9) { checkpoints.push_back(e); }
    }
    std::sort(checkpoints.begin(), checkpoints.end());
    checkpoints.erase(std::unique(checkpoints.begin(), checkpoints.end()), checkpoints.end());
    if (epoch_budget > 0.0) { checkpoints.push_back(epoch_budget); }

    // Stops: the checkpoint sequence with event epochs merged in. An event
    // fires at the SAME step boundary (loader.steps_for_epochs) on every
    // path, so timeline runs stay bit-identical across thread counts,
    // groupings, and distributed/local execution. Events at or beyond the
    // budget never fire; an event within 1e-9 of a checkpoint shares its
    // stop (fire, then one eval covers both).
    struct stop_point {
        double epoch = 0.0;
        std::ptrdiff_t event = -1;  ///< index into hooks->event_epochs, or -1
    };
    const bool scenario_active =
        hooks != nullptr && !hooks->event_epochs.empty() && epoch_budget > 0.0;
    std::vector<stop_point> stops;
    stops.reserve(checkpoints.size() + (scenario_active ? hooks->event_epochs.size() : 0));
    for (const double c : checkpoints) { stops.push_back({c, -1}); }
    if (scenario_active) {
        REDUCE_CHECK(static_cast<bool>(hooks->on_event),
                     "event hooks carry epochs but no on_event callback");
        for (std::size_t i = 0; i < hooks->event_epochs.size(); ++i) {
            const double e = hooks->event_epochs[i];
            REDUCE_CHECK(e > 0.0, "event epoch must be positive, got " << e);
            REDUCE_CHECK(i == 0 || e > hooks->event_epochs[i - 1],
                         "event epochs must be strictly ascending");
            if (e >= epoch_budget - 1e-9) { break; }
            bool merged = false;
            for (stop_point& st : stops) {
                if (st.event < 0 && std::abs(st.epoch - e) <= 1e-9) {
                    st.event = static_cast<std::ptrdiff_t>(i);
                    merged = true;
                    break;
                }
            }
            if (!merged) { stops.push_back({e, static_cast<std::ptrdiff_t>(i)}); }
        }
        std::sort(stops.begin(), stops.end(),
                  [](const stop_point& a, const stop_point& b) { return a.epoch < b.epoch; });
    }

    fat_result result;
    result.trajectory.push_back(
        {0.0, epoch0_accuracy.has_value() ? *epoch0_accuracy : evaluate()});

    data_loader loader(train_data_, cfg_.batch_size, cfg_.shuffle_seed);
    sgd::config opt_cfg;
    opt_cfg.learning_rate = cfg_.learning_rate;
    opt_cfg.momentum = cfg_.momentum;
    opt_cfg.weight_decay = cfg_.weight_decay;
    sgd optimizer(model_.parameters(), opt_cfg);

    model_.set_training(true);
    apply_all_masks(optimizer.params());

    std::size_t steps_done = 0;
    double lr_value = cfg_.learning_rate;

    // Restart baseline: the post-FAP masked pretrained state every event
    // resets to (cumulative-epoch accounting — the loader keeps running).
    model_snapshot restart_base;
    optimizer_state fresh_opt;
    if (scenario_active && hooks->mode == recovery_mode::restart) {
        restart_base = snapshot_model(model_);
        fresh_opt = optimizer.save_state();  // all zeros: just constructed
    }

    // Recover mode: the rollback anchor — full resumable state of the last
    // stop where loss and weights were finite. One anchor suffices: ReCycle
    // rolls back to the LAST finite checkpoint, never further.
    struct rollback_point {
        model_snapshot model;       ///< params + state buffers (BN statistics)
        optimizer_state opt;
        data_loader::state loader;
        std::size_t steps_done = 0;
        std::size_t next_stop = 0;  ///< stop index to resume from
        std::size_t traj_size = 0;  ///< trajectory length to truncate back to
        double lr = 0.0;
    };
    rollback_point anchor;
    const bool can_rollback = scenario_active &&
                              hooks->mode == recovery_mode::recover &&
                              hooks->rollback_budget > 0;
    const auto take_anchor = [&](std::size_t next_stop) {
        anchor.model = snapshot_model(model_);
        anchor.opt = optimizer.save_state();
        anchor.loader = loader.save_state();
        anchor.steps_done = steps_done;
        anchor.next_stop = next_stop;
        anchor.traj_size = result.trajectory.size();
        anchor.lr = lr_value;
    };
    if (can_rollback) { take_anchor(0); }

    std::size_t si = 0;
    while (si < stops.size()) {
        const stop_point st = stops[si];
        const std::size_t target_steps = loader.steps_for_epochs(st.epoch);
        bool diverged = false;
        while (steps_done < target_steps) {
            const batch b = loader.next_batch();
            const tensor logits = model_.forward(b.features);
            const loss_result loss = cross_entropy_loss(logits, b.labels);
            // Loud non-finite detection: a diverged step never updates
            // the weights.
            if (!std::isfinite(loss.value)) {
                diverged = true;
                break;
            }
            optimizer.zero_grad();
            model_.backward(loss.grad);
            if (cfg_.grad_clip > 0.0) { clip_grad_norm(optimizer.params(), cfg_.grad_clip); }
            optimizer.step();
            ++steps_done;
        }
        if (!diverged) { diverged = !params_finite(optimizer.params()); }
        if (diverged) {
            if (can_rollback && result.rollbacks < hooks->rollback_budget) {
                ++result.rollbacks;
                lr_value *= 0.5;
                LOG_WARN << "fat: non-finite state before epoch " << st.epoch
                         << "; rolling back to the last finite checkpoint (retry "
                         << result.rollbacks << "/" << hooks->rollback_budget << " at lr "
                         << lr_value << ")";
                restore_model(model_, anchor.model);
                optimizer.restore_state(anchor.opt);
                loader.restore_state(anchor.loader);
                steps_done = anchor.steps_done;
                optimizer.set_learning_rate(lr_value);
                // Continue under the CURRENT (post-event) masks: the anchor
                // may predate the strike, so re-clamp weights and momentum.
                apply_all_masks(optimizer.params());
                optimizer.mask_state();
                result.trajectory.resize(anchor.traj_size);
                si = anchor.next_stop;
                continue;
            }
            LOG_WARN << "fat: training diverged to non-finite state before epoch "
                     << st.epoch << " after " << steps_done
                     << " steps; stopping early with accuracy 0";
            result.hit_nonfinite = true;
            break;
        }
        if (st.event >= 0) {
            // The callback rebuilds the fault grid and masks in place
            // (newly masked weights are zeroed by the re-attach).
            hooks->on_event(static_cast<std::size_t>(st.event));
            ++result.events_applied;
            if (hooks->mode == recovery_mode::restart) {
                // Baseline: pretrained weights under the NEW mask, fresh
                // optimizer, original learning rate — epochs keep
                // accumulating, so benches can price the restart.
                restore_model(model_, restart_base);
                apply_all_masks(optimizer.params());
                optimizer.restore_state(fresh_opt);
                lr_value = cfg_.learning_rate;
                optimizer.set_learning_rate(lr_value);
                ++result.restarts;
            } else {
                // Recover-and-continue: a newly pruned weight loses its
                // momentum too, or the next step would push it off zero.
                optimizer.mask_state();
            }
        }
        // Label the point with the REQUESTED checkpoint, not the
        // step-quantized epoch count: queries (accuracy_at, epochs_to_reach)
        // are phrased on the checkpoint grid, and the quantization always
        // rounds the actual steps UP (ceil), so the label understates the
        // training done — the conservative direction. Event stops record
        // the post-event accuracy (the eval point recovery continues from).
        result.trajectory.push_back({st.epoch, evaluate()});
        if (can_rollback) { take_anchor(si + 1); }
        ++si;
    }

    // A non-finite end reports exactly 0.0 — deterministic and guaranteed
    // to miss any accuracy constraint — never a propagated NaN.
    result.final_accuracy =
        result.hit_nonfinite ? 0.0 : result.trajectory.back().test_accuracy;
    result.steps_run = steps_done;
    result.epochs_run =
        static_cast<double>(steps_done) / static_cast<double>(loader.steps_per_epoch());
    result.train_seconds = timer.seconds();
    return result;
}

fat_result fault_aware_trainer::train(double epoch_budget) {
    return train(epoch_budget, {});
}

}  // namespace reduce
