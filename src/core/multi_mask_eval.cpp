#include "core/multi_mask_eval.h"

#include <algorithm>
#include <cmath>

#include "accel/mapping.h"
#include "data/loader.h"
#include "nn/metrics.h"
#include "util/error.h"

namespace reduce {

multi_mask_evaluator::multi_mask_evaluator(const sequential& prototype,
                                           const model_snapshot& pretrained,
                                           const dataset& test_data,
                                           const array_config& array,
                                           const fat_config& trainer_cfg)
    : model_(clone_model(prototype)), test_data_(test_data), array_(array) {
    test_data_.validate();
    REDUCE_CHECK(trainer_cfg.batch_size > 0, "batch size must be positive");
    eval_batch_ = eval_batch_rows(trainer_cfg);
    restore_parameters(model_->parameters(), pretrained);
    // The clone stays in eval mode for its whole life: the engine only ever
    // runs inference on it and never attaches masks or trains, so no
    // per-group restore is needed.
    model_->set_training(false);
    mapped_ = collect_mapped_layers(*model_);
    // A non-finite pretrained weight means the pretrain diverged; every
    // fleet accuracy measured from it would be meaningless, so refuse it
    // once, loudly.
    for (const mapped_layer& layer : mapped_) {
        for (const float v : layer.weight->value.data()) {
            REDUCE_CHECK(std::isfinite(v),
                         "multi_mask_evaluator: pretrained weights contain a non-finite "
                         "value — the pretrain diverged");
        }
    }

    // Hoist the per-weight-element PE indexing (the arithmetic
    // build_weight_mask performs per chip) into a one-time table. The
    // mapping law itself stays in gemm_mapping::pe_for_weight — this only
    // flattens it, so the grouped path can never drift from the serial
    // attach path's placement.
    pe_lut_.reserve(mapped_.size());
    for (const mapped_layer& layer : mapped_) {
        const gemm_mapping mapping(array_, layer.rows, layer.cols);
        const std::size_t fan_in = mapping.fan_in();
        const std::size_t fan_out = mapping.fan_out();
        const std::size_t cols = mapping.array_cols();
        std::vector<std::uint32_t> lut(fan_out * fan_in);
        for (std::size_t o = 0; o < fan_out; ++o) {
            std::uint32_t* lrow = lut.data() + o * fan_in;
            for (std::size_t i = 0; i < fan_in; ++i) {
                const pe_coordinate pe = mapping.pe_for_weight(i, o);
                lrow[i] = static_cast<std::uint32_t>(pe.row * cols + pe.col);
            }
        }
        pe_lut_.push_back(std::move(lut));
    }
}

void multi_mask_evaluator::build_faulty_grids(const std::vector<const fault_grid*>& grids) {
    const std::size_t groups = grids.size();
    faulty_scratch_.resize(groups);
    for (std::size_t g = 0; g < groups; ++g) {
        REDUCE_CHECK(grids[g] != nullptr, "multi_mask_evaluator::evaluate got a null grid");
        REDUCE_CHECK(grids[g]->rows() == array_.rows && grids[g]->cols() == array_.cols,
                     "fault grid " << g << " does not match the array geometry");
        const std::vector<pe_fault>& states = grids[g]->states();
        faulty_scratch_[g].resize(states.size());
        for (std::size_t j = 0; j < states.size(); ++j) {
            faulty_scratch_[g][j] = is_faulty(states[j]) ? 1 : 0;
        }
    }
}

std::vector<double> multi_mask_evaluator::evaluate(
    const std::vector<const fault_grid*>& grids) {
    const std::size_t groups = grids.size();
    REDUCE_CHECK(groups > 0, "multi_mask_evaluator::evaluate needs at least one fault grid");
    build_faulty_grids(grids);
    const std::vector<std::vector<unsigned char>>& faulty = faulty_scratch_;

    // Masked weights, one fused pass per (layer, variant): w * {0,1} exactly
    // as parameter::apply_mask computes it, so -0/NaN semantics match the
    // serial attach path bit for bit. The tensors live on the evaluator and
    // are reshaped in place (ensure_shape), so back-to-back groups of the
    // same size allocate nothing.
    masked_scratch_.resize(mapped_.size());
    for (std::size_t l = 0; l < mapped_.size(); ++l) {
        const tensor& w = mapped_[l].weight->value;
        const std::uint32_t* lut = pe_lut_[l].data();
        std::vector<tensor>& variants = masked_scratch_[l];
        variants.resize(groups);
        for (std::size_t g = 0; g < groups; ++g) {
            tensor& mw = variants[g];
            mw.ensure_shape(w.shape());
            const unsigned char* bad = faulty[g].data();
            const float* src = w.raw();
            float* dst = mw.raw();
            const std::size_t count = w.numel();
            for (std::size_t e = 0; e < count; ++e) {
                dst[e] = src[e] * (bad[lut[e]] ? 0.0f : 1.0f);
            }
        }
    }
    return run_pass(masked_scratch_, groups);
}

std::vector<double> multi_mask_evaluator::evaluate(
    const std::vector<const fault_grid*>& grids,
    const std::vector<const std::vector<std::vector<std::size_t>>*>& perms) {
    const std::size_t groups = grids.size();
    REDUCE_CHECK(groups > 0, "multi_mask_evaluator::evaluate needs at least one fault grid");
    REDUCE_CHECK(perms.size() == groups,
                 "multi_mask_evaluator: " << groups << " grids but " << perms.size()
                                          << " permutation sets (nullptr = identity)");
    build_faulty_grids(grids);
    const std::vector<std::vector<unsigned char>>& faulty = faulty_scratch_;
    for (std::size_t g = 0; g < groups; ++g) {
        REDUCE_CHECK(perms[g] == nullptr || perms[g]->size() == mapped_.size(),
                     "variant " << g << " supplies " << perms[g]->size()
                                << " layer permutations for " << mapped_.size()
                                << " mapped layers");
    }

    // Same fused masking pass as the identity overload, but a permuted
    // variant indexes through a LUT built from ITS column mapping — the
    // exact gemm_mapping law attach_fault_masks_permuted applies, so FAM
    // variants keep the byte-identity contract. Per-variant LUTs are
    // rebuilt per call: the permutation is per chip, so unlike the identity
    // table there is nothing to hoist.
    masked_scratch_.resize(mapped_.size());
    std::vector<std::uint32_t> perm_lut;
    for (std::size_t l = 0; l < mapped_.size(); ++l) {
        const tensor& w = mapped_[l].weight->value;
        std::vector<tensor>& variants = masked_scratch_[l];
        variants.resize(groups);
        for (std::size_t g = 0; g < groups; ++g) {
            const std::uint32_t* lut = pe_lut_[l].data();
            if (perms[g] != nullptr) {
                const gemm_mapping mapping(array_, mapped_[l].rows, mapped_[l].cols,
                                           (*perms[g])[l]);
                const std::size_t fan_in = mapping.fan_in();
                const std::size_t fan_out = mapping.fan_out();
                const std::size_t cols = mapping.array_cols();
                perm_lut.resize(fan_out * fan_in);
                for (std::size_t o = 0; o < fan_out; ++o) {
                    std::uint32_t* lrow = perm_lut.data() + o * fan_in;
                    for (std::size_t i = 0; i < fan_in; ++i) {
                        const pe_coordinate pe = mapping.pe_for_weight(i, o);
                        lrow[i] = static_cast<std::uint32_t>(pe.row * cols + pe.col);
                    }
                }
                lut = perm_lut.data();
            }
            tensor& mw = variants[g];
            mw.ensure_shape(w.shape());
            const unsigned char* bad = faulty[g].data();
            const float* src = w.raw();
            float* dst = mw.raw();
            const std::size_t count = w.numel();
            for (std::size_t e = 0; e < count; ++e) {
                dst[e] = src[e] * (bad[lut[e]] ? 0.0f : 1.0f);
            }
        }
    }
    return run_pass(masked_scratch_, groups);
}

std::vector<double> multi_mask_evaluator::evaluate_masked(
    const std::vector<std::vector<tensor>>& masked_weights, std::size_t groups) {
    REDUCE_CHECK(groups > 0, "multi_mask_evaluator::evaluate_masked needs variants");
    // Loud unsupported-combination checks (never silent drift): the clone's
    // state buffers hold PRETRAINED batch-norm statistics, which
    // mid-trajectory variants have diverged from — grouped checkpoint
    // evaluation of normalizing models belongs to the grouped trainer's
    // walker, which slices per-variant BN state.
    REDUCE_CHECK(model_->state_buffers().empty(),
                 "multi_mask_evaluator::evaluate_masked: the model carries state buffers "
                 "(batch-norm running statistics), which mid-trajectory variants have "
                 "diverged from — use grouped_chip_tuner's stacked evaluation instead");
    REDUCE_CHECK(masked_weights.size() == mapped_.size(),
                 "evaluate_masked: " << masked_weights.size() << " weight sets for "
                                     << mapped_.size() << " mapped layers");
    for (std::size_t l = 0; l < mapped_.size(); ++l) {
        REDUCE_CHECK(masked_weights[l].size() == groups,
                     "evaluate_masked: layer " << l << " has " << masked_weights[l].size()
                                               << " variants, expected " << groups);
        for (std::size_t g = 0; g < groups; ++g) {
            REDUCE_CHECK(masked_weights[l][g].shape() == mapped_[l].weight->value.shape(),
                         "evaluate_masked: layer " << l << " variant " << g
                                                   << " weight shape mismatch");
            for (const float v : masked_weights[l][g].data()) {
                REDUCE_CHECK(std::isfinite(v),
                             "evaluate_masked: variant " << g << " layer " << l
                                                         << " holds a non-finite weight — "
                                                            "the variant diverged");
            }
        }
    }
    return run_pass(masked_weights, groups);
}

std::vector<double> multi_mask_evaluator::run_pass(
    const std::vector<std::vector<tensor>>& masked, std::size_t groups) {
    // One pass over the test set. The serial trainer evaluates
    // max(batch_size, 256) rows at a time; here the VARIANT-STACKED batch is
    // what occupies cache and allocator, so divide the row budget by the
    // group size (floor 32 rows) — the stacked working set then stays near
    // the serial one at any K. Batch splits never change results: every
    // row's logits depend only on that row (GEMM k-chains, eval-mode
    // normalization, and pooling are all row/image-local), so the per-
    // variant correct counts match the serial path bit for bit regardless.
    const std::size_t rows_per_batch =
        std::max<std::size_t>(32, (eval_batch_ + groups - 1) / groups);
    std::vector<std::size_t> correct(groups, 0);
    std::size_t index = 0;
    std::vector<std::size_t> indices;
    while (index < test_data_.size()) {
        const std::size_t count = std::min(rows_per_batch, test_data_.size() - index);
        indices.resize(count);
        for (std::size_t i = 0; i < count; ++i) { indices[i] = index + i; }
        const batch b = gather_batch(test_data_, indices);
        const tensor stacked = forward_masked_group(*model_, b.features, groups, masked);
        const std::vector<std::size_t> counts =
            correct_counts_grouped(stacked, groups, b.labels);
        for (std::size_t g = 0; g < groups; ++g) { correct[g] += counts[g]; }
        index += count;
    }

    std::vector<double> accuracy(groups);
    for (std::size_t g = 0; g < groups; ++g) {
        accuracy[g] = static_cast<double>(correct[g]) / static_cast<double>(test_data_.size());
    }
    return accuracy;
}

}  // namespace reduce
