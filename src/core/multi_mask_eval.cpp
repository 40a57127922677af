#include "core/multi_mask_eval.h"

#include <algorithm>
#include <cmath>
#include <utility>

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
    return run_pass(groups);
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
    return run_pass(groups);
}

std::vector<double> multi_mask_evaluator::run_pass(std::size_t groups) {
    // One pass over the test set in fault_aware_trainer::evaluate's batch
    // split: each batch is gathered once and every variant runs the model's
    // own forward on it, with its masked weights swapped into the mapped
    // layers (a pointer swap, not a copy) and swapped back afterwards. The
    // forward is the serial evaluate's call on the same weights, so each
    // variant's correct count matches the serial path bit for bit.
    const auto swap_in = [&](std::size_t g) {
        for (std::size_t l = 0; l < mapped_.size(); ++l) {
            std::swap(mapped_[l].weight->value, masked_scratch_[l][g]);
        }
    };
    std::vector<std::size_t> correct(groups, 0);
    std::size_t index = 0;
    std::vector<std::size_t> indices;
    while (index < test_data_.size()) {
        const std::size_t count = std::min(eval_batch_, test_data_.size() - index);
        indices.resize(count);
        for (std::size_t i = 0; i < count; ++i) { indices[i] = index + i; }
        const batch b = gather_batch(test_data_, indices);
        for (std::size_t g = 0; g < groups; ++g) {
            swap_in(g);
            try {
                correct[g] += correct_count(model_->forward(b.features), b.labels);
            } catch (...) {
                swap_in(g);  // swapping again restores the pretrained weights
                throw;
            }
            swap_in(g);
        }
        index += count;
    }

    std::vector<double> accuracy(groups);
    for (std::size_t g = 0; g < groups; ++g) {
        accuracy[g] = static_cast<double>(correct[g]) / static_cast<double>(test_data_.size());
    }
    return accuracy;
}

}  // namespace reduce
