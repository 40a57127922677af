// Batched multi-mask evaluation engine — grouped test-set inference for the
// fleet stages of Reduce.
//
// Steps 2+3 pay their dominant non-training cost in repeated test-set
// inference: every chip's `accuracy_before` (and every sweep cell's epoch-0
// trajectory point) evaluates the SAME pretrained weights under a different
// fault mask, over the SAME test set. The serial path pays, per chip, a
// weight restore, a mask build + attach + apply, and a guard teardown
// around its forward passes. This engine evaluates K fault-masked variants
// on one private clone instead:
//
//   * masked weights are materialized per variant in one fused pass over a
//     precomputed element→PE lookup table (no mask tensors, no modulo math
//     per chip, no restore or guard);
//   * each test batch is gathered once; every variant then runs the clone's
//     own sequential::forward on it, with that variant's masked weights
//     swapped into the mapped layers (std::swap, not a copy) and swapped
//     back afterwards.
//
// Determinism contract: evaluate()[i] is byte-identical to the serial path
//   restore_parameters → attach_fault_masks(grid_i) → trainer.evaluate()
// on a clone of the same prototype, at every group size and thread count —
// the forward is the same call on the same weights. The engine leaves its
// clone holding the pretrained weights after every call, so one evaluator
// serves any number of groups back to back (fleet workers keep one per
// thread).
//
// Memory: one group holds K × (mapped-layer weights) floats of masked
// weights plus one eval batch of activations — the --eval-batch-chips knob
// bounds K.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "accel/array_config.h"
#include "accel/fault_grid.h"
#include "core/fat_trainer.h"
#include "data/dataset.h"
#include "nn/models.h"
#include "nn/serialize.h"

namespace reduce {

/// Grouped evaluator bound to one (model, pretrained snapshot, test set,
/// array) tuple. Thread-compatibility: one evaluator per thread (it owns a
/// private model clone); distinct evaluators never share mutable state.
class multi_mask_evaluator {
public:
    /// Clones `prototype` and restores `pretrained` into the clone; the
    /// referenced test set must outlive the evaluator. `trainer_cfg` only
    /// contributes the eval batch sizing rule (eval_batch_rows), so test
    /// batches split exactly like fault_aware_trainer::evaluate.
    multi_mask_evaluator(const sequential& prototype, const model_snapshot& pretrained,
                         const dataset& test_data, const array_config& array,
                         const fat_config& trainer_cfg);

    /// Test accuracy of the pretrained model under each fault grid, all
    /// computed in one pass over the test set. Element i is byte-identical
    /// to the serial restore→mask→evaluate path for grids[i]. Grids must
    /// match the array geometry; a fault-free grid (a chip with an empty
    /// mask) is valid and evaluates the unmasked model.
    std::vector<double> evaluate(const std::vector<const fault_grid*>& grids);

    /// FAM-aware overload: `perms[g]` is variant g's per-mapped-layer column
    /// permutation set (the fam_permutations result fed to
    /// attach_fault_masks_permuted), or nullptr for the identity mapping.
    /// Element i is byte-identical to the serial
    /// restore→attach_fault_masks_permuted(grid_i, *perms[i])→evaluate path.
    /// Permuted LUTs are built per call (the permutation is per chip, so
    /// there is nothing to hoist); identity variants reuse the hoisted
    /// table.
    std::vector<double> evaluate(
        const std::vector<const fault_grid*>& grids,
        const std::vector<const std::vector<std::vector<std::size_t>>*>& perms);

private:
    /// Test-set pass over the first `groups` variants of masked_scratch_.
    std::vector<double> run_pass(std::size_t groups);
    /// Validates grids and refreshes faulty_scratch_ for `groups` variants.
    void build_faulty_grids(const std::vector<const fault_grid*>& grids);
    std::unique_ptr<sequential> model_;
    const dataset& test_data_;
    array_config array_;
    std::size_t eval_batch_;
    std::vector<mapped_layer> mapped_;  ///< non-owning views into model_
    /// Per mapped layer: weight element → flat PE index (row*cols + col)
    /// under the identity column mapping — the same indexing
    /// build_weight_mask performs, hoisted out of the per-chip loop.
    std::vector<std::vector<std::uint32_t>> pe_lut_;
    /// Masked-weight tensors [mapped layer][variant] and per-variant
    /// faulty-PE byte grids, storage reused across evaluate() calls
    /// (contents valid only within one call; run_pass swaps each variant's
    /// tensors in and out of the mapped layers).
    std::vector<std::vector<tensor>> masked_scratch_;
    std::vector<std::vector<unsigned char>> faulty_scratch_;
};

}  // namespace reduce
