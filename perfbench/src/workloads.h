// The benchmark's four workloads: their fixed configurations, thread
// budgets, and the set-up that turns a configuration into a pretrained
// golden model.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.h"
#include "core/resilience.h"
#include "core/workload.h"
#include "fault/chip.h"

namespace perfbench {

enum class model_kind { mlp, vgg };

/// Everything that defines one workload. Thread budgets are fixed here and
/// recorded with every result; none exceeds 4.
struct workload_spec {
    std::string name;
    model_kind model = model_kind::mlp;
    std::size_t workers = 1;       ///< fleet and sweep workers
    std::size_t gemm_threads = 1;  ///< intra-op threads per worker
    std::size_t eval_batch_chips = 1;
    std::size_t train_batch_chips = 1;
    std::vector<double> sweep_rates;
    std::size_t sweep_repeats = 1;
    double sweep_epochs = 1.0;
    std::size_t chips = 1;
    double rate_lo = 0.01;
    double rate_hi = 0.30;
    double constraint = 0.9;
    std::string scenario;  ///< --scenario grammar; "" for none
    bool distributed = false;
    double pretrain_epochs = 0.0;  ///< VGG only; the MLP uses the standard workload
    std::size_t setup_reps = 1;
};

/// The named workload; `tiny` shrinks it for the smoke test. Throws on an
/// unknown name.
workload_spec find_workload(const std::string& name, bool tiny);

/// Builds the golden model: data synthesis, split, and pretraining. The
/// untraced build calls the library's workload entry point where one
/// exists; the traced build makes the same calls one by one inside spans.
/// Both return byte-identical snapshots.
reduce::workload build_workload(const workload_spec& spec, bool traced);

/// Everything the pipeline needs besides the golden model.
struct run_inputs {
    reduce::resilience_config sweep;
    reduce::scenario_config scenario;
    std::vector<reduce::chip> fleet;
};

/// Derives the sweep config, scenario and fleet. The seed picks the fleet's
/// fault maps and the order of its rates; the golden model, the Step-1 grid,
/// the scenario and the set of chip rates are fixed per workload.
run_inputs make_inputs(const workload_spec& spec, const reduce::workload& w,
                       std::uint64_t seed);

/// Fig. 3's two headline policies, run back to back: `reduce` (max
/// statistic) and `fixed-0.5`.
std::vector<std::unique_ptr<reduce::retraining_policy>> make_policies(
    const workload_spec& spec, const reduce::resilience_table& table);

}  // namespace perfbench
