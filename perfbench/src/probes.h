// Direct calls into single layers, each inside a span: one training batch
// layer by layer and through the whole model, the GEMM/conv entry points at
// each mapped layer's shape, the grouped evaluator at K=1 and K=8, mask
// attachment, the data loader, the intra-op pool, and the dist codec and
// journal. Also the sampled grouped-vs-serial retraining check.
#pragma once

#include <string>

#include "pipeline.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {

/// Retrains the fleet's first K=8 chips under fixed-0.5 once as one
/// lockstep group and once serially, and compares both, outcome by outcome
/// and snapshot byte by snapshot byte, with the pass `reference` (whose
/// second run is fixed-0.5). Returns "" when all agree, else the first
/// difference.
std::string check_sampled_group(const workload_spec& spec, reduce::workload& w,
                                const run_inputs& in, const iteration& reference);

/// Layer probes (spans only; the numbers are read back from the trace).
/// Returns the model's layer labels ("<i>_<name>") and which are mapped.
reduce::json_value run_layer_probes(const workload_spec& spec, reduce::workload& w,
                                    const run_inputs& in);

/// Codec and journal probes on a real chip result frame.
void run_dist_probes(const workload_spec& spec, reduce::workload& w, const run_inputs& in,
                     const std::string& temp_dir);

}  // namespace perfbench
