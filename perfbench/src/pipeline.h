// One pass of the Reduce pipeline over a workload's fleet: Step 1 (a cold
// resilience sweep, no cache), then for each of Fig. 3's two headline
// policies Step 2 (the plan) and Step 3 (fleet retraining up to every
// chip's deployed snapshot reaching the model sink).
//
// Three runners share one result type:
//   * run_local       — the library's own engines (resilience_analyzer,
//                       fleet_executor); the untraced timings come from here;
//   * run_distributed — the same work as a sweep_job and two fleet_jobs on
//                       an in-process dist::coordinator with loopback workers;
//   * run_traced      — the fleet_executor's schedule re-driven from outside
//                       through the public per-cell, per-block, per-chip and
//                       per-group entry points, each call inside a span.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/fleet_executor.h"
#include "dist/coordinator.h"
#include "workloads.h"

namespace perfbench {

/// One policy's Step 2 + Step 3 pass.
struct policy_run {
    reduce::policy_outcome outcome;
    reduce::fleet_run_stats stats;     ///< counters of the local runners
    double wall_s = 0.0;               ///< plan start until the run returned
    std::vector<double> ready_s;       ///< per chip: run start → sink; -1 if never sunk
    std::vector<std::uint64_t> snapshot_hash;  ///< per chip, of the sunk snapshot
    std::size_t sunk = 0;
};

/// One full pipeline pass.
struct iteration {
    std::string table_json;    ///< the Step-1 table, serialized
    std::size_t cells = 0;     ///< Step-1 cells computed
    double cell_epochs = 0.0;  ///< epochs trained across those cells
    double step1_s = 0.0;
    double e2e_s = 0.0;        ///< first Step-1 call → last chip sunk
    std::vector<policy_run> runs;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::string error;         ///< first exception, if any
    /// Distributed runner only.
    reduce::dist::coordinator_stats dist_stats;
    double worker_join_s = 0.0;
};

iteration run_local(const workload_spec& spec, reduce::workload& w, const run_inputs& in);
iteration run_traced(const workload_spec& spec, reduce::workload& w, const run_inputs& in);
/// Journals go to fresh directories under `temp_dir`, removed afterwards.
iteration run_distributed(const workload_spec& spec, reduce::workload& w,
                          const run_inputs& in, const std::string& temp_dir);

/// 64-bit hash of a snapshot's names, values and state buffers.
std::uint64_t hash_snapshot(const reduce::model_snapshot& snapshot);

/// True when two outcomes agree bit for bit in every field.
bool same_outcome(const reduce::chip_outcome& a, const reduce::chip_outcome& b);

/// Empty when the two passes produced byte-identical tables, outcomes and
/// snapshots; otherwise a description of the first difference.
std::string compare_iterations(const iteration& a, const iteration& b);

/// Linear-interpolated percentile (q in [0, 100]) of `values`.
double percentile(std::vector<double> values, double q);

}  // namespace perfbench
