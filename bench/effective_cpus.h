// effective_cpus — the CPU count a bench run could actually use, recorded in
// its BENCH_*.json next to the timings: the sched_getaffinity mask, capped by
// the cgroup v2 cpu.max quota when one is set. hardware_concurrency counts the
// host's CPUs, which a container may be far from owning.
#pragma once

#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>

#include "util/json.h"

namespace reduce::bench {

/// {"affinity": N, "cgroup_cpu_max": Q or null, "effective": min(N, Q)}.
inline json_value effective_cpus_json() {
    cpu_set_t set;
    CPU_ZERO(&set);
    const double affinity =
        sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1.0;
    double quota = 0.0;  // 0: no quota set
    std::ifstream in("/sys/fs/cgroup/cpu.max");
    std::string max_us;
    double period_us = 0.0;
    if (in >> max_us >> period_us && max_us != "max" && period_us > 0.0) {
        char* end = nullptr;
        const double q = std::strtod(max_us.c_str(), &end) / period_us;
        if (*end == '\0' && q > 0.0) { quota = q; }
    }
    json_object out;
    out.set("affinity", json_value(affinity));
    out.set("cgroup_cpu_max", quota > 0.0 ? json_value(quota) : json_value());
    out.set("effective", json_value(quota > 0.0 ? std::min(affinity, quota) : affinity));
    return json_value(std::move(out));
}

}  // namespace reduce::bench
