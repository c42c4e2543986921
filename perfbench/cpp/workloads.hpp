// The three workloads. Each runs one continuous stream for about
// `opts.seconds`, checks the program's outputs, and fills the report with
// the end-to-end metrics (untraced) or the per-layer metrics (traced).
// `start_ns` is the process start, the origin of `setup_s`.
#pragma once

#include <cstdint>

#include "common.hpp"

namespace perfbench {

Report run_neuro_dense(const Options& opts, std::uint64_t start_ns);
Report run_neuro_sparse_lossy(const Options& opts, std::uint64_t start_ns);
Report run_fleet_mixed(const Options& opts, std::uint64_t start_ns);

}  // namespace perfbench
