// Benchmark program entry point.
//
//   perfbench --workload <neuro_dense|neuro_sparse_lossy|fleet_mixed>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--inject <none|code_bit|swap_digests|drop_record|ber_mismatch>]
//             [--out-dir <dir>]
//
// Prints one JSON object as the last stdout line: the end-to-end metrics
// (--trace 0) or the per-layer metrics of the layers the workload enters
// (--trace 1), with the number of operations attempted and failed.
// Diagnostics go to stderr.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <neuro_dense|neuro_sparse_lossy|"
               "fleet_mixed> --seed <n> --seconds <s> --trace <0|1> "
               "[--inject <kind>] [--out-dir <dir>]\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t start_ns = perfbench::now_ns();
  perfbench::Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      opts.trace = value == "1";
    } else if (key == "--inject") {
      if (!perfbench::parse_inject(value, opts.inject)) {
        usage();
        return 2;
      }
    } else if (key == "--out-dir") {
      opts.out_dir = value;
    } else {
      usage();
      return 2;
    }
  }
  if (argc % 2 == 0 || opts.seconds <= 0.0) {
    usage();
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);

  perfbench::Report report;
  try {
    if (opts.workload == "neuro_dense") {
      report = perfbench::run_neuro_dense(opts, start_ns);
    } else if (opts.workload == "neuro_sparse_lossy") {
      report = perfbench::run_neuro_sparse_lossy(opts, start_ns);
    } else if (opts.workload == "fleet_mixed") {
      report = perfbench::run_fleet_mixed(opts, start_ns);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", report.to_json().c_str());
  return 0;
}
