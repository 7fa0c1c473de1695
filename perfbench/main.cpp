// awd_perfbench — the repository benchmark binary (README.md here).
//
//   awd_perfbench --workload <single_loop|fleet|long_horizon> --seed <n>
//                 --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer metrics.  Diagnostic
// lines start with '#'; the last line of stdout is the JSON result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "awd_perfbench: %s\nusage: awd_perfbench --workload "
               "<single_loop|fleet|long_horizon> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n",
               why);
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed must be a non-negative integer");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) usage("--seconds must be positive");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  perfbench::Workload workload{};
  if (!perfbench::parse_workload(args.workload, workload)) usage("unknown workload");

  perfbench::Report::note("fingerprint " + perfbench::fingerprint_json(args));
  perfbench::Report report;
  try {
    if (args.trace) {
      perfbench::run_traced(args, workload, report);
    } else if (workload == perfbench::Workload::kSingleLoop) {
      perfbench::run_single_loop(args, report);
    } else {
      perfbench::run_engine_workload(args, workload, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "awd_perfbench: %s\n", e.what());
    return 1;
  }
  const double error_rate = static_cast<double>(report.failed()) /
                            static_cast<double>(report.attempted() ? report.attempted() : 1);
  perfbench::Report::note("error_rate " + std::to_string(error_rate) + " frac (" +
                          std::to_string(report.failed()) + " failed of " +
                          std::to_string(report.attempted()) + " attempted)");
  std::printf("%s\n", report.result_json().c_str());
  return 0;
}
