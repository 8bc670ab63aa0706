// perfbench: runs one workload of the repository benchmark and prints its
// metrics; the last stdout line is the JSON result.
//
//   perfbench --workload fleet_ring_d1 --seed 1 --seconds 10 --trace 0
//             [--work-dir DIR]
//
// Exit status: 0 when every output matched its oracle, 1 on any mismatch
// or failed operation, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "core/parse.h"
#include "stats.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* argv0, const std::string& problem) {
  std::fprintf(stderr,
               "%s\nusage: %s --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n",
               problem.c_str(), argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  args.work_dir = ".bench_build/run";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) Usage(argv[0], "missing value for " + std::string(flag));
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!capp::ParseUint64Text(value, &args.seed)) {
        Usage(argv[0], "bad --seed: " + value);
      }
    } else if (flag == "--seconds") {
      if (!capp::ParseDoubleText(value, &args.seconds) || args.seconds <= 0.0) {
        Usage(argv[0], "bad --seconds: " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage(argv[0], "bad --trace: " + value);
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage(argv[0], "unknown flag " + std::string(flag));
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == args.workload;
  }
  if (!have_workload || !known) {
    Usage(argv[0], "unknown workload '" + args.workload +
                       "' (fleet_ring_d1, fleet_socket_d4, collector_tcp_wal)");
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  perfbench::RunOutcome outcome;
  perfbench::RunWorkload(args, &outcome);
  for (const std::string& error : outcome.errors) {
    std::printf("  ERROR: %s\n", error.c_str());
  }
  const double error_rate =
      outcome.attempted == 0
          ? 1.0
          : static_cast<double>(outcome.failed) /
                static_cast<double>(outcome.attempted);
  for (const perfbench::Metric& metric : outcome.metrics) {
    std::printf("  %-36s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("  %-36s %.6g fraction (%llu failed of %llu attempted)\n",
              "error_rate", error_rate,
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));
  std::printf("%s\n", perfbench::RenderResultJson(
                          outcome.correct(), outcome.attempted,
                          outcome.failed, outcome.metrics)
                          .c_str());
  std::fflush(stdout);
  return outcome.correct() ? 0 : 1;
}
