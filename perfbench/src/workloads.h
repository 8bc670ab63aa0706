// perfbench's workloads: each one long, repeated run of one pipeline
// shape, checked against an oracle computed once per seed.
//
//   fleet_ring_d1      Fleet::Run, d=1 CAPP, kQueue ring, owned shards.
//   fleet_socket_d4    Fleet::Run, d=4 budget split, kSocket unix loopback
//                      over 2 striped connections, owned shards.
//   collector_tcp_wal  pre-perturbed d=1 population into a TCP
//                      SocketCollectorServer over DurableCollector: a
//                      flood phase, a paced phase with a live reader, then
//                      WAL recovery.
//
// Untraced runs report the end-to-end metrics; traced runs rebuild the
// pipeline from public calls with spans around each stage and report
// the per-layer metrics (see README.md for what each should move).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for WALs and span files (inside the checkout).
  std::string work_dir;
};

struct RunOutcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  bool correct() const { return failed == 0 && errors.empty(); }
  /// Counts one checked operation; a false `ok` is a failure.
  void Check(bool ok, const std::string& what);
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload and fills `outcome`; human-readable lines go to
/// stdout as the run proceeds.
void RunWorkload(const RunArgs& args, RunOutcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
