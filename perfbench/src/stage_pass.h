// The isolated stage pass: each pipeline stage timed on its own, through
// the modules' public calls, over inputs generated before timing starts.
// Every stage reads its input from a flat pre-generated matrix and writes
// into one reused per-user buffer, as the fleet's pooled workers do --
// timing into fresh per-user vectors would charge page faults and cold
// caches to synthesis and perturbation.
#ifndef PERFBENCH_STAGE_PASS_H_
#define PERFBENCH_STAGE_PASS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/status.h"

namespace perfbench {

/// Medians over the repetitions, in ns per report unless noted.
struct StagePassResult {
  size_t dims = 1;
  uint64_t reports = 0;   // per repetition
  double synth_ns = 0.0;    // GenerateUserSignal{,Multi}Into
  double perturb_ns = 0.0;  // ReportChunk (d=1) / PerturbStream (d>1)
  double smooth_ns = 0.0;   // SimpleMovingAverageInto
  double digest_ns = 0.0;   // UserStreamDigest
  double encode_ns = 0.0;   // Append{UserRun,MultiDimRun}Frame
  double crc_ns_per_byte = 0.0;  // Crc32 over whole frames
  double decode_ns = 0.0;   // DecodeUserRunFrame
  double ingest_off_ns = 0.0;  // IngestUserRun, histograms off
  double ingest_on_ns = 0.0;   // IngestUserRun, histograms on
  double wal_append_ns = 0.0;  // WalWriter::Append (kPerFrames syncs)
  double wal_sync_s = 0.0;     // WalWriter::Sync after the appends (s)
  uint64_t wal_fsyncs = 0;
  uint64_t wal_bytes = 0;
  double replay_ns = 0.0;      // DurableCollector::Create replaying it
};

struct StagePassOptions {
  size_t dims = 1;
  size_t users = 10000;
  size_t slots = 50;
  double epsilon = 1.0;
  int window = 10;
  uint64_t seed = 1;
  int repeats = 5;
  std::string wal_dir;
};

capp::Result<StagePassResult> RunStagePass(const StagePassOptions& options);

/// Privacy audit (paper Def. 3, w-event privacy): replays `sample` users,
/// picked by a seeded RNG from [0, users), through fresh UserSessions at
/// the per-dimension budget and returns the largest window spend over
/// that budget. Fails if any session's AuditBudget() fails.
capp::Result<double> AuditWindowSpend(uint64_t seed, size_t users,
                                      size_t slots, double epsilon,
                                      int window, size_t sample);

}  // namespace perfbench

#endif  // PERFBENCH_STAGE_PASS_H_
