#include "stage_pass.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "analysis/streaming_analytics.h"
#include "core/check.h"
#include "core/rng.h"
#include "core/stream_digest.h"
#include "engine/fleet.h"
#include "engine/sharded_collector.h"
#include "multidim/multidim_perturber.h"
#include "pipelines.h"
#include "stats.h"
#include "storage/durable_collector.h"
#include "storage/wal.h"
#include "stream/session.h"
#include "stream/smoothing.h"
#include "transport/wire_format.h"

namespace perfbench {
namespace {

using capp::Result;
using capp::Status;

// Runs a frame batch of this many users before the encode buffer is
// reused, as a producer stages max_batch_runs runs per frame.
constexpr size_t kBatchRuns = 64;

// Keeps a value observable so the timed loops cannot be optimized away.
volatile uint64_t g_sink = 0;

// The timed stages, in the order each repetition runs them.
enum StageSlot : size_t {
  kSynthSlot,
  kPerturbSlot,
  kSmoothSlot,
  kDigestSlot,
  kEncodeSlot,
  kCrcSlot,
  kDecodeSlot,
  kIngestOffSlot,
  kIngestOnSlot,
  kWalAppendSlot,
  kWalSyncSlot,
  kReplaySlot,
  kSlotCount,
};

}  // namespace

Result<StagePassResult> RunStagePass(const StagePassOptions& options) {
  namespace fs = std::filesystem;
  const size_t users = options.users;
  const size_t slots = options.slots;
  const size_t dims = options.dims;
  const size_t cells = dims * slots;
  const capp::PerturberOptions perturber_options{options.epsilon,
                                                 options.window};
  const capp::SignalKind signal = capp::SignalKind::kSinusoid;
  const int smoothing = kCappSmoothingWindow;

  auto signal_seed = [&](uint64_t uid) {
    return capp::UserStreamSeed(options.seed, uid, 0);
  };
  auto perturb_seed = [&](uint64_t uid) {
    return capp::UserStreamSeed(options.seed, uid, 1);
  };

  CAPP_ASSIGN_OR_RETURN(
      capp::UserSession session,
      capp::UserSession::Create(0, capp::AlgorithmKind::kCapp,
                                perturber_options, 0));
  std::optional<capp::MultidimPerturber> multidim;
  if (dims > 1) {
    CAPP_ASSIGN_OR_RETURN(
        capp::MultidimPerturber created,
        capp::MultidimPerturber::Create(dims,
                                        capp::MultidimStrategy::kBudgetSplit,
                                        perturber_options,
                                        capp::AlgorithmKind::kCapp));
    multidim.emplace(std::move(created));
  }
  std::vector<double> buf;
  std::vector<double> out(cells);
  std::vector<double> scratch;
  std::vector<double> dim_row;
  std::vector<double> dim_smoothed;

  auto perturb_user = [&](uint64_t uid, std::span<const double> truth,
                          std::vector<double>& values) {
    if (dims == 1) {
      session.ResetForUser(uid, perturb_seed(uid));
      values.resize(slots);
      session.ReportChunk(truth, values);
    } else {
      multidim->ResetForUser(perturb_seed(uid));
      multidim->PerturbStream(truth, slots, values);
    }
  };
  auto smooth_user = [&](std::span<const double> values,
                         std::vector<double>& published) {
    if (dims == 1) {
      CAPP_CHECK(capp::SimpleMovingAverageInto(values, smoothing, published,
                                               scratch)
                     .ok());
      return;
    }
    published.resize(cells);
    for (size_t k = 0; k < dims; ++k) {
      dim_row.assign(values.begin() + static_cast<ptrdiff_t>(k * slots),
                     values.begin() + static_cast<ptrdiff_t>((k + 1) * slots));
      CAPP_CHECK(capp::SimpleMovingAverageInto(dim_row, smoothing,
                                               dim_smoothed, scratch)
                     .ok());
      std::copy(dim_smoothed.begin(), dim_smoothed.end(),
                published.begin() + static_cast<ptrdiff_t>(k * slots));
    }
  };
  auto encode_user = [&](uint64_t uid, std::span<const double> values,
                         std::vector<uint8_t>& bytes) {
    if (dims == 1) {
      capp::AppendUserRunFrame(uid, 0, values, bytes);
    } else {
      capp::AppendMultiDimRunFrame(uid, 0, dims, values, bytes);
    }
  };

  // ---- untimed preparation: every stage's input, generated once.
  std::vector<double> truth(users * cells);
  std::vector<double> reports(users * cells);
  std::vector<double> published(users * cells);
  std::vector<uint8_t> frames;
  std::vector<size_t> frame_offsets;
  for (uint64_t uid = 0; uid < users; ++uid) {
    capp::Rng rng(signal_seed(uid));
    capp::GenerateUserSignalMultiInto(signal, dims, slots, rng, buf);
    std::copy(buf.begin(), buf.end(), truth.begin() + uid * cells);
    perturb_user(uid, std::span<const double>(truth.data() + uid * cells, cells),
                 out);
    std::copy(out.begin(), out.end(), reports.begin() + uid * cells);
    smooth_user(std::span<const double>(reports.data() + uid * cells, cells),
                buf);
    std::copy(buf.begin(), buf.end(), published.begin() + uid * cells);
    frame_offsets.push_back(frames.size());
    encode_user(uid, std::span<const double>(reports.data() + uid * cells, cells),
                frames);
  }
  frame_offsets.push_back(frames.size());
  auto row = [&](const std::vector<double>& m, uint64_t uid) {
    return std::span<const double>(m.data() + uid * cells, cells);
  };
  auto frame = [&](uint64_t uid) {
    return std::span<const uint8_t>(frames.data() + frame_offsets[uid],
                                    frame_offsets[uid + 1] - frame_offsets[uid]);
  };

  capp::ShardedCollectorOptions off_options;
  off_options.keep_streams = false;
  off_options.dims = dims;
  off_options.single_writer = true;
  capp::ShardedCollectorOptions on_options = off_options;
  CAPP_ASSIGN_OR_RETURN(
      on_options.histogram,
      capp::StreamingAnalyzer::CollectorHistogramOptions(
          options.epsilon / (static_cast<double>(dims) * options.window), 32));

  capp::WalOptions wal_options;
  wal_options.dir = options.wal_dir;
  wal_options.fingerprint = 0x5741'4C53'5441'4745ULL;  // any fixed value
  wal_options.fsync_policy = capp::WalFsyncPolicy::kPerFrames;
  wal_options.fsync_every_frames = 1024;

  const double reports_d = static_cast<double>(users * cells);
  std::vector<std::vector<double>> samples(kSlotCount);
  auto time_stage = [&](size_t slot, double per,
                        const std::function<void()>& body) {
    const int64_t t0 = WallNs();
    body();
    samples[slot].push_back(static_cast<double>(WallNs() - t0) / per);
  };

  StagePassResult result;
  result.dims = dims;
  result.reports = users * cells;
  for (int rep = 0; rep < options.repeats; ++rep) {
    time_stage(kSynthSlot, reports_d, [&] {
      for (uint64_t uid = 0; uid < users; ++uid) {
        capp::Rng rng(signal_seed(uid));
        capp::GenerateUserSignalMultiInto(signal, dims, slots, rng, buf);
      }
    });
    time_stage(kPerturbSlot, reports_d, [&] {
      for (uint64_t uid = 0; uid < users; ++uid) {
        perturb_user(uid, row(truth, uid), out);
      }
    });
    time_stage(kSmoothSlot, reports_d, [&] {
      for (uint64_t uid = 0; uid < users; ++uid) smooth_user(row(reports, uid), buf);
    });
    time_stage(kDigestSlot, reports_d, [&] {
      uint64_t acc = 0;
      for (uint64_t uid = 0; uid < users; ++uid) {
        acc ^= capp::UserStreamDigest(uid, row(published, uid));
      }
      g_sink = acc;
    });
    std::vector<uint8_t> staged;
    time_stage(kEncodeSlot, reports_d, [&] {
      for (uint64_t uid = 0; uid < users; ++uid) {
        if (uid % kBatchRuns == 0) staged.clear();
        encode_user(uid, row(reports, uid), staged);
      }
    });
    time_stage(kCrcSlot, static_cast<double>(frames.size()), [&] {
      uint32_t acc = 0;
      for (uint64_t uid = 0; uid < users; ++uid) acc ^= capp::Crc32(frame(uid));
      g_sink = acc;
    });
    time_stage(kDecodeSlot, reports_d, [&] {
      uint64_t user_id = 0, base_slot = 0, frame_dims = 0;
      for (uint64_t uid = 0; uid < users; ++uid) {
        auto used = capp::DecodeUserRunFrame(frame(uid), &user_id, &base_slot,
                                             &frame_dims, scratch);
        CAPP_CHECK(used.ok());
      }
    });
    for (int hist = 0; hist < 2; ++hist) {
      CAPP_ASSIGN_OR_RETURN(capp::ShardedCollector collector,
                            capp::ShardedCollector::Create(
                                hist == 0 ? off_options : on_options));
      collector.ReserveUsers(users);
      time_stage(hist == 0 ? kIngestOffSlot : kIngestOnSlot, reports_d, [&] {
        for (uint64_t uid = 0; uid < users; ++uid) {
          collector.IngestUserRun(uid, 0, dims, row(reports, uid));
        }
      });
    }
    std::error_code ec;
    fs::remove_all(options.wal_dir, ec);
    {
      CAPP_ASSIGN_OR_RETURN(capp::WalWriter writer,
                            capp::WalWriter::Create(wal_options, 1));
      Status appended;
      time_stage(kWalAppendSlot, reports_d, [&] {
        for (uint64_t uid = 0; uid < users && appended.ok(); ++uid) {
          appended = writer.Append(frame(uid));
        }
      });
      CAPP_RETURN_IF_ERROR(appended);
      Status synced;
      time_stage(kWalSyncSlot, 1e9, [&] { synced = writer.Sync(); });
      CAPP_RETURN_IF_ERROR(synced);
      result.wal_fsyncs = writer.stats().fsyncs;
      result.wal_bytes = writer.stats().bytes_appended;
      CAPP_RETURN_IF_ERROR(writer.Seal());
    }
    {
      CAPP_ASSIGN_OR_RETURN(capp::ShardedCollector recovered,
                            capp::ShardedCollector::Create(off_options));
      capp::DurableCollectorOptions durable_options;
      durable_options.wal = wal_options;
      std::unique_ptr<capp::DurableCollector> durable;
      Status created;
      time_stage(kReplaySlot, reports_d, [&] {
        auto made = capp::DurableCollector::Create(&recovered, durable_options);
        if (made.ok()) {
          durable = std::move(*made);
        } else {
          created = made.status();
        }
      });
      CAPP_RETURN_IF_ERROR(created);
      if (recovered.report_count() != users * cells) {
        return Status::Internal("stage-pass WAL replay lost reports");
      }
      CAPP_RETURN_IF_ERROR(durable->Seal());
    }
    fs::remove_all(options.wal_dir, ec);
  }
  result.synth_ns = Median(samples[kSynthSlot]);
  result.perturb_ns = Median(samples[kPerturbSlot]);
  result.smooth_ns = Median(samples[kSmoothSlot]);
  result.digest_ns = Median(samples[kDigestSlot]);
  result.encode_ns = Median(samples[kEncodeSlot]);
  result.crc_ns_per_byte = Median(samples[kCrcSlot]);
  result.decode_ns = Median(samples[kDecodeSlot]);
  result.ingest_off_ns = Median(samples[kIngestOffSlot]);
  result.ingest_on_ns = Median(samples[kIngestOnSlot]);
  result.wal_append_ns = Median(samples[kWalAppendSlot]);
  result.wal_sync_s = Median(samples[kWalSyncSlot]);
  result.replay_ns = Median(samples[kReplaySlot]);
  return result;
}

Result<double> AuditWindowSpend(uint64_t seed, size_t users, size_t slots,
                                double epsilon, int window, size_t sample) {
  capp::Rng pick(capp::UserStreamSeed(seed, users, 7));
  std::vector<double> truth;
  std::vector<double> values(slots);
  double worst = 0.0;
  for (size_t i = 0; i < sample; ++i) {
    const uint64_t uid = pick.NextUint64() % users;
    CAPP_ASSIGN_OR_RETURN(
        capp::UserSession session,
        capp::UserSession::Create(uid, capp::AlgorithmKind::kCapp,
                                  {epsilon, window},
                                  capp::UserStreamSeed(seed, uid, 1)));
    capp::Rng rng(capp::UserStreamSeed(seed, uid, 0));
    capp::GenerateUserSignalInto(capp::SignalKind::kSinusoid, slots, rng,
                                 truth);
    session.ReportChunk(truth, values);
    CAPP_RETURN_IF_ERROR(session.AuditBudget());
    worst = std::max(worst, session.MaxWindowSpend() / epsilon);
  }
  return worst;
}

}  // namespace perfbench
