#include "analysis/evaluation.h"

#include <algorithm>

#include "analysis/metrics.h"
#include "core/math_utils.h"
#include "stream/smoothing.h"

namespace capp {
namespace {

Status ValidateEvalOptions(const EvalOptions& options) {
  if (options.query_length < 1) {
    return Status::InvalidArgument("query_length must be >= 1");
  }
  if (options.num_subsequences < 1) {
    return Status::InvalidArgument("num_subsequences must be >= 1");
  }
  if (options.trials < 1) {
    return Status::InvalidArgument("trials must be >= 1");
  }
  if (options.smoothing_window < 0 ||
      (options.smoothing_window > 0 && options.smoothing_window % 2 == 0)) {
    return Status::InvalidArgument(
        "smoothing_window must be 0 (algorithm default) or odd");
  }
  return Status::OK();
}

// One (trial, subsequence) run: perturb, publish, score.
Status RunOnce(std::span<const double> window,
               const PerturberFactory& factory, int smoothing_override,
               Rng& rng, UtilityReport* report) {
  CAPP_ASSIGN_OR_RETURN(std::unique_ptr<StreamPerturber> perturber,
                        factory());
  const std::vector<double> reports =
      perturber->PerturbSequence(window, rng);
  const int smoothing_window =
      smoothing_override > 0 ? smoothing_override
                             : perturber->publication_smoothing_window();
  auto smoothed = SimpleMovingAverage(reports, smoothing_window);
  CAPP_RETURN_IF_ERROR(smoothed.status());
  const std::vector<double>& published = *smoothed;

  const double true_mean = Mean(window);
  const double est_mean = Mean(reports);  // SMA is mean-preserving anyway
  const double mean_err = est_mean - true_mean;

  report->mean_mse += mean_err * mean_err;
  report->cosine_distance += CosineDistance(published, window);
  report->pointwise_mse += Mse(published, window);
  report->runs += 1;
  return Status::OK();
}

void FinalizeReport(UtilityReport* report) {
  if (report->runs == 0) return;
  const double n = static_cast<double>(report->runs);
  report->mean_mse /= n;
  report->cosine_distance /= n;
  report->pointwise_mse /= n;
}

}  // namespace

Result<UtilityReport> EvaluateStreamUtility(std::span<const double> stream,
                                            const PerturberFactory& factory,
                                            const EvalOptions& options) {
  CAPP_RETURN_IF_ERROR(ValidateEvalOptions(options));
  const size_t q = static_cast<size_t>(options.query_length);
  if (stream.size() < q) {
    return Status::InvalidArgument("stream shorter than query_length");
  }
  Rng rng(options.seed);
  UtilityReport report;
  const size_t max_start = stream.size() - q;
  for (int trial = 0; trial < options.trials; ++trial) {
    for (int s = 0; s < options.num_subsequences; ++s) {
      const size_t start =
          max_start == 0 ? 0 : rng.UniformInt(max_start + 1);
      CAPP_RETURN_IF_ERROR(RunOnce(stream.subspan(start, q), factory,
                                   options.smoothing_window, rng, &report));
    }
  }
  FinalizeReport(&report);
  return report;
}

Result<UtilityReport> EvaluateDatasetUtility(
    const std::vector<std::vector<double>>& users,
    const PerturberFactory& factory, const EvalOptions& options) {
  CAPP_RETURN_IF_ERROR(ValidateEvalOptions(options));
  const size_t q = static_cast<size_t>(options.query_length);
  std::vector<const std::vector<double>*> eligible;
  for (const auto& u : users) {
    if (u.size() >= q) eligible.push_back(&u);
  }
  if (eligible.empty()) {
    return Status::InvalidArgument("no user stream >= query_length");
  }
  Rng rng(options.seed);
  UtilityReport report;
  for (int trial = 0; trial < options.trials; ++trial) {
    for (int s = 0; s < options.num_subsequences; ++s) {
      const auto& stream = *eligible[rng.UniformInt(eligible.size())];
      const size_t max_start = stream.size() - q;
      const size_t start =
          max_start == 0 ? 0 : rng.UniformInt(max_start + 1);
      CAPP_RETURN_IF_ERROR(
          RunOnce(std::span<const double>(stream.data() + start, q), factory,
                  options.smoothing_window, rng, &report));
    }
  }
  FinalizeReport(&report);
  return report;
}

Result<UtilityReport> EvaluateMultiDimUtility(
    const std::vector<std::vector<double>>& dims,
    const MultidimPerturberFactory& factory, const EvalOptions& options) {
  CAPP_RETURN_IF_ERROR(ValidateEvalOptions(options));
  if (dims.empty()) return Status::InvalidArgument("no dimensions");
  const size_t d = dims.size();
  const size_t n = dims[0].size();
  for (const auto& dim : dims) {
    if (dim.size() != n) {
      return Status::InvalidArgument("dimension lengths differ");
    }
  }
  const size_t q = static_cast<size_t>(options.query_length);
  if (n < q) return Status::InvalidArgument("stream shorter than q");

  Rng rng(options.seed);
  UtilityReport report;
  std::vector<double> truth(d * q);  // dim-major, like the reports
  std::vector<double> reports;
  for (int trial = 0; trial < options.trials; ++trial) {
    for (int s = 0; s < options.num_subsequences; ++s) {
      const size_t max_start = n - q;
      const size_t start =
          max_start == 0 ? 0 : rng.UniformInt(max_start + 1);
      CAPP_ASSIGN_OR_RETURN(MultidimPerturber perturber, factory());
      for (size_t k = 0; k < d; ++k) {
        std::copy_n(dims[k].begin() + static_cast<ptrdiff_t>(start), q,
                    truth.begin() + static_cast<ptrdiff_t>(k * q));
      }
      perturber.PerturbStream(truth, q, reports, rng);
      // Score each dimension, averaged.
      const int smoothing_window =
          options.smoothing_window > 0
              ? options.smoothing_window
              : perturber.publication_smoothing_window();
      double mse_sum = 0.0, cos_sum = 0.0, pw_sum = 0.0;
      for (size_t k = 0; k < d; ++k) {
        const std::span<const double> dim_truth(truth.data() + k * q, q);
        const std::span<const double> dim_reports(reports.data() + k * q, q);
        auto smoothed = SimpleMovingAverage(dim_reports, smoothing_window);
        CAPP_RETURN_IF_ERROR(smoothed.status());
        const double err = Mean(dim_reports) - Mean(dim_truth);
        mse_sum += err * err;
        cos_sum += CosineDistance(*smoothed, dim_truth);
        pw_sum += Mse(*smoothed, dim_truth);
      }
      report.mean_mse += mse_sum / static_cast<double>(d);
      report.cosine_distance += cos_sum / static_cast<double>(d);
      report.pointwise_mse += pw_sum / static_cast<double>(d);
      report.runs += 1;
    }
  }
  FinalizeReport(&report);
  return report;
}

}  // namespace capp
