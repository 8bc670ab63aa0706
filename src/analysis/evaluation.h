// The paper's evaluation protocol (Section VI): sample random subsequences
// of length q from a stream, run a perturbation algorithm over each, publish
// through the collector (SMA smoothing), and aggregate
//   * MSE of the subsequence-mean estimate      (Figs. 4, 6, Table I),
//   * cosine distance of the published stream   (Figs. 5, 7),
//   * per-point MSE of the published stream     (diagnostics/ablations).
// Shared by tests, benchmarks, and examples so every consumer measures
// utility identically.
#ifndef CAPP_ANALYSIS_EVALUATION_H_
#define CAPP_ANALYSIS_EVALUATION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/crowd.h"
#include "multidim/multidim_perturber.h"

namespace capp {

/// Protocol parameters.
struct EvalOptions {
  int query_length = 10;      ///< Subsequence length q.
  int num_subsequences = 50;  ///< Random subsequences per trial.
  int trials = 20;            ///< Independent repetitions (paper: 100).
  /// Collector SMA window. 0 (default) uses each algorithm's own
  /// publication_smoothing_window() -- the paper's protocol, where the PP
  /// algorithms smooth with window 3 and the baselines publish raw. A
  /// positive odd value forces the same window on every algorithm (used by
  /// the smoothing ablation).
  int smoothing_window = 0;
  uint64_t seed = 1;          ///< Protocol RNG seed (reproducible).
};

/// Aggregated utility over all (trial, subsequence) runs.
struct UtilityReport {
  double mean_mse = 0.0;         ///< E[(est mean - true mean)^2].
  double cosine_distance = 0.0;  ///< E[1 - cos(published, truth)].
  double pointwise_mse = 0.0;    ///< E[per-point MSE of published stream].
  int runs = 0;                  ///< Number of runs aggregated.
};

/// Evaluates one single-user stream.
Result<UtilityReport> EvaluateStreamUtility(std::span<const double> stream,
                                            const PerturberFactory& factory,
                                            const EvalOptions& options);

/// Evaluates a multi-user dataset: each run draws a random user, then a
/// random subsequence of that user's stream.
Result<UtilityReport> EvaluateDatasetUtility(
    const std::vector<std::vector<double>>& users,
    const PerturberFactory& factory, const EvalOptions& options);

/// Factory for multi-dimensional perturbers (fresh instance per run).
using MultidimPerturberFactory = std::function<Result<MultidimPerturber>()>;

/// Evaluates a d-dimensional stream (dims[k] is dimension k's series, all
/// equal length). Metrics are averaged across dimensions.
Result<UtilityReport> EvaluateMultiDimUtility(
    const std::vector<std::vector<double>>& dims,
    const MultidimPerturberFactory& factory, const EvalOptions& options);

}  // namespace capp

#endif  // CAPP_ANALYSIS_EVALUATION_H_
