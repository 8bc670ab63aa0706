// MultidimPerturber: the engine-facing adapter that runs a whole
// d-dimensional user stream through one of the multi-dimensional
// strategies (multidim/budget_split.h, multidim/sample_split.h): the
// fleet's one device pipeline for every d >= 1.
//
// The strategies themselves are slot-at-a-time vector perturbers
// (MultiDimPerturber::ProcessVector); the fleet works in dim-major runs
// -- all of dimension 0's slots, then dimension 1's, exactly the 0xC6
// wire layout. This adapter owns the gather/scatter between the two
// shapes plus the per-user RNG, so a fleet worker's per-user path is
// ResetForUser + one PerturbStream call, mirroring UserSession's
// ResetForUser + ReportChunk. Like UserSession, one adapter is pooled per
// worker chunk and reseeded per user, so the per-user path constructs no
// perturber after the first user.
#ifndef CAPP_MULTIDIM_MULTIDIM_PERTURBER_H_
#define CAPP_MULTIDIM_MULTIDIM_PERTURBER_H_

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "algorithms/factory.h"
#include "algorithms/perturber.h"
#include "core/rng.h"
#include "core/status.h"
#include "multidim/budget_split.h"

namespace capp {

/// How a d-dimensional stream spends its w-event budget (Section IV-C).
enum class MultidimStrategy {
  kBudgetSplit,  ///< Every dimension uploads every slot at eps / (d * w).
  kSampleSplit,  ///< One dimension (round-robin) uploads at eps / w; the
                 ///< rest republish their last report.
};

/// Short display name ("budget_split", "sample_split").
std::string_view MultidimStrategyName(MultidimStrategy strategy);

/// Parses a display name back into a strategy.
Result<MultidimStrategy> ParseMultidimStrategy(std::string_view name);

/// Budget one (attribute, slot) publication spends: eps / (d * w) under
/// budget split, eps / w under sample split (its one uploading attribute
/// spends the whole slot budget). At d = 1 the two coincide bit for bit.
double PerSlotBudget(double epsilon, int window, size_t dims,
                     MultidimStrategy strategy);

/// Runs d-dimensional user streams through a multi-dim strategy.
class MultidimPerturber {
 public:
  /// `options.epsilon` is the total window budget across all dimensions;
  /// `inner` is the scalar algorithm each dimension runs and must be
  /// online (the sampling kinds are refused). dims must be >= 1; at
  /// dims = 1 both strategies are `inner` itself (budget split spends
  /// eps / 1, sample split's one dimension uploads every slot), and report
  /// for finite inputs exactly what a UserSession running it reports.
  static Result<MultidimPerturber> Create(size_t dims,
                                          MultidimStrategy strategy,
                                          PerturberOptions options,
                                          AlgorithmKind inner);

  int publication_smoothing_window() const {
    return impl_->publication_smoothing_window();
  }

  /// Clears all per-stream state and reseeds the perturbation RNG: the
  /// per-user reset (seed = UserStreamSeed(fleet seed, uid, 1)).
  void ResetForUser(uint64_t seed);

  /// Perturbs one user's whole stream. `truth` and `out` are dim-major
  /// (dims * slots doubles; dimension k's run at [k * slots, (k+1) *
  /// slots)); `out` is resized. Internally each slot's d-vector is
  /// gathered, perturbed via the strategy, and scattered back. With one
  /// dimension that slot order is the dimension's own, so the whole run
  /// goes through the inner perturber's batched ProcessChunk instead.
  void PerturbStream(std::span<const double> truth, size_t slots,
                     std::vector<double>& out);

 private:
  explicit MultidimPerturber(std::unique_ptr<MultiDimPerturber> impl)
      : impl_(std::move(impl)) {}

  std::unique_ptr<MultiDimPerturber> impl_;
  Rng rng_{0};
  std::vector<double> x_;  // per-slot gather buffer, reused
};

}  // namespace capp

#endif  // CAPP_MULTIDIM_MULTIDIM_PERTURBER_H_
