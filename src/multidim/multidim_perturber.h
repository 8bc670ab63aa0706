// MultidimPerturber: d-dimensional user streams under the paper's two
// multi-dimensional strategies (Section IV-C), and the fleet's one device
// pipeline for every d >= 1.
//
// Both strategies run one scalar perturber per dimension and differ only
// in how a slot spends the w-event budget eps:
//   * Budget-Split (BS): every dimension uploads every slot; sequential
//     composition gives each (dimension, slot) upload eps / (d * w), so
//     each dimension's perturber runs with window budget eps / d.
//   * Sample-Split (SS): at slot t only dimension t mod d (round-robin)
//     uploads, at eps / w; the others republish their last report (0.5
//     before their first upload). The ledger records eps / w per global
//     slot, each upload's real spend for the fixed-rate kinds (SW-direct,
//     IPP, APP, CAPP). The adaptive kinds (BA-SW, ToPL) pace eps over w of
//     their *own* uploads, which span d * w global slots, so their real
//     spend in a window of w global slots would exceed eps: Create refuses
//     them under sample split at d >= 2.
//
// Streams are dim-major -- all of dimension 0's slots, then dimension
// 1's, exactly the 0xC6 wire layout -- and each (dimension, slot) report
// is written straight into the caller's buffer. Draws are slot-major:
// slot t perturbs its dimensions in order before slot t + 1. One object
// is pooled per fleet worker and reseeded per user (ResetForUser), so the
// per-user path constructs no perturber after the first user.
#ifndef CAPP_MULTIDIM_MULTIDIM_PERTURBER_H_
#define CAPP_MULTIDIM_MULTIDIM_PERTURBER_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "algorithms/factory.h"
#include "algorithms/perturber.h"
#include "core/rng.h"
#include "core/status.h"
#include "stream/accountant.h"

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
  /// online (the sampling kinds are refused), and fixed-rate under sample
  /// split at dims >= 2 (BA-SW and ToPL are refused). dims must be >= 1; at
  /// dims = 1 both strategies are `inner` itself (budget split spends
  /// eps / 1, sample split's one dimension uploads every slot), and report
  /// exactly what a UserSession running it reports.
  static Result<MultidimPerturber> Create(size_t dims,
                                          MultidimStrategy strategy,
                                          PerturberOptions options,
                                          AlgorithmKind inner);

  /// "<inner>-bs" or "<inner>-ss", e.g. "capp-bs".
  std::string_view name() const { return name_; }

  /// SMA window the publication step calls for (the inner algorithm's;
  /// see StreamPerturber).
  int publication_smoothing_window() const {
    return inner_.front()->publication_smoothing_window();
  }

  /// Optional shared (non-owned) ledger, summing spends across *all*
  /// dimensions. Under budget split, and for a lone dimension, each inner
  /// perturber records its own spends, so per-slot spends add across
  /// dimensions. Under sample split with d >= 2 the strategy records the
  /// eps / w its active dimension's upload spends at each global slot.
  /// nullptr detaches.
  void AttachAccountant(WEventAccountant* accountant);

  /// Clears all per-stream state and reseeds the perturbation RNG: the
  /// per-user reset (seed = UserStreamSeed(fleet seed, uid, 1)).
  void ResetForUser(uint64_t seed);

  /// Perturbs one user's whole stream with the pooled RNG. `truth` and
  /// `out` are dim-major (dims * slots doubles; dimension k's run at
  /// [k * slots, (k+1) * slots)); `out` is resized. With one dimension the
  /// slot-major draw order is the dimension's own, so the whole run goes
  /// through the inner perturber's batched ProcessChunk.
  void PerturbStream(std::span<const double> truth, size_t slots,
                     std::vector<double>& out) {
    PerturbStream(truth, slots, out, rng_);
  }

  /// As above, drawing from the caller's `rng` (callers that interleave
  /// their own draws with the perturbation's).
  void PerturbStream(std::span<const double> truth, size_t slots,
                     std::vector<double>& out, Rng& rng);

 private:
  MultidimPerturber(std::vector<std::unique_ptr<StreamPerturber>> inner,
                    bool sample_split, std::string name)
      : inner_(std::move(inner)), sample_split_(sample_split),
        name_(std::move(name)), last_report_(inner_.size(), 0.5) {}

  std::vector<std::unique_ptr<StreamPerturber>> inner_;  // one per dim
  /// Sample split with d >= 2 (a lone dimension uploads every slot, which
  /// is budget split's loop).
  bool sample_split_;
  std::string name_;
  Rng rng_{0};
  // Sample split: each dimension's last report, the global slot counter,
  // and the ledger it writes.
  std::vector<double> last_report_;
  size_t slot_ = 0;
  WEventAccountant* accountant_ = nullptr;
};

}  // namespace capp

#endif  // CAPP_MULTIDIM_MULTIDIM_PERTURBER_H_
