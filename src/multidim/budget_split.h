// Budget-Split (BS) strategy for d-dimensional streams (Section IV-C).
//
// At every time slot the user uploads all d dimensions; sequential
// composition across dimensions means each per-dimension upload gets budget
// eps / (d * w). Implemented as d independent inner perturbers, each
// configured with window budget eps / d.
#ifndef CAPP_MULTIDIM_BUDGET_SPLIT_H_
#define CAPP_MULTIDIM_BUDGET_SPLIT_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "algorithms/factory.h"
#include "algorithms/perturber.h"

namespace capp {

/// Perturbs a d-dimensional stream, one vector per slot. Every strategy
/// runs one inner scalar perturber per dimension.
class MultiDimPerturber {
 public:
  virtual ~MultiDimPerturber() = default;
  std::string_view name() const { return name_; }
  size_t dimensions() const { return inner_.size(); }
  /// SMA window the publication step calls for (delegates to the inner
  /// per-dimension algorithm; see StreamPerturber).
  int publication_smoothing_window() const {
    return inner_.front()->publication_smoothing_window();
  }
  /// Dimension k's inner scalar perturber.
  StreamPerturber& dimension(size_t k) { return *inner_[k]; }
  /// Perturbs one slot's d-vector (values in [0,1] per dimension).
  virtual std::vector<double> ProcessVector(const std::vector<double>& x,
                                            Rng& rng) = 0;
  /// Clears per-stream state.
  virtual void Reset() {
    for (auto& p : inner_) p->Reset();
  }
  /// Optional shared ledger: window sums across *all* dimensions must stay
  /// within the total budget. By default every dimension records into it,
  /// so per-slot spends add across dimensions.
  virtual void AttachAccountant(WEventAccountant* accountant) {
    for (auto& p : inner_) p->AttachAccountant(accountant);
  }

 protected:
  MultiDimPerturber(std::vector<std::unique_ptr<StreamPerturber>> inner,
                    std::string name)
      : inner_(std::move(inner)), name_(std::move(name)) {}

  std::vector<std::unique_ptr<StreamPerturber>> inner_;

 private:
  std::string name_;
};

/// Creates the `dimensions` inner perturbers of a strategy, each running
/// `inner` with `per_dimension` options. Refuses zero dimensions and the
/// offline-only sampling kinds, which cannot report one slot at a time.
Result<std::vector<std::unique_ptr<StreamPerturber>>>
CreateDimensionPerturbers(size_t dimensions, AlgorithmKind inner,
                          PerturberOptions per_dimension);

/// Budget-Split multi-dimensional perturbation.
class BudgetSplitPerturber final : public MultiDimPerturber {
 public:
  /// `options.epsilon` is the *total* window budget across all dimensions.
  static Result<std::unique_ptr<BudgetSplitPerturber>> Create(
      size_t dimensions, PerturberOptions options,
      AlgorithmKind inner = AlgorithmKind::kSwDirect);

  std::vector<double> ProcessVector(const std::vector<double>& x,
                                    Rng& rng) override;

 private:
  using MultiDimPerturber::MultiDimPerturber;
};

}  // namespace capp

#endif  // CAPP_MULTIDIM_BUDGET_SPLIT_H_
