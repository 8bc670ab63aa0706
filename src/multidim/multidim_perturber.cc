#include "multidim/multidim_perturber.h"

#include <string>
#include <utility>

#include "core/check.h"
#include "multidim/sample_split.h"

namespace capp {

std::string_view MultidimStrategyName(MultidimStrategy strategy) {
  switch (strategy) {
    case MultidimStrategy::kBudgetSplit:
      return "budget_split";
    case MultidimStrategy::kSampleSplit:
      return "sample_split";
  }
  return "unknown";
}

Result<MultidimStrategy> ParseMultidimStrategy(std::string_view name) {
  for (MultidimStrategy strategy : {MultidimStrategy::kBudgetSplit,
                                    MultidimStrategy::kSampleSplit}) {
    if (name == MultidimStrategyName(strategy)) return strategy;
  }
  return Status::InvalidArgument("unknown multidim strategy: " +
                                 std::string(name));
}

double PerSlotBudget(double epsilon, int window, size_t dims,
                     MultidimStrategy strategy) {
  return strategy == MultidimStrategy::kBudgetSplit
             ? epsilon / (static_cast<double>(dims) * window)
             : epsilon / window;
}

Result<MultidimPerturber> MultidimPerturber::Create(
    size_t dims, MultidimStrategy strategy, PerturberOptions options,
    AlgorithmKind inner) {
  std::unique_ptr<MultiDimPerturber> impl;
  switch (strategy) {
    case MultidimStrategy::kBudgetSplit: {
      CAPP_ASSIGN_OR_RETURN(
          impl, BudgetSplitPerturber::Create(dims, options, inner));
      break;
    }
    case MultidimStrategy::kSampleSplit: {
      CAPP_ASSIGN_OR_RETURN(
          impl, SampleSplitPerturber::Create(dims, options, inner));
      break;
    }
  }
  return MultidimPerturber(std::move(impl));
}

void MultidimPerturber::ResetForUser(uint64_t seed) {
  impl_->Reset();
  rng_ = Rng(seed);
}

void MultidimPerturber::PerturbStream(std::span<const double> truth,
                                      size_t slots,
                                      std::vector<double>& out) {
  const size_t dims = impl_->dimensions();
  CAPP_CHECK(truth.size() == dims * slots);
  out.resize(dims * slots);
  if (dims == 1) {
    // Bit-identical to the per-slot loop below (ProcessChunk's contract).
    impl_->dimension(0).ProcessChunk(truth, out, rng_);
    return;
  }
  x_.resize(dims);
  for (size_t t = 0; t < slots; ++t) {
    for (size_t k = 0; k < dims; ++k) x_[k] = truth[k * slots + t];
    const std::vector<double> y = impl_->ProcessVector(x_, rng_);
    for (size_t k = 0; k < dims; ++k) out[k * slots + t] = y[k];
  }
}

}  // namespace capp
