#include "multidim/multidim_perturber.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/check.h"

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
  CAPP_RETURN_IF_ERROR(ValidatePerturberOptions(options));
  if (dims == 0) return Status::InvalidArgument("dimensions must be >= 1");
  const bool budget_split = strategy == MultidimStrategy::kBudgetSplit;
  // Adaptive inner kinds would overspend eps under sample split (header).
  if (!budget_split && dims > 1 &&
      (inner == AlgorithmKind::kBaSw || inner == AlgorithmKind::kTopl)) {
    return Status::InvalidArgument(
        "sample split at d >= 2 needs a fixed-rate inner algorithm; " +
        std::string(AlgorithmKindName(inner)) +
        " paces its budget over its own uploads and would overspend eps");
  }
  PerturberOptions per_dim = options;
  if (budget_split) per_dim.epsilon /= static_cast<double>(dims);
  std::vector<std::unique_ptr<StreamPerturber>> perturbers;
  perturbers.reserve(dims);
  for (size_t k = 0; k < dims; ++k) {
    CAPP_ASSIGN_OR_RETURN(auto p, CreatePerturber(inner, per_dim));
    if (!p->supports_online()) {
      return Status::InvalidArgument(
          "multi-dimensional strategies need an online inner algorithm; " +
          std::string(AlgorithmKindName(inner)) +
          " perturbs whole subsequences");
    }
    perturbers.push_back(std::move(p));
  }
  std::string name = std::string(AlgorithmKindName(inner)) +
                     (budget_split ? "-bs" : "-ss");
  std::optional<PpLanes> lanes;
  if (dims > 1) lanes = PpLanes::Create(perturbers);
  return MultidimPerturber(std::move(perturbers), std::move(lanes),
                           !budget_split && dims > 1, std::move(name));
}

void MultidimPerturber::AttachAccountant(WEventAccountant* accountant) {
  // Sample split's inner perturbers count only their own uploads, so the
  // strategy writes the shared ledger with global slot indices instead.
  accountant_ = sample_split_ ? accountant : nullptr;
  for (auto& p : inner_) {
    p->AttachAccountant(sample_split_ ? nullptr : accountant);
  }
}

void MultidimPerturber::ResetForUser(uint64_t seed) {
  for (auto& p : inner_) p->Reset();
  std::fill(last_report_.begin(), last_report_.end(), 0.5);
  slot_ = 0;
  rng_ = Rng(seed);
}

void MultidimPerturber::PerturbStream(std::span<const double> truth,
                                      size_t slots, std::vector<double>& out,
                                      Rng& rng) {
  const size_t dims = inner_.size();
  CAPP_CHECK(truth.size() == dims * slots);
  out.resize(dims * slots);
  if (dims == 1) {
    // Bit-identical to the per-slot loop below (ProcessChunk's contract).
    inner_[0]->ProcessChunk(truth, out, rng);
    return;
  }
  if (lanes_ && !sample_split_) {
    lanes_->PerturbSlots(truth, slots, out, rng);
    return;
  }
  if (lanes_) {
    lanes_->PerturbRoundRobin(truth, slots, slot_, last_report_, out, rng);
    // One run, the ledger state of the per-slot loop's Record calls.
    if (accountant_ != nullptr) {
      const PerturberOptions& options = inner_.front()->options();
      accountant_->RecordRun(slot_, slots, options.epsilon / options.window);
    }
    slot_ += slots;
    return;
  }
  // The per-slot loop: SW-direct, BA-SW and ToPL.
  for (size_t t = 0; t < slots; ++t) {
    if (!sample_split_) {
      for (size_t k = 0; k < dims; ++k) {
        out[k * slots + t] =
            inner_[k]->ProcessValue(truth[k * slots + t], rng);
      }
      continue;
    }
    // Only the active dimension perturbs (and spends) this slot.
    const size_t active = slot_ % dims;
    StreamPerturber& p = *inner_[active];
    last_report_[active] = p.ProcessValue(truth[active * slots + t], rng);
    if (accountant_ != nullptr) {
      accountant_->Record(slot_, p.options().epsilon / p.options().window);
    }
    for (size_t k = 0; k < dims; ++k) out[k * slots + t] = last_report_[k];
    ++slot_;
  }
}

}  // namespace capp
