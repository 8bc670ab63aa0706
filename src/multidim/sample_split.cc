#include "multidim/sample_split.h"

#include "core/check.h"

namespace capp {

Result<std::unique_ptr<SampleSplitPerturber>> SampleSplitPerturber::Create(
    size_t dimensions, PerturberOptions options, AlgorithmKind inner) {
  CAPP_RETURN_IF_ERROR(ValidatePerturberOptions(options));
  // Each inner perturber keeps the full window budget: it uploads only on
  // its own slots, which occur once every `dimensions` slots, so the
  // combined ledger still sums to eps per window.
  CAPP_ASSIGN_OR_RETURN(auto inners,
                        CreateDimensionPerturbers(dimensions, inner, options));
  std::string name = std::string(AlgorithmKindName(inner)) + "-ss";
  return std::unique_ptr<SampleSplitPerturber>(
      new SampleSplitPerturber(std::move(inners), std::move(name)));
}

std::vector<double> SampleSplitPerturber::ProcessVector(
    const std::vector<double>& x, Rng& rng) {
  CAPP_CHECK(x.size() == inner_.size());
  const size_t active = slot_ % inner_.size();
  std::vector<double> out = last_report_;
  // Only the active dimension perturbs (and spends) this slot; the inner
  // perturber's own accounting indexes its private upload counter, so the
  // shared ledger is written here with the true global slot index.
  const double report = inner_[active]->ProcessValue(x[active], rng);
  if (accountant_ != nullptr) {
    accountant_->Record(slot_,
                        inner_[active]->options().epsilon /
                            inner_[active]->options().window);
  }
  out[active] = report;
  last_report_[active] = report;
  ++slot_;
  return out;
}

void SampleSplitPerturber::Reset() {
  MultiDimPerturber::Reset();
  std::fill(last_report_.begin(), last_report_.end(), 0.5);
  slot_ = 0;
}

void SampleSplitPerturber::AttachAccountant(WEventAccountant* accountant) {
  // The shared ledger is written by ProcessVector with global slot indices;
  // inner perturbers stay detached (their slot counters are per-dimension).
  accountant_ = accountant;
}

}  // namespace capp
