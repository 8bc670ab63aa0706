// Sample-Split (SS) strategy for d-dimensional streams (Section IV-C).
//
// At each slot, exactly one dimension (round-robin) uploads with per-slot
// budget eps / w; the other dimensions republish their last report. Any
// window of w slots therefore contains ~w/d uploads per dimension and a
// total spend of exactly eps across dimensions.
#ifndef CAPP_MULTIDIM_SAMPLE_SPLIT_H_
#define CAPP_MULTIDIM_SAMPLE_SPLIT_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "multidim/budget_split.h"

namespace capp {

/// Sample-Split multi-dimensional perturbation.
class SampleSplitPerturber final : public MultiDimPerturber {
 public:
  /// `options.epsilon` is the total window budget; the uploading dimension
  /// spends eps / w at its slot.
  static Result<std::unique_ptr<SampleSplitPerturber>> Create(
      size_t dimensions, PerturberOptions options,
      AlgorithmKind inner = AlgorithmKind::kSwDirect);

  std::vector<double> ProcessVector(const std::vector<double>& x,
                                    Rng& rng) override;
  void Reset() override;
  void AttachAccountant(WEventAccountant* accountant) override;

 private:
  SampleSplitPerturber(std::vector<std::unique_ptr<StreamPerturber>> inner,
                       std::string name)
      : MultiDimPerturber(std::move(inner), std::move(name)),
        last_report_(inner_.size(), 0.5) {}

  std::vector<double> last_report_;
  size_t slot_ = 0;
  WEventAccountant* accountant_ = nullptr;
};

}  // namespace capp

#endif  // CAPP_MULTIDIM_SAMPLE_SPLIT_H_
