#include "multidim/budget_split.h"

#include "core/check.h"

namespace capp {

Result<std::vector<std::unique_ptr<StreamPerturber>>>
CreateDimensionPerturbers(size_t dimensions, AlgorithmKind inner,
                          PerturberOptions per_dimension) {
  if (dimensions == 0) {
    return Status::InvalidArgument("dimensions must be >= 1");
  }
  std::vector<std::unique_ptr<StreamPerturber>> inners;
  inners.reserve(dimensions);
  for (size_t d = 0; d < dimensions; ++d) {
    CAPP_ASSIGN_OR_RETURN(auto p, CreatePerturber(inner, per_dimension));
    if (!p->supports_online()) {
      return Status::InvalidArgument(
          "multi-dimensional strategies need an online inner algorithm; " +
          std::string(AlgorithmKindName(inner)) +
          " perturbs whole subsequences");
    }
    inners.push_back(std::move(p));
  }
  return inners;
}

Result<std::unique_ptr<BudgetSplitPerturber>> BudgetSplitPerturber::Create(
    size_t dimensions, PerturberOptions options, AlgorithmKind inner) {
  CAPP_RETURN_IF_ERROR(ValidatePerturberOptions(options));
  PerturberOptions per_dim = options;
  per_dim.epsilon = options.epsilon / static_cast<double>(dimensions);
  CAPP_ASSIGN_OR_RETURN(auto inners,
                        CreateDimensionPerturbers(dimensions, inner, per_dim));
  std::string name = std::string(AlgorithmKindName(inner)) + "-bs";
  return std::unique_ptr<BudgetSplitPerturber>(
      new BudgetSplitPerturber(std::move(inners), std::move(name)));
}

std::vector<double> BudgetSplitPerturber::ProcessVector(
    const std::vector<double>& x, Rng& rng) {
  CAPP_CHECK(x.size() == inner_.size());
  std::vector<double> out;
  out.reserve(x.size());
  for (size_t d = 0; d < x.size(); ++d) {
    out.push_back(inner_[d]->ProcessValue(x[d], rng));
  }
  return out;
}

}  // namespace capp
