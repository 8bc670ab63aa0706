// Figure 10 reproduction: high-dimensional time series. Multi-dimensional
// sinusoids (d in {5, 10}) are perturbed under Budget-Split (all dims every
// slot at eps/(d*w)) and Sample-Split (one dim per slot at eps/w), each
// wrapping SW-direct, APP, or CAPP. Expected shape: BS beats SS, and
// APP/CAPP improve both strategies.
#include <iostream>

#include "core/check.h"

#include "harness/experiments.h"
#include "harness/flags.h"
#include "harness/table.h"
#include "multidim/multidim_perturber.h"

namespace capp::bench {
namespace {

MultidimPerturberFactory Factory(MultidimStrategy strategy,
                                 AlgorithmKind inner, size_t d, double eps,
                                 int w) {
  return [strategy, inner, d, eps, w] {
    return MultidimPerturber::Create(d, strategy, {eps, w}, inner);
  };
}

int Run(int argc, char** argv) {
  const BenchFlags flags = ParseFlags(argc, argv);
  constexpr int kW = 10;
  constexpr int kQ = 40;
  constexpr AlgorithmKind kInner[] = {
      AlgorithmKind::kSwDirect, AlgorithmKind::kApp, AlgorithmKind::kCapp};

  std::cout << "=== Figure 10: budget-split vs sample-split on "
               "multi-dimensional sinusoids ===\n\n";
  for (size_t d : {size_t{5}, size_t{10}}) {
    const auto dims = MultiDimSinusoid(d, 2000);
    for (const char* metric : {"MSE", "cosine"}) {
      TablePrinter table({"eps", "sw-bs", "app-bs", "capp-bs", "sw-ss",
                          "app-ss", "capp-ss"});
      for (double eps : EpsilonGrid(flags)) {
        const uint64_t seed =
            CellSeed(flags.seed, "sin" + std::to_string(d), kW, eps, kQ);
        std::vector<std::string> row = {FormatFixed(eps, 1)};
        for (MultidimStrategy strategy : {MultidimStrategy::kBudgetSplit,
                                          MultidimStrategy::kSampleSplit}) {
          for (AlgorithmKind inner : kInner) {
            const EvalOptions options = MakeEvalOptions(flags, kQ, seed);
            auto report = EvaluateMultiDimUtility(
                dims, Factory(strategy, inner, d, eps, kW), options);
            CAPP_CHECK(report.ok());
            row.push_back(FormatSci(metric == std::string("MSE")
                                        ? report->mean_mse
                                        : report->cosine_distance));
          }
        }
        table.AddRow(std::move(row));
      }
      std::cout << "--- d=" << d << "  metric=" << metric << "  w=" << kW
                << "  q=" << kQ << " ---\n";
      table.Print(std::cout);
      std::cout << '\n';
      if (!flags.csv_path.empty()) {
        CAPP_CHECK(table.WriteCsv(flags.csv_path).ok());
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace capp::bench

int main(int argc, char** argv) { return capp::bench::Run(argc, argv); }
