// Ablation A3: CAPP clip-bound selection policies. Compares, per epsilon:
//   * eq11  -- the paper's T = e_s - e_d widening (Section IV-B),
//   * proxy -- the library's analytic report-error proxy (clip_bounds.h),
//   * best  -- the empirically best delta from a grid sweep (oracle),
// reporting each policy's delta and the measured mean-estimation MSE.
#include <iostream>
#include <limits>

#include "core/check.h"

#include "algorithms/clip_bounds.h"
#include "algorithms/pp.h"
#include "harness/experiments.h"
#include "harness/flags.h"
#include "harness/table.h"

namespace capp::bench {
namespace {

PerturberFactory CappFactory(double eps, int w, double delta) {
  return [eps, w, delta]() -> Result<std::unique_ptr<StreamPerturber>> {
    CAPP_ASSIGN_OR_RETURN(
        auto p, PpPerturber::Create(PpKind::kCapp, {eps, w},
                                    MechanismKind::kSquareWave, delta));
    return std::unique_ptr<StreamPerturber>(std::move(p));
  };
}

double MeasureMse(const Dataset& dataset, double eps, int w, double delta,
                  const BenchFlags& flags, uint64_t seed) {
  const EvalOptions options = MakeEvalOptions(flags, w, seed);
  auto report = EvaluateStreamUtility(dataset.stream(),
                                      CappFactory(eps, w, delta), options);
  CAPP_CHECK(report.ok());
  return report->mean_mse;
}

int Run(int argc, char** argv) {
  const BenchFlags flags = ParseFlags(argc, argv);
  constexpr int kW = 10;
  const std::vector<double> sweep = {-0.45, -0.35, -0.25, -0.15, -0.05,
                                     0.0,   0.05,  0.15,  0.25};

  std::cout << "=== Ablation A3: CAPP bound-selection policies (w=q=10) "
               "===\n\n";
  for (const char* name : {"c6h6", "sinusoidal"}) {
    const Dataset& dataset = CachedDataset(name);
    TablePrinter table({"eps", "eq11-delta", "eq11-mse", "proxy-delta",
                        "proxy-mse", "best-delta", "best-mse"});
    for (double eps : EpsilonGrid(flags)) {
      const uint64_t seed = CellSeed(flags.seed, dataset.name, kW, eps, 0);
      auto eq11 = SelectClipBounds(eps / kW);
      auto proxy = SelectClipBoundsProxy(eps / kW);
      CAPP_CHECK(eq11.ok() && proxy.ok());
      const double eq11_mse =
          MeasureMse(dataset, eps, kW, eq11->delta, flags, seed);
      const double proxy_mse =
          MeasureMse(dataset, eps, kW, proxy->delta, flags, seed);
      double best_delta = 0.0;
      double best_mse = std::numeric_limits<double>::infinity();
      for (double delta : sweep) {
        const double mse = MeasureMse(dataset, eps, kW, delta, flags, seed);
        if (mse < best_mse) {
          best_mse = mse;
          best_delta = delta;
        }
      }
      table.AddRow({FormatFixed(eps, 1), FormatFixed(eq11->delta, 3),
                    FormatSci(eq11_mse), FormatFixed(proxy->delta, 3),
                    FormatSci(proxy_mse), FormatFixed(best_delta, 2),
                    FormatSci(best_mse)});
    }
    std::cout << "--- dataset=" << dataset.name << " ---\n";
    table.Print(std::cout);
    std::cout << '\n';
    if (!flags.csv_path.empty()) {
      CAPP_CHECK(table.WriteCsv(flags.csv_path).ok());
    }
  }
  return 0;
}

}  // namespace
}  // namespace capp::bench

int main(int argc, char** argv) { return capp::bench::Run(argc, argv); }
