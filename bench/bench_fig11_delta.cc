// Figure 11 reproduction: sensitivity of CAPP to the clipping widening
// delta (l = -delta, u = 1 + delta) on Constant, Pulse, Sinusoidal, and
// C6H6 with w = q = 10. For each total epsilon the MSE over the delta sweep
// is reported together with the recommended delta from Eq. 11.
//
// Note: the paper sweeps delta in [-1, 0.5], but u - l = 1 + 2*delta
// degenerates at delta <= -0.5; the sweep below covers [-0.45, 0.5]
// (DESIGN.md, faithfulness note 6).
#include <iostream>

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

int Run(int argc, char** argv) {
  const BenchFlags flags = ParseFlags(argc, argv);
  constexpr int kW = 10;
  const std::vector<double> deltas = {-0.45, -0.35, -0.25, -0.15, -0.05,
                                      0.0,   0.05,  0.15,  0.25,  0.35,
                                      0.5};
  const std::vector<double> eps_grid =
      flags.quick ? std::vector<double>{0.5, 2.0, 5.0}
                  : std::vector<double>{0.5, 1.0, 2.0, 3.0, 4.0, 5.0};

  std::cout << "=== Figure 11: MSE vs delta for CAPP (w=q=10) ===\n\n";
  for (const char* name : {"constant", "pulse", "sinusoidal", "c6h6"}) {
    const Dataset& dataset = CachedDataset(name);
    std::vector<std::string> headers = {"delta"};
    for (double eps : eps_grid) {
      headers.push_back("eps=" + FormatFixed(eps, 1));
    }
    TablePrinter table(headers);
    for (double delta : deltas) {
      std::vector<std::string> row = {FormatFixed(delta, 2)};
      for (double eps : eps_grid) {
        const uint64_t seed = CellSeed(flags.seed, dataset.name, kW, eps,
                                       static_cast<int>(delta * 100));
        const EvalOptions options = MakeEvalOptions(flags, kW, seed);
        auto report = EvaluateStreamUtility(
            dataset.stream(), CappFactory(eps, kW, delta), options);
        CAPP_CHECK(report.ok());
        row.push_back(FormatSci(report->mean_mse));
      }
      table.AddRow(std::move(row));
    }
    // Final rows: the recommended delta per epsilon from Eq. 11 (the
    // paper's closed form) and from the library's proxy selector.
    std::vector<std::string> recommended = {"eq11"};
    std::vector<std::string> proxy_row = {"proxy"};
    for (double eps : eps_grid) {
      auto bounds = SelectClipBounds(eps / kW);
      auto proxy = SelectClipBoundsProxy(eps / kW);
      CAPP_CHECK(bounds.ok() && proxy.ok());
      recommended.push_back(FormatFixed(bounds->delta, 3));
      proxy_row.push_back(FormatFixed(proxy->delta, 3));
    }
    table.AddRow(std::move(recommended));
    table.AddRow(std::move(proxy_row));
    std::cout << "--- dataset=" << dataset.name
              << "  (rows: delta; final rows: recommended deltas) ---\n";
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
