// Trajectory publication: a taxi streams (latitude, longitude) pairs -- a
// 2-dimensional stream. Compares the paper's Budget-Split and Sample-Split
// strategies (Section IV-C) wrapping APP, with a shared privacy ledger
// verifying the combined 2-dimensional spend.
//
//   $ ./taxi_trajectory [epsilon] [window]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "analysis/metrics.h"
#include "core/math_utils.h"
#include "core/rng.h"
#include "data/generators.h"
#include "multidim/multidim_perturber.h"
#include "stream/accountant.h"
#include "stream/smoothing.h"

namespace {

struct Trajectory {
  std::vector<double> lat;
  std::vector<double> lon;
};

Trajectory SimulateTrajectory(size_t n, uint64_t seed) {
  capp::Rng rng(seed);
  capp::Rng lat_rng = rng.Fork();
  capp::Rng lon_rng = rng.Fork();
  Trajectory out;
  out.lat = capp::OrnsteinUhlenbeckSeries(n, 0.03, 0.5, 0.015, 0.45,
                                          lat_rng);
  out.lon = capp::OrnsteinUhlenbeckSeries(n, 0.03, 0.55, 0.015, 0.6,
                                          lon_rng);
  for (double& v : out.lat) v = capp::Clamp(v, 0.0, 1.0);
  for (double& v : out.lon) v = capp::Clamp(v, 0.0, 1.0);
  return out;
}

void RunStrategy(capp::MultidimPerturber& perturber, const Trajectory& truth,
                 double epsilon, int window) {
  capp::WEventAccountant ledger;
  perturber.AttachAccountant(&ledger);
  perturber.ResetForUser(4711);
  const size_t n = truth.lat.size();
  std::vector<double> stream = truth.lat;  // dim-major: lat, then lon
  stream.insert(stream.end(), truth.lon.begin(), truth.lon.end());
  std::vector<double> reports;
  perturber.PerturbStream(stream, n, reports);
  const std::vector<double> out_lat(reports.begin(), reports.begin() + n);
  const std::vector<double> out_lon(reports.begin() + n, reports.end());
  const std::vector<double> pub_lat = capp::Sma3(out_lat);
  const std::vector<double> pub_lon = capp::Sma3(out_lon);
  const double mse = (capp::Mse(pub_lat, truth.lat) +
                      capp::Mse(pub_lon, truth.lon)) / 2.0;
  const double cosine = (capp::CosineDistance(pub_lat, truth.lat) +
                         capp::CosineDistance(pub_lon, truth.lon)) / 2.0;
  const capp::Status audit = ledger.VerifyBudget(window, epsilon);
  std::printf("%-10s  %12.5f  %12.5f  %10s (window spend %.4f)\n",
              std::string(perturber.name()).c_str(), mse, cosine,
              audit.ok() ? "OK" : "VIOLATED",
              ledger.MaxWindowSpend(window));
}

}  // namespace

int main(int argc, char** argv) {
  const double epsilon = argc > 1 ? std::atof(argv[1]) : 2.0;
  const int window = argc > 2 ? std::atoi(argv[2]) : 20;
  const Trajectory truth = SimulateTrajectory(600, 17);

  std::printf("Taxi trajectory (lat, lon), %d-event LDP, eps=%.2f, %zu "
              "points\n\n",
              window, epsilon, truth.lat.size());
  std::printf("%-10s  %12s  %12s  %10s\n", "strategy", "MSE",
              "cosine-dist", "audit");

  for (capp::AlgorithmKind inner :
       {capp::AlgorithmKind::kSwDirect, capp::AlgorithmKind::kApp}) {
    for (capp::MultidimStrategy strategy :
         {capp::MultidimStrategy::kBudgetSplit,
          capp::MultidimStrategy::kSampleSplit}) {
      auto perturber = capp::MultidimPerturber::Create(
          2, strategy, {epsilon, window}, inner);
      if (!perturber.ok()) return 1;
      RunStrategy(*perturber, truth, epsilon, window);
    }
  }
  std::printf("\n(budget-split perturbs both coordinates each step at "
              "eps/(2w); sample-split alternates coordinates at eps/w)\n");
  return 0;
}
