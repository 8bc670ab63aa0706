// Quickstart: perturb a short stream with CAPP under w-event LDP, publish
// it through the collector, and audit the privacy ledger.
//
//   $ ./quickstart
//
// Walks through the whole pipeline of the paper's Fig. 1: user-side
// perturbation (step 2), collector-side reconstruction (step 3), and the
// w-event budget audit that certifies the privacy guarantee.
#include <cstdio>
#include <vector>

#include "algorithms/pp.h"
#include "analysis/metrics.h"
#include "core/math_utils.h"
#include "core/rng.h"
#include "stream/accountant.h"
#include "stream/collector.h"

int main() {
  // A toy stream of 20 sensor readings, already normalized to [0, 1].
  const std::vector<double> stream = {
      0.42, 0.45, 0.44, 0.48, 0.52, 0.55, 0.53, 0.50, 0.47, 0.44,
      0.41, 0.40, 0.43, 0.47, 0.52, 0.58, 0.61, 0.60, 0.55, 0.50};

  // w-event privacy: any 10 consecutive reports jointly satisfy eps = 1.
  capp::PerturberOptions options;
  options.epsilon = 1.0;
  options.window = 10;

  auto perturber = capp::PpPerturber::Create(capp::PpKind::kCapp, options);
  if (!perturber.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 perturber.status().ToString().c_str());
    return 1;
  }
  std::printf("CAPP clip bounds: [%.3f, %.3f] (delta = %.3f)\n",
              (*perturber)->bounds().l, (*perturber)->bounds().u,
              (*perturber)->bounds().delta);

  // Attach the budget ledger -- every slot's spend is recorded and audited.
  capp::WEventAccountant ledger;
  (*perturber)->AttachAccountant(&ledger);

  // User side: perturb each value as it arrives.
  capp::Rng rng(7);
  std::vector<double> reports;
  for (double x : stream) {
    reports.push_back((*perturber)->ProcessValue(x, rng));
  }

  // Collector side: smooth and publish.
  auto collector = capp::StreamCollector::Create();
  if (!collector.ok()) return 1;
  const std::vector<double> published = collector->Publish(reports);

  std::printf("\n  t   truth   report   published\n");
  for (size_t t = 0; t < stream.size(); ++t) {
    std::printf("%3zu   %.3f   %+.3f    %+.3f\n", t, stream[t], reports[t],
                published[t]);
  }

  std::printf("\ntrue mean      = %.4f\n", capp::Mean(stream));
  std::printf("estimated mean = %.4f\n", collector->EstimateMean(reports));
  std::printf("pointwise MSE  = %.4f\n", capp::Mse(published, stream));
  std::printf("cosine dist    = %.4f\n",
              capp::CosineDistance(published, stream));

  const capp::Status audit = ledger.VerifyBudget(options.window,
                                                 options.epsilon);
  std::printf("privacy audit  = %s (max window spend %.4f <= eps %.2f)\n",
              audit.ok() ? "OK" : audit.ToString().c_str(),
              ledger.MaxWindowSpend(options.window), options.epsilon);
  return audit.ok() ? 0 : 1;
}
