#include "algorithms/sampling.h"

#include <algorithm>

#include "algorithms/factory.h"
#include "core/check.h"
#include "core/math_utils.h"

namespace capp {

std::string_view PpKindName(PpKind kind) {
  switch (kind) {
    case PpKind::kDirect:
      return "sampling";
    case PpKind::kIpp:
      return "ipp-s";
    case PpKind::kApp:
      return "app-s";
    case PpKind::kCapp:
      return "capp-s";
  }
  return "unknown";
}

namespace {

// The online algorithm PP-S runs over the segment means.
AlgorithmKind InnerAlgorithm(PpKind kind) {
  switch (kind) {
    case PpKind::kDirect:
      return AlgorithmKind::kSwDirect;
    case PpKind::kIpp:
      return AlgorithmKind::kIpp;
    case PpKind::kApp:
      return AlgorithmKind::kApp;
    case PpKind::kCapp:
      return AlgorithmKind::kCapp;
  }
  return AlgorithmKind::kSwDirect;
}

}  // namespace

Result<std::unique_ptr<PpSampler>> PpSampler::Create(SamplingOptions options,
                                                     PpKind inner) {
  CAPP_RETURN_IF_ERROR(ValidatePerturberOptions(options.base));
  if (options.ns.has_value() && *options.ns < 1) {
    return Status::InvalidArgument("ns must be >= 1 when given");
  }
  return std::unique_ptr<PpSampler>(new PpSampler(
      options, inner, std::string(PpKindName(inner))));
}

double PpSampler::DoProcessValue(double /*x*/, Rng& /*rng*/) {
  CAPP_CHECK(false && "PP-S operates on whole subsequences");
  return 0.0;
}

std::vector<double> PpSampler::DoPerturbSequence(std::span<const double> xs,
                                                 Rng& rng) {
  const int q = static_cast<int>(xs.size());
  if (q == 0) return {};
  const int w = options().window;
  const double epsilon = options().epsilon;

  // Segmentation: explicit ns or the Section V selection criterion.
  NsSelection sel;
  if (opts_.ns.has_value()) {
    sel.ns = std::min(*opts_.ns, q);
    sel.segment_length = q / sel.ns;
    sel.uploads_per_window =
        std::min(sel.ns, (w - 1) / sel.segment_length + 1);
    sel.epsilon_per_upload = epsilon / sel.uploads_per_window;
  } else {
    auto selected = SelectSampleCount(epsilon, w, q);
    CAPP_CHECK(selected.ok());
    sel = *selected;
  }
  if (opts_.full_budget_per_upload) {
    sel.epsilon_per_upload = epsilon;
  }
  last_selection_ = sel;

  // Inner PP algorithm over segment means: per-upload budget, window 1
  // (each upload independently gets eps_u; window accounting for the
  // full-length stream is handled below).
  PerturberOptions inner_options;
  inner_options.epsilon = sel.epsilon_per_upload;
  inner_options.window = 1;
  auto created = CreatePerturber(InnerAlgorithm(inner_), inner_options);
  CAPP_CHECK(created.ok());
  const std::unique_ptr<StreamPerturber> pp = std::move(created).value();

  // Perturb each segment's mean, replicate across the segment.
  std::vector<double> out;
  out.reserve(xs.size());
  const size_t base_slot = slots_processed();
  int start = 0;
  for (int r = 0; r < sel.ns; ++r) {
    // The last segment absorbs the remainder (paper footnote 1).
    const int end =
        (r == sel.ns - 1) ? q : start + sel.segment_length;
    KahanSum segment_sum;
    for (int t = start; t < end; ++t) {
      segment_sum.Add(SanitizeUnitValue(xs[t]));
    }
    const double segment_mean =
        segment_sum.Total() / static_cast<double>(end - start);
    const double report = pp->ProcessValue(segment_mean, rng);
    // Upload happens at the segment's first slot.
    RecordSpendAt(base_slot + static_cast<size_t>(start),
                  sel.epsilon_per_upload);
    for (int t = start; t < end; ++t) out.push_back(report);
    start = end;
  }
  AdvanceSlots(xs.size());
  return out;
}

}  // namespace capp
