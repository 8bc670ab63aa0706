// Perturbation Parameterization with Sampling (PP-S), Algorithm 3.
//
// The query interval of q slots is divided into n_s segments of length
// L = floor(q / n_s) (the remainder joins the last segment, footnote 1 of
// the paper). One value -- the segment *mean* -- is uploaded per segment at
// its first slot, perturbed by the wrapped PP algorithm (direct / IPP / APP
// / CAPP over segment means), and the perturbed mean is replicated across
// the segment to reconstruct a full-length published stream.
//
// Budget: uploads occur only at the ns segment-start positions inside the
// query, spaced L slots apart, so any window of w consecutive slots
// contains at most  n_w = min(ns, floor((w-1)/L) + 1)  uploads and each
// upload spends eps / n_w (the allocation Theorem 6 requires; Algorithm 3's
// printed line 2 contradicts both the theorem and Fig. 3 -- see DESIGN.md,
// faithfulness note 3).
//
// `full_budget_per_upload` reproduces the Fig. 3 picture literally: every
// upload receives the whole window budget eps. That is sound only when the
// segment length reaches w (n_w == 1); for shorter segments it overspends,
// which an attached WEventAccountant will report. The benchmark for Fig. 6
// exercises both modes (see EXPERIMENTS.md).
#ifndef CAPP_ALGORITHMS_SAMPLING_H_
#define CAPP_ALGORITHMS_SAMPLING_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "algorithms/ns_selector.h"
#include "algorithms/perturber.h"
#include "algorithms/pp.h"

namespace capp {

/// Short name of the PP-S variant over `kind` ("sampling", "ipp-s",
/// "app-s", "capp-s").
std::string_view PpKindName(PpKind kind);

/// Options specific to PP-S.
struct SamplingOptions {
  /// Shared stream options (total window budget, w).
  PerturberOptions base;
  /// Number of segments. When unset, SelectSampleCount chooses it from the
  /// query length at perturbation time.
  std::optional<int> ns;
  /// Paper-figure mode: every upload gets the full window budget epsilon
  /// (sound only when segment length >= w). See the header comment.
  bool full_budget_per_upload = false;
};

/// The PP-S algorithm. Operates on whole subsequences (supports_online() is
/// false): the segment means need the full query interval.
class PpSampler final : public StreamPerturber {
 public:
  /// `inner` runs over the segment means: kDirect is the "Sampling"
  /// baseline (SW on means, no parameterization), the others IPP-S, APP-S
  /// and CAPP-S.
  static Result<std::unique_ptr<PpSampler>> Create(SamplingOptions options,
                                                   PpKind inner);

  std::string_view name() const override { return name_; }
  bool supports_online() const override { return false; }
  int publication_smoothing_window() const override {
    // The parameterized sampling variants inherit the PP smoothing step;
    // the naive Sampling baseline publishes raw replicated means.
    return inner_ == PpKind::kDirect ? 1 : 3;
  }

  /// The segmentation used by the most recent PerturbSequence call.
  const NsSelection& last_selection() const { return last_selection_; }

 protected:
  double DoProcessValue(double /*x*/, Rng& /*rng*/) override;
  std::vector<double> DoPerturbSequence(std::span<const double> xs,
                                        Rng& rng) override;
  void DoReset() override { last_selection_ = NsSelection{}; }

 private:
  PpSampler(SamplingOptions options, PpKind inner, std::string name)
      : StreamPerturber(options.base), opts_(options), inner_(inner),
        name_(std::move(name)) {}

  SamplingOptions opts_;
  PpKind inner_;
  std::string name_;
  NsSelection last_selection_;
};

}  // namespace capp

#endif  // CAPP_ALGORITHMS_SAMPLING_H_
