// Perturbation Parameterization (PP): IPP (Section III-C), APP
// (Algorithm 1) and CAPP (Algorithm 2) -- the paper's flagship family --
// as one slot recurrence.
//
// Each slot, the user corrects the true value by a deviation memory D,
// clips the corrected input to an interval [l, u], normalizes it onto the
// mechanism's domain, perturbs, denormalizes, and folds this slot's
// deviation x_t - x'_t back into D:
//
//   kind   memory D                      interval [l, u]
//   IPP    the last slot's deviation     [0, 1]
//   APP    all deviations, accumulated   [0, 1]
//   CAPP   all deviations, accumulated   [-delta, 1 + delta]
//
// so IPP and APP are Algorithm 2 at delta = 0 with one-slot or accumulated
// memory. The input is a known constant to the user given previous
// outputs and clipping/normalization are deterministic, so every slot
// keeps the full per-slot ratio bound p/q = e^{eps/w} (Theorems 3 and 4).
// CAPP's interval trades sensitivity error against discarding error (see
// clip_bounds.h).
//
// The default mechanism is Square Wave (the paper's setting), for which
// the closed-form Eq.-11 bound selection applies. Section IV-C's extension
// to other mechanisms (Laplace/SR/PM/HM) is also implemented; CAPP over
// them requires an explicit clip widening delta, since the paper omits
// their mechanism-specific interval derivations.
#ifndef CAPP_ALGORITHMS_PP_H_
#define CAPP_ALGORITHMS_PP_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "algorithms/clip_bounds.h"
#include "algorithms/perturber.h"
#include "algorithms/sw_direct.h"
#include "mechanisms/mechanism.h"

namespace capp {

/// Which perturbation-parameterization algorithm runs. kDirect (no
/// parameterization, MechanismDirect) completes the family for PP-S.
enum class PpKind {
  kDirect,  ///< Mechanism-direct: no deviation memory.
  kIpp,     ///< Last-slot deviation, inputs clipped to [0, 1].
  kApp,     ///< Accumulated deviation, inputs clipped to [0, 1].
  kCapp,    ///< Accumulated deviation, inputs clipped to [l, u].
};

/// The IPP, APP and CAPP algorithms.
class PpPerturber final : public StreamPerturber {
 public:
  /// Creates `kind` (kIpp, kApp or kCapp) over `mechanism` at per-slot
  /// budget eps/w. `delta` sets CAPP's clip widening (l = -delta,
  /// u = 1 + delta; must be > -0.5); when unset, the Eq.-11 selector of
  /// Section IV-B chooses it, which only Square Wave supports. IPP and APP
  /// take no delta.
  static Result<std::unique_ptr<PpPerturber>> Create(
      PpKind kind, PerturberOptions options,
      MechanismKind mechanism = MechanismKind::kSquareWave,
      std::optional<double> delta = std::nullopt);

  std::string_view name() const override { return name_; }
  int publication_smoothing_window() const override { return 3; }

  /// The clip interval: [0, 1] for IPP and APP.
  const ClipBounds& bounds() const { return bounds_; }
  /// The deviation memory D: the most recent slot's x_t - x'_t (IPP) or
  /// the sum over all slots so far (APP, CAPP).
  double deviation() const { return deviation_; }

 protected:
  double DoProcessValue(double x, Rng& rng) override;
  /// SW fast path: block-RNG + inline sampling (see square_wave.h);
  /// non-SW mechanisms fall back to the scalar loop. Bit-identical.
  void DoProcessChunk(std::span<const double> in, std::span<double> out,
                      Rng& rng) override;
  void DoReset() override { deviation_ = 0.0; }

 private:
  PpPerturber(PpKind kind, PerturberOptions options,
              std::unique_ptr<Mechanism> mechanism, ClipBounds bounds,
              std::string name)
      : StreamPerturber(options), kind_(kind),
        mechanism_(std::move(mechanism)), map_(*mechanism_), bounds_(bounds),
        name_(std::move(name)) {}

  PpKind kind_;
  std::unique_ptr<Mechanism> mechanism_;
  DomainMap map_;
  ClipBounds bounds_;
  std::string name_;
  double deviation_ = 0.0;
};

}  // namespace capp

#endif  // CAPP_ALGORITHMS_PP_H_
