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
#include <vector>

#include "algorithms/clip_bounds.h"
#include "algorithms/perturber.h"
#include "algorithms/sw_direct.h"
#include "mechanisms/mechanism.h"
#include "mechanisms/square_wave.h"

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
  friend class PpLanes;

  PpPerturber(PpKind kind, PerturberOptions options,
              std::unique_ptr<Mechanism> mechanism, ClipBounds bounds,
              std::string name)
      : StreamPerturber(options), kind_(kind),
        mechanism_(std::move(mechanism)), map_(*mechanism_), bounds_(bounds),
        sw_plan_(PlanSwBatch(mechanism_.get())), name_(std::move(name)) {}

  PpKind kind_;
  std::unique_ptr<Mechanism> mechanism_;
  DomainMap map_;
  ClipBounds bounds_;
  /// The SW block sampler's plan, resolved once; nullopt for non-SW
  /// mechanisms, which take the scalar loop.
  std::optional<SwBatchPlan> sw_plan_;
  std::string name_;
  double deviation_ = 0.0;
};

/// d PpPerturbers of one configuration run as lanes over one block of
/// uniforms: the block path of MultidimPerturber at d >= 2. Each block of
/// slots draws its uniforms with one Rng::FillUniform call in the order
/// the per-slot loop draws them -- slot-major, then lane, then (u1, u2)
/// -- and samples inline (SwSampleFromUniforms), with no virtual or RNG
/// call per report. Every lane keeps its own memory, slot counter and
/// ledger, and both calls are bit-identical to their per-slot loops of
/// ProcessValue calls (reports, RNG state, lane state and ledgers).
class PpLanes {
 public:
  /// Lanes over `perturbers` (d >= 1) when every one is a PpPerturber
  /// over a batchable Square Wave with the same kind, interval and
  /// budget; nullopt otherwise.
  static std::optional<PpLanes> Create(
      std::span<const std::unique_ptr<StreamPerturber>> perturbers);

  /// Budget split: for t in [0, slots), for each lane k in order,
  /// out[k * slots + t] = lane k's ProcessValue(truth[k * slots + t]).
  /// `truth` and `out` are dim-major (d * slots doubles); each lane
  /// records one spend run and advances its counter by `slots`.
  void PerturbSlots(std::span<const double> truth, size_t slots,
                    std::span<double> out, Rng& rng);

  /// Sample split: slot t steps only lane (first_slot + t) mod d, which
  /// stores its report in last_report[lane]; every lane's out cell at
  /// slot t is its last_report. Each lane records and advances by its own
  /// uploads; the global ledger is the caller's.
  void PerturbRoundRobin(std::span<const double> truth, size_t slots,
                         size_t first_slot, std::span<double> last_report,
                         std::span<double> out, Rng& rng);

 private:
  explicit PpLanes(std::vector<PpPerturber*> lanes);

  // Copies every lane's memory into deviation_ (before a call).
  void LoadDeviations();
  // Hands lane k its memory back and books its `uploads` slots: one spend
  // run, one counter advance (after a call).
  void SettleLane(size_t k, size_t uploads);

  std::vector<PpPerturber*> lanes_;  // not owned
  std::vector<double> deviation_;    // per lane, live during a call
  std::vector<double> uniforms_;     // one block of (u1, u2) pairs
};

}  // namespace capp

#endif  // CAPP_ALGORITHMS_PP_H_
