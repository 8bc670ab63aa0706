#include "algorithms/pp.h"

#include "core/math_utils.h"
#include "mechanisms/square_wave.h"

namespace capp {

Result<std::unique_ptr<PpPerturber>> PpPerturber::Create(
    PpKind kind, PerturberOptions options, MechanismKind mechanism,
    std::optional<double> delta) {
  CAPP_RETURN_IF_ERROR(ValidatePerturberOptions(options));
  const double eps_slot = options.epsilon / options.window;
  ClipBounds bounds;  // [0, 1]
  const char* suffix = nullptr;
  switch (kind) {
    case PpKind::kDirect:
      return Status::InvalidArgument(
          "direct perturbation has no deviation memory; use "
          "MechanismDirect");
    case PpKind::kIpp:
    case PpKind::kApp:
      if (delta.has_value()) {
        return Status::InvalidArgument(
            "only CAPP widens its clip interval by delta");
      }
      suffix = kind == PpKind::kIpp ? "ipp" : "app";
      break;
    case PpKind::kCapp:
      if (delta.has_value()) {
        CAPP_ASSIGN_OR_RETURN(bounds, ClipBoundsFromDelta(*delta));
      } else if (mechanism == MechanismKind::kSquareWave) {
        CAPP_ASSIGN_OR_RETURN(bounds, SelectClipBounds(eps_slot));
      } else {
        return Status::InvalidArgument(
            "CAPP over non-SW mechanisms needs an explicit delta (the "
            "Eq.-11 selector is Square-Wave-specific)");
      }
      suffix = "capp";
      break;
  }
  CAPP_ASSIGN_OR_RETURN(std::unique_ptr<Mechanism> mech,
                        CreateMechanism(mechanism, eps_slot));
  std::string name = mechanism == MechanismKind::kSquareWave
                         ? std::string(suffix)
                         : std::string(MechanismKindName(mechanism)) + "-" +
                               suffix;
  return std::unique_ptr<PpPerturber>(new PpPerturber(
      kind, options, std::move(mech), bounds, std::move(name)));
}

namespace {

// Algorithm 2's slot update, the one recurrence behind IPP, APP and CAPP.
// `perturb` maps a normalized input in [0, 1] to a report on the data
// scale. kAccumulate picks the deviation memory: APP and CAPP sum every
// slot's deviation, IPP keeps only the last one. IPP and APP run it on
// [l, u] = [0, 1], where (input - 0) / 1 and y * 1 + 0 are exact.
template <bool kAccumulate, typename Perturb>
double Step(double x, double& deviation, const ClipBounds& bounds,
            Perturb&& perturb) {
  // Lines 5-9: clip to [l, u], normalize, perturb, denormalize.
  const double width = bounds.u - bounds.l;
  const double input = Clamp(x + deviation, bounds.l, bounds.u);
  const double report =
      perturb((input - bounds.l) / width) * width + bounds.l;
  // Lines 10-11: d_t = x_t - x'_t folds into the memory.
  if constexpr (kAccumulate) {
    deviation += x - report;
  } else {
    deviation = x - report;
  }
  return report;
}

// The SW chunk loop: block uniforms + inline sampling (square_wave.h).
// SW's input domain is [0, 1], so DomainMap is exactly the identity and
// is skipped (x * 1.0, y - 0.0 and / 1.0 are exact; the +-0.0 corner
// yields identical sampler output). Locals keep the memory and interval
// in registers, where out[] stores could alias the members.
template <bool kAccumulate>
void SwChunk(std::span<const double> in, std::span<double> out, Rng& rng,
             const SwBatchPlan& plan, ClipBounds bounds, double& deviation) {
  const SwParams params = plan.params;
  const double near_mass = plan.near_mass;
  double memory = deviation;
  internal::ForEachSwSlot(
      in, out, rng, [&](double raw, double u1, double u2) {
        return Step<kAccumulate>(
            SanitizeUnitValue(raw), memory, bounds, [&](double v) {
              return SwSampleFromUniforms(params, near_mass, v, u1, u2);
            });
      });
  deviation = memory;
}

}  // namespace

double PpPerturber::DoProcessValue(double x, Rng& rng) {
  RecordSpend(mechanism_->epsilon());
  const auto perturb = [&](double v) {
    return map_.FromMechanism(mechanism_->Perturb(map_.ToMechanism(v), rng));
  };
  return kind_ == PpKind::kIpp
             ? Step<false>(x, deviation_, bounds_, perturb)
             : Step<true>(x, deviation_, bounds_, perturb);
}

void PpPerturber::DoProcessChunk(std::span<const double> in,
                                 std::span<double> out, Rng& rng) {
  const std::optional<SwBatchPlan> plan = PlanSwBatch(mechanism_.get());
  if (!plan) {
    StreamPerturber::DoProcessChunk(in, out, rng);
    return;
  }
  RecordSpendRun(in.size(), mechanism_->epsilon());
  if (kind_ == PpKind::kIpp) {
    SwChunk<false>(in, out, rng, *plan, bounds_, deviation_);
  } else {
    SwChunk<true>(in, out, rng, *plan, bounds_, deviation_);
  }
  AdvanceSlots(in.size());
}

}  // namespace capp
