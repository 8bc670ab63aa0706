#include "algorithms/pp.h"

#include <algorithm>

#include "core/math_utils.h"

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

// One block holds about this many (u1, u2) pairs; 128 reports -> 2 KiB.
constexpr size_t kLaneBlockReports = 128;

// PpLanes::PerturbSlots's kernel. Each block of max(1, 128 / d) slots
// draws its uniforms at once, slot-major then lane, exactly the per-slot
// loop's draws; the lanes are independent, so each then walks the block
// on its own, reading its pairs at stride 2d with its memory in a
// register, as SwChunk does. (Stepping the lanes slot by slot instead,
// to overlap their memory chains, measured slower at d = 4: the SW
// selects compile to branches, and their mispredictions, not the chain,
// bound the loop.)
template <bool kAccumulate>
void LaneSlots(std::span<const double> truth, size_t slots,
               std::span<double> out, Rng& rng, const SwBatchPlan& plan,
               ClipBounds bounds, std::span<double> deviation,
               std::span<double> uniforms) {
  const SwParams params = plan.params;
  const double near_mass = plan.near_mass;
  const size_t dims = deviation.size();
  const size_t block_slots = uniforms.size() / (2 * dims);
  for (size_t begin = 0; begin < slots; begin += block_slots) {
    const size_t count = std::min(slots - begin, block_slots);
    rng.FillUniform(uniforms.first(2 * dims * count));
    for (size_t k = 0; k < dims; ++k) {
      const double* in = truth.data() + k * slots + begin;
      double* lane_out = out.data() + k * slots + begin;
      const double* u = uniforms.data() + 2 * k;
      double memory = deviation[k];
      for (size_t i = 0; i < count; ++i, u += 2 * dims) {
        const double u1 = u[0];
        const double u2 = u[1];
        lane_out[i] = Step<kAccumulate>(
            SanitizeUnitValue(in[i]), memory, bounds, [&](double v) {
              return SwSampleFromUniforms(params, near_mass, v, u1, u2);
            });
      }
      deviation[k] = memory;
    }
  }
}

// PpLanes::PerturbRoundRobin's kernel: one (u1, u2) pair per slot, for
// the slot's one active lane.
template <bool kAccumulate>
void LaneRoundRobin(std::span<const double> truth, size_t slots,
                    size_t first_slot, std::span<double> last_report,
                    std::span<double> out, Rng& rng, const SwBatchPlan& plan,
                    ClipBounds bounds, std::span<double> deviation,
                    std::span<double> uniforms) {
  const SwParams params = plan.params;
  const double near_mass = plan.near_mass;
  const size_t dims = deviation.size();
  const size_t block_slots = uniforms.size() / 2;
  size_t active = first_slot % dims;
  for (size_t begin = 0; begin < slots; begin += block_slots) {
    const size_t count = std::min(slots - begin, block_slots);
    rng.FillUniform(uniforms.first(2 * count));
    for (size_t i = 0; i < count; ++i) {
      const size_t t = begin + i;
      const double u1 = uniforms[2 * i];
      const double u2 = uniforms[2 * i + 1];
      last_report[active] = Step<kAccumulate>(
          SanitizeUnitValue(truth[active * slots + t]), deviation[active],
          bounds, [&](double v) {
            return SwSampleFromUniforms(params, near_mass, v, u1, u2);
          });
      for (size_t k = 0; k < dims; ++k) out[k * slots + t] = last_report[k];
      if (++active == dims) active = 0;
    }
  }
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
  if (!sw_plan_) {
    StreamPerturber::DoProcessChunk(in, out, rng);
    return;
  }
  RecordSpendRun(in.size(), mechanism_->epsilon());
  if (kind_ == PpKind::kIpp) {
    SwChunk<false>(in, out, rng, *sw_plan_, bounds_, deviation_);
  } else {
    SwChunk<true>(in, out, rng, *sw_plan_, bounds_, deviation_);
  }
  AdvanceSlots(in.size());
}

std::optional<PpLanes> PpLanes::Create(
    std::span<const std::unique_ptr<StreamPerturber>> perturbers) {
  std::vector<PpPerturber*> lanes;
  lanes.reserve(perturbers.size());
  for (const auto& p : perturbers) {
    auto* pp = dynamic_cast<PpPerturber*>(p.get());
    if (pp == nullptr || !pp->sw_plan_) return std::nullopt;
    const PpPerturber& first = lanes.empty() ? *pp : *lanes.front();
    if (pp->kind_ != first.kind_ || pp->bounds_.l != first.bounds_.l ||
        pp->bounds_.u != first.bounds_.u ||
        pp->mechanism_->epsilon() != first.mechanism_->epsilon()) {
      return std::nullopt;
    }
    lanes.push_back(pp);
  }
  if (lanes.empty()) return std::nullopt;
  return PpLanes(std::move(lanes));
}

PpLanes::PpLanes(std::vector<PpPerturber*> lanes)
    : lanes_(std::move(lanes)), deviation_(lanes_.size()),
      uniforms_(2 * std::max(kLaneBlockReports, lanes_.size())) {}

void PpLanes::LoadDeviations() {
  for (size_t k = 0; k < lanes_.size(); ++k) {
    deviation_[k] = lanes_[k]->deviation_;
  }
}

void PpLanes::SettleLane(size_t k, size_t uploads) {
  PpPerturber& lane = *lanes_[k];
  lane.deviation_ = deviation_[k];
  lane.RecordSpendRun(uploads, lane.mechanism_->epsilon());
  lane.AdvanceSlots(uploads);
}

void PpLanes::PerturbSlots(std::span<const double> truth, size_t slots,
                           std::span<double> out, Rng& rng) {
  const PpPerturber& first = *lanes_.front();
  LoadDeviations();
  if (first.kind_ == PpKind::kIpp) {
    LaneSlots<false>(truth, slots, out, rng, *first.sw_plan_, first.bounds_,
                     deviation_, uniforms_);
  } else {
    LaneSlots<true>(truth, slots, out, rng, *first.sw_plan_, first.bounds_,
                    deviation_, uniforms_);
  }
  // Lane order, so each slot's ledger sum adds in dimension order.
  for (size_t k = 0; k < lanes_.size(); ++k) SettleLane(k, slots);
}

void PpLanes::PerturbRoundRobin(std::span<const double> truth, size_t slots,
                                size_t first_slot,
                                std::span<double> last_report,
                                std::span<double> out, Rng& rng) {
  const PpPerturber& first = *lanes_.front();
  LoadDeviations();
  if (first.kind_ == PpKind::kIpp) {
    LaneRoundRobin<false>(truth, slots, first_slot, last_report, out, rng,
                          *first.sw_plan_, first.bounds_, deviation_,
                          uniforms_);
  } else {
    LaneRoundRobin<true>(truth, slots, first_slot, last_report, out, rng,
                         *first.sw_plan_, first.bounds_, deviation_,
                         uniforms_);
  }
  // Lane k uploads at the slots t with (first_slot + t) mod d == k.
  const size_t dims = lanes_.size();
  for (size_t k = 0; k < dims; ++k) {
    const size_t offset = (k + dims - first_slot % dims) % dims;
    SettleLane(k, offset < slots ? (slots - 1 - offset) / dims + 1 : 0);
  }
}

}  // namespace capp
