#include "algorithms/factory.h"

#include "algorithms/ba_sw.h"
#include "algorithms/clip_bounds.h"
#include "algorithms/pp.h"
#include "algorithms/sampling.h"
#include "algorithms/sw_direct.h"
#include "algorithms/topl.h"

namespace capp {

std::string_view AlgorithmKindName(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kSwDirect:
      return "sw-direct";
    case AlgorithmKind::kIpp:
      return "ipp";
    case AlgorithmKind::kApp:
      return "app";
    case AlgorithmKind::kCapp:
      return "capp";
    case AlgorithmKind::kBaSw:
      return "ba-sw";
    case AlgorithmKind::kTopl:
      return "topl";
    case AlgorithmKind::kSampling:
      return "sampling";
    case AlgorithmKind::kAppS:
      return "app-s";
    case AlgorithmKind::kCappS:
      return "capp-s";
  }
  return "unknown";
}

Result<AlgorithmKind> ParseAlgorithmKind(std::string_view name) {
  for (AlgorithmKind kind :
       {AlgorithmKind::kSwDirect, AlgorithmKind::kIpp, AlgorithmKind::kApp,
        AlgorithmKind::kCapp, AlgorithmKind::kBaSw, AlgorithmKind::kTopl,
        AlgorithmKind::kSampling, AlgorithmKind::kAppS,
        AlgorithmKind::kCappS}) {
    if (AlgorithmKindName(kind) == name) return kind;
  }
  return Status::NotFound("unknown algorithm: " + std::string(name));
}

namespace {

template <typename T>
Result<std::unique_ptr<StreamPerturber>> AsStreamPerturber(
    Result<std::unique_ptr<T>> created) {
  if (!created.ok()) return created.status();
  return std::unique_ptr<StreamPerturber>(std::move(created).value());
}

}  // namespace

Result<std::unique_ptr<StreamPerturber>> CreatePerturber(
    AlgorithmKind kind, PerturberOptions options) {
  return CreatePerturberWithMechanism(kind, options,
                                      MechanismKind::kSquareWave);
}

Result<std::unique_ptr<StreamPerturber>> CreatePerturberWithMechanism(
    AlgorithmKind kind, PerturberOptions options, MechanismKind mechanism) {
  const bool sw = mechanism == MechanismKind::kSquareWave;
  if (!sw && kind != AlgorithmKind::kSwDirect && kind != AlgorithmKind::kIpp &&
      kind != AlgorithmKind::kApp && kind != AlgorithmKind::kCapp) {
    return Status::Unimplemented(
        "only direct/ipp/app/capp support non-SW mechanisms");
  }
  const SamplingOptions sampling{options, std::nullopt};
  switch (kind) {
    case AlgorithmKind::kSwDirect:
      return AsStreamPerturber(MechanismDirect::Create(options, mechanism));
    case AlgorithmKind::kIpp:
      return AsStreamPerturber(
          PpPerturber::Create(PpKind::kIpp, options, mechanism));
    case AlgorithmKind::kApp:
      return AsStreamPerturber(
          PpPerturber::Create(PpKind::kApp, options, mechanism));
    case AlgorithmKind::kCapp: {
      std::optional<double> delta;
      if (!sw) {
        // Non-SW CAPP needs an explicit clip interval; the paper gives no
        // default, so use the proxy selector's recommendation for the
        // per-slot budget as a reasonable starting interval.
        CAPP_ASSIGN_OR_RETURN(
            ClipBounds bounds,
            SelectClipBoundsProxy(options.epsilon / options.window));
        delta = bounds.delta;
      }
      return AsStreamPerturber(
          PpPerturber::Create(PpKind::kCapp, options, mechanism, delta));
    }
    case AlgorithmKind::kBaSw:
      return AsStreamPerturber(BaSw::Create(options));
    case AlgorithmKind::kTopl:
      return AsStreamPerturber(Topl::Create(options));
    case AlgorithmKind::kSampling:
      return AsStreamPerturber(PpSampler::Create(sampling, PpKind::kDirect));
    case AlgorithmKind::kAppS:
      return AsStreamPerturber(PpSampler::Create(sampling, PpKind::kApp));
    case AlgorithmKind::kCappS:
      return AsStreamPerturber(PpSampler::Create(sampling, PpKind::kCapp));
  }
  return Status::InvalidArgument("unknown algorithm kind");
}

}  // namespace capp
