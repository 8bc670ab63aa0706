// Unified factory over all stream perturbation algorithms, used by the
// benchmark harness, the examples, and downstream applications that select
// an algorithm by name or enum.
#ifndef CAPP_ALGORITHMS_FACTORY_H_
#define CAPP_ALGORITHMS_FACTORY_H_

#include <memory>
#include <string_view>

#include "algorithms/perturber.h"
#include "mechanisms/mechanism.h"

namespace capp {

/// Every stream algorithm in the library.
enum class AlgorithmKind {
  kSwDirect,  ///< SW-direct baseline.
  kIpp,       ///< Iterative Perturbation Parameterization.
  kApp,       ///< Accumulated Perturbation Parameterization.
  kCapp,      ///< Clipped APP (the paper's flagship).
  kBaSw,      ///< Budget absorption + SW baseline.
  kTopl,      ///< ToPL baseline (SW range learning + HM).
  kSampling,  ///< Naive sampling baseline (SW over segment means).
  kAppS,      ///< APP with sampling.
  kCappS,     ///< CAPP with sampling.
};

/// Short display name of an algorithm ("sw-direct", "ipp", ...).
std::string_view AlgorithmKindName(AlgorithmKind kind);

/// Parses a display name back into an AlgorithmKind.
Result<AlgorithmKind> ParseAlgorithmKind(std::string_view name);

/// Creates the algorithm over Square Wave with default sub-options.
/// Sampling-based kinds choose n_s by the Section V criterion at
/// perturbation time.
Result<std::unique_ptr<StreamPerturber>> CreatePerturber(
    AlgorithmKind kind, PerturberOptions options);

/// Creates the algorithm over `mechanism` (Fig. 9 study). Only kSwDirect,
/// kIpp, kApp and kCapp support non-SW mechanisms; CAPP over them takes
/// its clip widening from SelectClipBoundsProxy (the Eq.-11 selector is
/// Square-Wave-specific).
Result<std::unique_ptr<StreamPerturber>> CreatePerturberWithMechanism(
    AlgorithmKind kind, PerturberOptions options, MechanismKind mechanism);

}  // namespace capp

#endif  // CAPP_ALGORITHMS_FACTORY_H_
