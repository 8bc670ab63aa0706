#include "stream/session.h"

#include <utility>

namespace capp {

Result<UserSession> UserSession::Create(uint64_t user_id, AlgorithmKind kind,
                                        PerturberOptions options,
                                        uint64_t seed) {
  CAPP_ASSIGN_OR_RETURN(std::unique_ptr<StreamPerturber> perturber,
                        CreatePerturber(kind, options));
  if (!perturber->supports_online()) {
    return Status::InvalidArgument(
        "sampling algorithms need whole subsequences; use PerturbSequence "
        "directly instead of a UserSession");
  }
  return UserSession(user_id, std::move(perturber), seed);
}

void UserSession::ResetForUser(uint64_t user_id, uint64_t seed) {
  user_id_ = user_id;
  perturber_->Reset();
  ledger_.Reset();
  rng_ = Rng(seed);
}

SlotReport UserSession::Report(double value) {
  SlotReport report;
  report.user_id = user_id_;
  report.slot = perturber_->slots_processed();
  report.value = perturber_->ProcessValue(value, rng_);
  return report;
}

void UserSession::ReportChunk(std::span<const double> values,
                              std::span<double> out) {
  perturber_->ProcessChunk(values, out, rng_);
}

}  // namespace capp
