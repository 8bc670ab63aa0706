// Device-side deployment API for the paper's Fig. 1: a UserSession runs
// on each user's device. It wraps a stream perturbation algorithm, the
// w-event budget ledger, and an auditable per-slot report record; one
// call per time slot.
//
// The session is deliberately transport-agnostic: a report is just
// (user_id, slot, value); any RPC/MQTT/file transport can carry it. At
// the collector, ShardedCollector (engine/sharded_collector.h) ingests
// the reports and serves per-user streams and population statistics.
#ifndef CAPP_STREAM_SESSION_H_
#define CAPP_STREAM_SESSION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "algorithms/factory.h"
#include "algorithms/perturber.h"
#include "core/rng.h"
#include "core/status.h"
#include "stream/accountant.h"
#include "stream/report.h"

namespace capp {

/// Per-device session: perturb values as they arrive, with a built-in
/// privacy audit.
class UserSession {
 public:
  /// Creates a session for one user. `seed` drives the device's RNG.
  static Result<UserSession> Create(uint64_t user_id, AlgorithmKind kind,
                                    PerturberOptions options, uint64_t seed);

  // The perturber records spends against the ledger by address, so every
  // construction and move must re-point it at this object's ledger (the
  // null check keeps moved-from sessions harmless).
  UserSession(UserSession&& other) noexcept
      : user_id_(other.user_id_),
        perturber_(std::move(other.perturber_)),
        ledger_(std::move(other.ledger_)),
        rng_(other.rng_) {
    if (perturber_) perturber_->AttachAccountant(&ledger_);
  }
  UserSession& operator=(UserSession&& other) noexcept {
    if (this == &other) return *this;
    user_id_ = other.user_id_;
    perturber_ = std::move(other.perturber_);
    ledger_ = std::move(other.ledger_);
    rng_ = other.rng_;
    if (perturber_) perturber_->AttachAccountant(&ledger_);
    return *this;
  }

  /// Re-purposes this session for another user: algorithm state, budget
  /// ledger, and slot counter are reset and the RNG is reseeded, leaving
  /// the session indistinguishable from a freshly created one -- while the
  /// perturber and ledger allocations are reused. The engine's fleet
  /// workers pool one session per worker through this instead of paying a
  /// mechanism construction per simulated user.
  void ResetForUser(uint64_t user_id, uint64_t seed);

  /// Perturbs the current slot's value and returns the outgoing report.
  /// Values go through SanitizeUnitValue: finite ones are clamped into
  /// [0,1] (normalize upstream if necessary) and NaN/+-inf readings become
  /// the midpoint 0.5.
  SlotReport Report(double value);

  /// Perturbs values.size() consecutive slots in one call: out[i] is the
  /// report *value* for slot slots_processed()+i (the caller composes
  /// SlotReports, which keeps bulk producers free of per-report structs).
  /// Bit-identical to calling Report per element; the batched path is
  /// described at StreamPerturber::ProcessChunk. out.size() must equal
  /// values.size(), and the two must not overlap.
  void ReportChunk(std::span<const double> values, std::span<double> out);

  uint64_t user_id() const { return user_id_; }
  size_t slots_processed() const { return perturber_->slots_processed(); }

  /// The running privacy audit: OK iff no window overspent so far.
  Status AuditBudget() const {
    return ledger_.VerifyBudget(perturber_->options().window,
                                perturber_->options().epsilon);
  }

  /// Maximum budget spent in any window so far.
  double MaxWindowSpend() const {
    return ledger_.MaxWindowSpend(perturber_->options().window);
  }

 private:
  UserSession(uint64_t user_id, std::unique_ptr<StreamPerturber> perturber,
              uint64_t seed)
      : user_id_(user_id), perturber_(std::move(perturber)), rng_(seed) {
    perturber_->AttachAccountant(&ledger_);
  }

  uint64_t user_id_;
  std::unique_ptr<StreamPerturber> perturber_;
  WEventAccountant ledger_;
  Rng rng_;
};

}  // namespace capp

#endif  // CAPP_STREAM_SESSION_H_
