// Endpoint: a simulated rank's handle onto the fabric. Owns the rank's
// virtual clock and the deterministic self-kill trigger used for failure
// injection in virtual time, and reaches the rank's event log.
#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "common/status.h"
#include "sim/fabric.h"

namespace rcc::sim {

class Endpoint {
 public:
  Endpoint(Fabric* fabric, int pid, Seconds start_time = 0.0)
      : fabric_(fabric),
        pid_(pid),
        log_(fabric->logs().For(pid)),
        now_(start_time) {}

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  Fabric& fabric() const { return *fabric_; }
  int pid() const { return pid_; }
  int node() const { return fabric_->NodeOf(pid_); }
  // This rank's event log, owned by the fabric's simulation.
  obs::flight::Ring* log() const { return log_; }
  // This simulation's metrics registry.
  obs::Registry& metrics() const { return fabric_->metrics(); }
  Seconds now() const { return now_; }
  // Stable address of this rank's virtual clock: the engine's run queue
  // orders a parked task by *clock() (read only while the rank is not
  // running, so the read is race-free).
  const Seconds* clock() const { return &now_; }
  bool alive() const { return fabric_->IsAlive(pid_); }

  // --- virtual time ---
  void AdvanceTo(Seconds t) {
    if (t > now_) now_ = t;
  }
  // Busy time on this rank (software path, GPU kernel, ...).
  void Busy(Seconds s) {
    now_ += s;
    MaybeSelfKill();
  }
  // Training math at the configured GPU rate.
  void Compute(double flops) { Busy(flops / fabric_->config().net.gpu_flops); }

  // --- failure injection ---
  // The rank kills itself the first time its clock reaches `t` inside a
  // fabric operation. Deterministic in virtual time, independent of real
  // thread scheduling.
  void SetKillAtTime(Seconds t) { kill_at_ = t; }
  // Like SetKillAtTime but keeps the *earliest* armed trigger: several
  // failure-plan events (node sweep + targeted kill + chaos injection)
  // may arm the same rank.
  void ArmKillAt(Seconds t) { kill_at_ = std::min(kill_at_, t); }
  // Immediately marks this rank dead at its next operation.
  void KillNow() { SetKillAtTime(0.0); }
  // Checks the trigger against `clock` (the rank's own by default);
  // returns true if this rank just died.
  bool MaybeSelfKill() { return MaybeSelfKill(now_); }
  bool MaybeSelfKill(Seconds clock) {
    if (clock >= kill_at_) {
      fabric_->Kill(pid_);
      return true;
    }
    return false;
  }

  // --- communication ---
  // Sends `bytes` bytes from `data`; cost_bytes < 0 charges their size.
  // Every send and receive advances *clock: the rank's own, or a
  // collective op task's private one (coll::FabricChannel).
  Status Send(int dst, uint64_t channel, int tag, const void* data,
              size_t bytes, double cost_bytes = -1.0,
              Seconds* clock = nullptr) {
    if (clock == nullptr) clock = &now_;
    if (MaybeSelfKill(*clock)) return Status(Code::kAborted, "sender killed");
    *clock += fabric_->config().net.send_overhead;
    return fabric_->Send(
        pid_, dst, channel, tag, *clock,
        cost_bytes < 0 ? static_cast<double>(bytes) : cost_bytes, data,
        bytes);
  }
  Status Send(int dst, uint64_t channel, int tag,
              const std::vector<uint8_t>& payload, double cost_bytes = -1.0) {
    return Send(dst, channel, tag, payload.data(), payload.size(),
                cost_bytes);
  }

  // Receives into *into (see RecvBuffer), or the whole message into *out.
  Status Recv(int src, uint64_t channel, int tag, RecvBuffer* into,
              const CancelToken* cancel = nullptr,
              const std::vector<int>* death_watch = nullptr,
              Seconds* clock = nullptr) {
    if (clock == nullptr) clock = &now_;
    if (MaybeSelfKill(*clock)) {
      return Status(Code::kAborted, "receiver killed");
    }
    Status s = fabric_->Recv(pid_, clock, src, channel, tag, into, cancel,
                             death_watch);
    if (s.ok() && MaybeSelfKill(*clock)) {
      return Status(Code::kAborted, "receiver killed");
    }
    return s;
  }
  Status Recv(int src, uint64_t channel, int tag, Message* out,
              const CancelToken* cancel = nullptr,
              const std::vector<int>* death_watch = nullptr) {
    RecvBuffer into{.message = out};
    return Recv(src, channel, tag, &into, cancel, death_watch);
  }

  Status TryRecv(int src, uint64_t channel, int tag, Message* out) {
    if (MaybeSelfKill()) return Status(Code::kAborted, "receiver killed");
    RecvBuffer into{.message = out};
    return fabric_->TryRecv(pid_, &now_, src, channel, tag, &into);
  }

 private:
  Fabric* fabric_;
  int pid_;
  obs::flight::Ring* log_;
  Seconds now_;
  Seconds kill_at_ = std::numeric_limits<Seconds>::infinity();
};

}  // namespace rcc::sim
