// The message fabric: the simulated interconnect all communication
// libraries (MPI-like, Gloo-like, NCCL-like) are built on.
//
// Every simulated rank is a fiber on the fabric's discrete-event engine
// (see sim/engine.h) with its own *virtual clock*. Messages carry the
// sender's departure time; a receive merges
//   arrival = depart + latency + cost_bytes / bandwidth
// into the receiver's clock (LogGP-style). Intra-node and inter-node
// links use distinct latency/bandwidth parameters. Blocked receives park
// on a WaitPoint.
//
// Failure semantics:
//  * Kill(pid) / KillNode(node) mark processes dead and wake all blocked
//    receivers (including fibers parked in timeout waits, whose
//    predicates may now never be satisfied). Leave(pid) is a Kill the
//    process chose: peers observe the same failure, but Left(pid) tells
//    a voluntary departure from a crash.
//  * A receive whose awaited partner is dead returns kProcFailed after
//    charging the failure-detection latency (ULFM-style per-operation
//    error).
//  * A receive may carry a DeathWatch (the Gloo-like layer watches its
//    whole membership: any member death is context-fatal, like a TCP RST
//    tearing down the process group). The watch fires on the bottom rung
//    of the quiescence ladder, once every drainable chain has run.
//  * A receive may carry a CancelToken (ULFM revoke: interrupting ranks
//    blocked inside a broken collective).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <typeinfo>
#include <unordered_map>
#include <vector>

#include "common/log.h"
#include "common/status.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "sim/params.h"

namespace rcc::sim {

inline constexpr int kAnySource = -1;

struct Message {
  int src = -1;
  int dst = -1;
  uint64_t channel = 0;  // (context id << 16) | phase, composed by callers
  int tag = 0;
  Seconds depart = 0.0;      // sender's virtual time at send
  double cost_bytes = 0.0;   // size used by the time model (may exceed payload)
  std::vector<uint8_t> payload;
};

// Composes a channel key from a communication-context id and a phase
// discriminator (collective kind, protocol step...).
inline uint64_t ChannelKey(uint64_t context_id, uint16_t phase) {
  return (context_id << 16) | phase;
}
inline uint64_t ChannelContext(uint64_t channel) { return channel >> 16; }

// Set once by a revoke; observed by receives blocked on the revoked
// context. Never reset (a revoked context is repaired by building a new
// one with a fresh token).
class CancelToken {
 public:
  void Cancel() { cancelled_ = true; }
  bool cancelled() const { return cancelled_; }

 private:
  bool cancelled_ = false;
};

class Fabric {
 public:
  explicit Fabric(SimConfig cfg);
  // Folds metrics() into the process's export sink.
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  const SimConfig& config() const { return cfg_; }

  // The rank-execution engine every task of this simulation runs on.
  Engine& engine() { return engine_; }

  // This simulation's per-rank event logs (obs/flight.h). Shared, so a
  // trace::Recorder attached to the run reads them after the fabric is
  // gone.
  obs::flight::Logs& logs() const { return *logs_; }
  const std::shared_ptr<obs::flight::Logs>& shared_logs() const {
    return logs_;
  }

  // This simulation's metrics registry: every counter, gauge and
  // histogram its ranks record, and the only one modeled code reads
  // (the adaptive policy's inputs). One writer, like the logs.
  obs::Registry& metrics() { return metrics_; }

  // This simulation's rendezvous table: every rank naming the same key
  // gets the same shared object, default-constructed by the first
  // caller. Communicator groups (mpi/group.h) and ULFM's agree/expand
  // synchronizers meet here, so they are freed with the simulation. A
  // key holds one type; asking for it as another is a fatal check.
  template <typename T>
  std::shared_ptr<T> Rendezvous(const std::string& key);
  // Drops `key` from the table; current holders keep their object.
  void ReleaseRendezvous(const std::string& key) { rendezvous_.erase(key); }

  // Communicator context ids: 1, 2, ... in allocation order, unique
  // within this simulation.
  uint64_t NextContextId() { return next_context_id_++; }

  // Registers a new process on `node`; returns its pid. Usable mid-run
  // (dynamic worker admission).
  int RegisterProcess(int node);

  void Kill(int pid);
  void KillNode(int node);
  void Leave(int pid);
  bool IsAlive(int pid) const;
  bool Left(int pid) const;
  int NodeOf(int pid) const;

  // Membership queries are O(answer), not O(world): the alive/dead pid
  // sets are maintained incrementally on register/kill (10k-rank
  // simulations poll these on hot paths).
  int ProcessCount() const { return static_cast<int>(procs_.size()); }
  int AliveCount() const { return static_cast<int>(alive_pids_.size()); }
  std::vector<int> AlivePids() const { return alive_pids_; }
  std::vector<int> DeadPids() const { return dead_pids_; }

  // Sends a message. Non-blocking (eager, buffered). Sending to a dead
  // process silently drops the message: like a real transport, the sender
  // only learns about the failure when it next *waits* on that peer.
  Status Send(Message msg);

  // Blocks until a message matching (src, channel, tag) is available, the
  // awaited peer dies, a watched process dies, the token is cancelled, or
  // this process itself is killed. On success merges network time into
  // *now and charges the receive overhead.
  Status Recv(int self, Seconds* now, int src, uint64_t channel, int tag,
              Message* out, const CancelToken* cancel = nullptr,
              const std::vector<int>* death_watch = nullptr);

  // Non-blocking variant: kUnavailable if nothing matches right now.
  Status TryRecv(int self, Seconds* now, int src, uint64_t channel, int tag,
                 Message* out);

  // Drops all queued messages belonging to a retired communication
  // context (called when a communicator/context is freed after shrink).
  void PurgeContext(uint64_t context_id);

  // Wakes every blocked receive so it can re-check its cancel/death
  // predicates (used by revoke).
  void WakeAll();

 private:
  struct Mailbox {
    std::deque<Message> queue;
    WaitPoint wp;
  };
  struct Proc {
    int node = 0;
    bool alive = true;
    bool left = false;  // departed through Leave
    std::unique_ptr<Mailbox> mbox;
  };

  // Returns arrival time of msg at dst given link parameters.
  Seconds ArrivalTime(const Message& msg, int dst_node) const;

  bool FindMatch(Mailbox& mbox, int src, uint64_t channel, int tag,
                 Message* out);
  void MarkDead(int pid);

  std::vector<Proc> procs_;
  std::vector<int> alive_pids_;              // sorted
  std::vector<int> dead_pids_;               // sorted
  std::vector<std::vector<int>> node_pids_;  // node -> pids
  struct RendezvousEntry {
    std::shared_ptr<void> object;
    const std::type_info* type;
  };

  SimConfig cfg_;
  std::shared_ptr<obs::flight::Logs> logs_;
  obs::Registry metrics_;
  Engine engine_;
  // After engine_: the synchronizers hold WaitPoints, which must go
  // before the engine their fibers ran on.
  std::unordered_map<std::string, RendezvousEntry> rendezvous_;
  uint64_t next_context_id_ = 1;
};

template <typename T>
std::shared_ptr<T> Fabric::Rendezvous(const std::string& key) {
  auto [it, inserted] = rendezvous_.try_emplace(key);
  if (inserted) it->second = {std::make_shared<T>(), &typeid(T)};
  RCC_CHECK(*it->second.type == typeid(T))
      << "rendezvous key " << key << " holds " << it->second.type->name()
      << ", not " << typeid(T).name();
  return std::static_pointer_cast<T>(it->second.object);
}

}  // namespace rcc::sim
