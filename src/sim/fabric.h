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
#include <cstring>
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

// A message's bytes: up to kInlineBytes inside the message (no heap
// allocation), more in a heap vector that a blob receive moves out.
class Payload {
 public:
  static constexpr size_t kInlineBytes = 64;
  // Heap capacity a recycled payload keeps for its next message (see
  // Recycle): enough for a decode step's 1 KiB activation. Keeping 4 KiB
  // grew a 192-rank paper_grid unit's peak RSS by 3%: every free node
  // keeps the largest payload it ever carried.
  static constexpr size_t kRetainedBytes = 1024;

  Payload() = default;
  Payload(const std::vector<uint8_t>& v) { Assign(v.data(), v.size()); }

  void Assign(const void* data, size_t bytes) {
    size_ = bytes;
    const auto* p = static_cast<const uint8_t*>(data);
    if (bytes > kInlineBytes) {
      heap_.assign(p, p + bytes);
    } else if (bytes != 0) {
      std::memcpy(inline_, p, bytes);
    }
  }
  size_t size() const { return size_; }
  const uint8_t* data() const {
    return size_ > kInlineBytes ? heap_.data() : inline_;
  }
  uint8_t operator[](size_t i) const { return data()[i]; }
  std::vector<uint8_t> TakeVector() && {
    if (size_ > kInlineBytes) return std::move(heap_);
    return {inline_, inline_ + size_};
  }
  // Empties the payload for a free mailbox node. A heap buffer of up to
  // kRetainedBytes keeps its capacity, so the next message of that size
  // allocates nothing; a larger one is freed.
  void Recycle() {
    size_ = 0;
    if (heap_.capacity() > kRetainedBytes) {
      std::vector<uint8_t>().swap(heap_);
    } else {
      heap_.clear();
    }
  }

 private:
  size_t size_ = 0;
  std::vector<uint8_t> heap_;          // the bytes when size_ > kInlineBytes
  uint8_t inline_[kInlineBytes] = {};  // the bytes otherwise
};

struct Message {
  int src = -1;
  int dst = -1;
  uint64_t channel = 0;  // (context id << 16) | phase, composed by callers
  int tag = 0;
  Seconds depart = 0.0;      // sender's virtual time at send
  double cost_bytes = 0.0;   // size used by the time model (may exceed payload)
  Payload payload;
};

// Where a receive delivers what it matched: exactly `bytes` bytes into
// `data` (a payload of another size is consumed uncopied and reported
// as mismatched), or the whole payload into `blob`, or the whole
// message into `message`.
struct RecvBuffer {
  void* data = nullptr;
  size_t bytes = 0;
  std::vector<uint8_t>* blob = nullptr;
  Message* message = nullptr;
  size_t size = 0;  // the matched payload's size

  bool mismatched() const {
    return blob == nullptr && message == nullptr && size != bytes;
  }
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

  // Sends `bytes` bytes from `data`, charged as `cost_bytes`. Non-
  // blocking (eager, buffered). Sending to a dead process silently drops
  // the message: like a real transport, the sender only learns about the
  // failure when it next *waits* on that peer.
  Status Send(int src, int dst, uint64_t channel, int tag, Seconds depart,
              double cost_bytes, const void* data, size_t bytes);

  // Blocks until a message matching (src, channel, tag) is available, the
  // awaited peer dies, a watched process dies, the token is cancelled, or
  // this process itself is killed. On success fills *into, merges
  // network time into *now and charges the receive overhead.
  Status Recv(int self, Seconds* now, int src, uint64_t channel, int tag,
              RecvBuffer* into, const CancelToken* cancel = nullptr,
              const std::vector<int>* death_watch = nullptr);

  // Non-blocking variant: kUnavailable if nothing matches right now.
  Status TryRecv(int self, Seconds* now, int src, uint64_t channel, int tag,
                 RecvBuffer* into);

  // Drops all queued messages belonging to a retired communication
  // context (called when a communicator/context is freed after shrink).
  void PurgeContext(uint64_t context_id);

  // Wakes every blocked receive so it can re-check its cancel/death
  // predicates (used by revoke).
  void WakeAll();

 private:
  // A mailbox is a FIFO list of nodes from the fabric's free list: no
  // allocation per message, and only as many nodes as were ever pending,
  // each keeping at most Payload::kRetainedBytes of heap capacity.
  struct Node {
    Message msg;
    Node* next = nullptr;
  };
  struct Mailbox {
    Node* head = nullptr;
    Node* tail = nullptr;
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

  // Delivers and unlinks self's first message matching (src, channel,
  // tag), charging its arrival to *now; false when none matches.
  bool TakeMatch(int self, Seconds* now, int src, uint64_t channel, int tag,
                 RecvBuffer* into);
  void MarkDead(int pid);
  // Moves `n` (after `prev`; null at the head) to the free list.
  void Unlink(Mailbox& mbox, Node* prev, Node* n);

  std::vector<Proc> procs_;
  std::deque<Node> nodes_;  // every node ever used; stable addresses
  Node* free_ = nullptr;
  std::vector<int> alive_pids_;              // sorted
  std::vector<int> dead_pids_;               // sorted
  uint64_t deaths_ = 0;  // processes marked dead so far
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
