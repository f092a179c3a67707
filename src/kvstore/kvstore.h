// An etcd-like in-process key-value store used for rendezvous by the
// Gloo-like stack (and by worker-discovery in both stacks).
//
// Every operation performed through an Endpoint charges one client
// round-trip to that rank's virtual clock; values carry the (virtual)
// time they became visible so waiters observe causally-consistent time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/endpoint.h"
#include "sim/engine.h"

namespace rcc::kv {

struct Entry {
  std::vector<uint8_t> value;
  sim::Seconds visible_at = 0.0;  // virtual time the write became visible
  uint64_t version = 0;
};

class Store {
 public:
  explicit Store(sim::Seconds roundtrip = 0.5e-3);

  // `ep` may be null (test / orchestrator access, no time charged).
  Status Set(sim::Endpoint* ep, const std::string& key,
             std::vector<uint8_t> value);
  Status SetString(sim::Endpoint* ep, const std::string& key,
                   const std::string& value);

  Result<std::vector<uint8_t>> Get(sim::Endpoint* ep, const std::string& key);
  Result<std::string> GetString(sim::Endpoint* ep, const std::string& key);

  // Blocks until the key exists (or the caller dies). Virtual time merges
  // with the writer's publication time. Only a simulation fiber can
  // block: waiting for a missing key off a fiber is a fatal check.
  Result<std::vector<uint8_t>> Wait(sim::Endpoint* ep, const std::string& key);

  // Like Wait but returns the full entry (value + version + publication
  // time): snapshot staging reads the version so a joiner can tell which
  // iteration of a re-published snapshot it restored.
  Result<Entry> WaitEntry(sim::Endpoint* ep, const std::string& key);

  Status Delete(sim::Endpoint* ep, const std::string& key);

  // Atomic fetch-add on an integer-valued key (missing key counts as 0);
  // returns the post-add value. Used to allocate rendezvous slots.
  Result<int64_t> AddAndGet(sim::Endpoint* ep, const std::string& key,
                            int64_t delta);

  // Compare-and-swap on the entry version (0 = "must not exist").
  // Returns true on success.
  Result<bool> CompareAndSwap(sim::Endpoint* ep, const std::string& key,
                              uint64_t expected_version,
                              std::vector<uint8_t> value);

  // Keys with the given prefix, sorted.
  std::vector<std::string> ListPrefix(sim::Endpoint* ep,
                                      const std::string& prefix);

  Result<uint64_t> VersionOf(sim::Endpoint* ep, const std::string& key);

  // Drops every key (a fresh rendezvous round). Not counted: no endpoint.
  void Clear();

  size_t size() const;

 private:
  // Operations counted in rcc_kv_ops_total{op} (names in kvstore.cc).
  enum Op {
    kSet,
    kGet,
    kWait,
    kWaitEntry,
    kDelete,
    kAddAndGet,
    kCompareAndSwap,
    kListPrefix,
    kVersionOf,
    kNumOps,
  };

  void Charge(sim::Endpoint* ep) const {
    if (ep != nullptr) ep->Busy(roundtrip_);
  }
  // Per-operation traffic counter (the rendezvous path is O(P) reads per
  // joiner, worth watching at scale) and the store key count, updated
  // wherever the map mutates. Both record into the simulation of the
  // endpoint performing the op; an op without an endpoint (an
  // orchestrator or a probe) is not counted.
  void CountOp(sim::Endpoint* ep, Op op);
  void SetKeysGauge(sim::Endpoint* ep) const;

  sim::WaitPoint wp_;
  std::map<std::string, Entry> data_;
  sim::Seconds roundtrip_;
};

}  // namespace rcc::kv
