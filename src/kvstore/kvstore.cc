#include "kvstore/kvstore.h"

#include <cstring>
#include <iterator>

#include "obs/flight.h"
#include "obs/metrics.h"

namespace rcc::kv {
namespace {

// rcc_kv_ops_total{op} label values, indexed by Store::Op.
constexpr const char* kOpNames[] = {
    "set",          "get",
    "wait",         "wait_entry",
    "delete",       "add_and_get",
    "compare_and_swap",
    "list_prefix",  "version_of",
};

// Stable 53-bit key fingerprint (FNV-1a, truncated) so blocking waits
// can be correlated across ranks in flight-recorder dumps without
// storing strings in the fixed-size ring. 53 bits keeps the hash
// exactly representable as a double, so it survives the JSON dump →
// postmortem parse round-trip bit-identically.
int64_t KeyHash(const std::string& key) {
  uint64_t h = 1469598103934665603ull;
  for (char c : key) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return static_cast<int64_t>(h & ((1ull << 53) - 1));
}

// The kvstore instruments of one simulation, each resolved on first use
// and shared by every store its ranks use. They live in the fabric's
// rendezvous table, so they go with the simulation and a store never
// holds an instrument of one that has ended.
struct SimInstruments {
  obs::Counter* ops[std::size(kOpNames)] = {};
  obs::Gauge* keys = nullptr;
};

SimInstruments& InstrumentsOf(sim::Endpoint& ep) {
  return *ep.fabric().Rendezvous<SimInstruments>("kv/metrics");
}

}  // namespace

Store::Store(sim::Seconds roundtrip) : roundtrip_(roundtrip) {
  static_assert(std::size(kOpNames) == kNumOps);
}

void Store::CountOp(sim::Endpoint* ep, Op op) {
  if (ep == nullptr) return;
  obs::Counter*& ops = InstrumentsOf(*ep).ops[op];
  if (ops == nullptr) {
    ops = ep->metrics().GetCounter("rcc_kv_ops_total", {{"op", kOpNames[op]}});
  }
  ops->Increment();
}

void Store::SetKeysGauge(sim::Endpoint* ep) const {
  if (ep == nullptr) return;
  obs::Gauge*& keys = InstrumentsOf(*ep).keys;
  if (keys == nullptr) keys = ep->metrics().GetGauge("rcc_kv_keys");
  keys->Set(static_cast<double>(data_.size()));
}

Status Store::Set(sim::Endpoint* ep, const std::string& key,
                  std::vector<uint8_t> value) {
  CountOp(ep, kSet);
  Charge(ep);
  Entry& entry = data_[key];
  entry.value = std::move(value);
  entry.visible_at = ep != nullptr ? ep->now() : 0.0;
  ++entry.version;
  SetKeysGauge(ep);
  wp_.NotifyAll();
  return Status::Ok();
}

Status Store::SetString(sim::Endpoint* ep, const std::string& key,
                        const std::string& value) {
  return Set(ep, key, std::vector<uint8_t>(value.begin(), value.end()));
}

Result<std::vector<uint8_t>> Store::Get(sim::Endpoint* ep,
                                        const std::string& key) {
  CountOp(ep, kGet);
  Charge(ep);
  auto it = data_.find(key);
  if (it == data_.end()) {
    return Status(Code::kNotFound, "kv: no such key: " + key);
  }
  if (ep != nullptr) ep->AdvanceTo(it->second.visible_at + roundtrip_);
  return it->second.value;
}

Result<std::string> Store::GetString(sim::Endpoint* ep,
                                     const std::string& key) {
  auto r = Get(ep, key);
  if (!r.ok()) return r.status();
  return std::string(r.value().begin(), r.value().end());
}

Result<std::vector<uint8_t>> Store::Wait(sim::Endpoint* ep,
                                         const std::string& key) {
  CountOp(ep, kWait);
  Charge(ep);
  obs::flight::Ring* fly = ep != nullptr ? ep->log() : nullptr;
  const double wait_begin = ep != nullptr ? ep->now() : 0.0;
  if (fly != nullptr) {
    fly->Record(obs::flight::Ev::kKvWaitBegin, wait_begin, KeyHash(key));
  }
  for (;;) {
    auto it = data_.find(key);
    if (it != data_.end()) {
      if (ep != nullptr) ep->AdvanceTo(it->second.visible_at + roundtrip_);
      if (fly != nullptr) {
        fly->Record(obs::flight::Ev::kKvWaitEnd, ep->now(), KeyHash(key), 0,
                    ep->now() - wait_begin);
      }
      return it->second.value;
    }
    if (ep != nullptr && !ep->alive()) {
      return Status(Code::kAborted, "kv wait: caller died");
    }
    // Timed park so a killed waiter unblocks: it is woken by the next
    // write, by Fabric::Kill, or at quiescence (the 2ms ladder rung). The
    // virtual time is merged from the writer's publication stamp, not
    // from this rung.
    wp_.WaitFor(2e-3);
  }
}

Result<Entry> Store::WaitEntry(sim::Endpoint* ep, const std::string& key) {
  CountOp(ep, kWaitEntry);
  Charge(ep);
  obs::flight::Ring* fly = ep != nullptr ? ep->log() : nullptr;
  const double wait_begin = ep != nullptr ? ep->now() : 0.0;
  if (fly != nullptr) {
    fly->Record(obs::flight::Ev::kKvWaitBegin, wait_begin, KeyHash(key));
  }
  for (;;) {
    auto it = data_.find(key);
    if (it != data_.end()) {
      if (ep != nullptr) ep->AdvanceTo(it->second.visible_at + roundtrip_);
      if (fly != nullptr) {
        fly->Record(obs::flight::Ev::kKvWaitEnd, ep->now(), KeyHash(key), 0,
                    ep->now() - wait_begin);
      }
      return it->second;
    }
    if (ep != nullptr && !ep->alive()) {
      return Status(Code::kAborted, "kv wait: caller died");
    }
    wp_.WaitFor(2e-3);
  }
}

Status Store::Delete(sim::Endpoint* ep, const std::string& key) {
  CountOp(ep, kDelete);
  Charge(ep);
  data_.erase(key);
  SetKeysGauge(ep);
  return Status::Ok();
}

Result<int64_t> Store::AddAndGet(sim::Endpoint* ep, const std::string& key,
                                 int64_t delta) {
  CountOp(ep, kAddAndGet);
  Charge(ep);
  Entry& entry = data_[key];
  int64_t current = 0;
  if (entry.value.size() == sizeof(int64_t)) {
    std::memcpy(&current, entry.value.data(), sizeof(current));
  }
  current += delta;
  entry.value.resize(sizeof(current));
  std::memcpy(entry.value.data(), &current, sizeof(current));
  entry.visible_at = ep != nullptr ? ep->now() : 0.0;
  ++entry.version;
  SetKeysGauge(ep);
  wp_.NotifyAll();
  return current;
}

Result<bool> Store::CompareAndSwap(sim::Endpoint* ep, const std::string& key,
                                   uint64_t expected_version,
                                   std::vector<uint8_t> value) {
  CountOp(ep, kCompareAndSwap);
  Charge(ep);
  auto it = data_.find(key);
  const uint64_t version = it == data_.end() ? 0 : it->second.version;
  if (version != expected_version) return false;
  Entry& entry = data_[key];
  entry.value = std::move(value);
  entry.visible_at = ep != nullptr ? ep->now() : 0.0;
  ++entry.version;
  wp_.NotifyAll();
  return true;
}

std::vector<std::string> Store::ListPrefix(sim::Endpoint* ep,
                                           const std::string& prefix) {
  CountOp(ep, kListPrefix);
  Charge(ep);
  std::vector<std::string> keys;
  for (auto it = data_.lower_bound(prefix); it != data_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    keys.push_back(it->first);
  }
  return keys;
}

Result<uint64_t> Store::VersionOf(sim::Endpoint* ep, const std::string& key) {
  CountOp(ep, kVersionOf);
  Charge(ep);
  auto it = data_.find(key);
  if (it == data_.end()) {
    return Status(Code::kNotFound, "kv: no such key: " + key);
  }
  return it->second.version;
}

void Store::Clear() {
  data_.clear();
  wp_.NotifyAll();
}

size_t Store::size() const {
  return data_.size();
}

}  // namespace rcc::kv
