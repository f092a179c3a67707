// Process-wide metrics registry: counters, gauges, and log-bucketed
// histograms, all with label support.
//
// Design goals, in order:
//   1. Lock-cheap hot paths. Recording into an instrument is a handful
//      of relaxed atomics (a CAS-add for the double counters, a
//      fetch_add for histogram buckets) - no mutex, no allocation.
//      Looking an instrument up sorts and serializes its labels and
//      takes a shared lock on the registry map, so per-op and per-step
//      paths never do it per event: they hold a Handle (below), which
//      resolves once and caches the pointer (instruments are never
//      deallocated while the registry lives).
//   2. One registry per process (Registry::Global()), matching how the
//      simulated cluster runs every rank as a thread of one process:
//      cross-rank aggregation is free, and benches snapshot/diff the
//      registry around a run to get per-run deltas.
//   3. Text exposition in Prometheus format plus CSV, so any bench or
//      example can drop a scrapeable snapshot via RCC_METRICS_OUT (see
//      obs/export.h).
//
// Histograms are log-bucketed (powers of two over a seconds-oriented
// range): recovery spans stretch from microseconds (revoke) to tens of
// seconds (cold-start rendezvous), which a fixed linear layout cannot
// cover; the exponential layout gives ~3 significant bits everywhere at
// 64 buckets.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace rcc::obs {

// Sorted (key, value) pairs identifying one instrument of a family.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {
// Lock-free add for std::atomic<double> (fetch_add on doubles is C++20
// but not universally lowered; the CAS loop is portable and the
// contention case - many ranks on one counter - stays short).
inline void AtomicAdd(std::atomic<double>* target, double v) {
  double cur = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(cur, cur + v,
                                        std::memory_order_relaxed)) {
  }
}
inline void AtomicMax(std::atomic<double>* target, double v) {
  double cur = target->load(std::memory_order_relaxed);
  while (v > cur && !target->compare_exchange_weak(cur, v,
                                                   std::memory_order_relaxed)) {
  }
}
inline void AtomicMin(std::atomic<double>* target, double v) {
  double cur = target->load(std::memory_order_relaxed);
  while (v < cur && !target->compare_exchange_weak(cur, v,
                                                   std::memory_order_relaxed)) {
  }
}
}  // namespace detail

// Monotonically increasing value (events, bytes, accumulated seconds).
class Counter {
 public:
  void Add(double v) { detail::AtomicAdd(&value_, v); }
  void Increment() { Add(1.0); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Last-write-wins instantaneous value (world size, in-flight depth).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double v) { detail::AtomicAdd(&value_, v); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Log-bucketed histogram. Bucket i collects observations in
// (kFirstBound * 2^(i-1), kFirstBound * 2^i]; bucket 0 additionally
// takes everything <= kFirstBound, the last bucket everything above the
// range (+Inf bucket in the Prometheus exposition).
class Histogram {
 public:
  static constexpr int kBuckets = 64;
  static constexpr double kFirstBound = 1e-9;  // 1 ns in seconds-units

  void Observe(double v);

  struct Snapshot {
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  // 0 when count == 0
    double max = 0.0;
    // Cumulative counts per upper bound, Prometheus-style; the final
    // entry's bound is +infinity.
    std::vector<std::pair<double, uint64_t>> cumulative;

    double Mean() const { return count == 0 ? 0.0 : sum / count; }
    // Quantile q in [0, 1] estimated from the bucket counts:
    // rank-interpolated within the containing bucket and clamped to the
    // observed [min, max], so the estimate's error is bounded by the
    // bucket width (~a factor of 2 worst case, exact at min/max).
    double Quantile(double q) const;
  };
  Snapshot TakeSnapshot() const;
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset();

  static double BucketBound(int i);  // upper bound of bucket i
  static int BucketIndex(double v);

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

// Process-wide instrument registry. Get* registers on first use and
// returns a pointer that stays valid for the registry's lifetime, so
// hot paths can cache it. Metric names should already be
// Prometheus-shaped (snake_case, unit-suffixed); the exporters only
// escape label values.
class Registry {
 public:
  static Registry& Global();

  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {});

  // Optional HELP text attached to a metric family.
  void SetHelp(const std::string& name, const std::string& help);

  // Point lookups for tests and benches (0 / empty when absent).
  double CounterValue(const std::string& name, const Labels& labels = {}) const;
  double GaugeValue(const std::string& name, const Labels& labels = {}) const;
  Histogram::Snapshot HistogramSnapshot(const std::string& name,
                                        const Labels& labels = {}) const;

  // Prometheus text exposition (families sorted by name, instruments by
  // label string; histogram as _bucket/_sum/_count series plus
  // summary-style {quantile="0.5|0.9|0.99|0.999"} estimates).
  std::string PrometheusText() const;
  // Flat CSV: metric,labels,type,value,count,sum,mean,min,max,
  // p50,p90,p99,p999 (quantile columns filled for histograms only).
  std::string CsvText() const;

  // Zeroes every instrument, keeping registrations (a fresh bench run).
  void ResetAll();

 private:
  struct Instrument {
    enum class Kind { kCounter, kGauge, kHistogram } kind;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Instrument::Kind kind;
    std::string help;
    // label-key -> instrument; key is the serialized sorted label set.
    std::map<std::string, std::unique_ptr<Instrument>> instruments;
  };

  Instrument* GetOrCreate(const std::string& name, const Labels& labels,
                          Instrument::Kind kind);
  const Instrument* Find(const std::string& name, const Labels& labels) const;

  mutable std::shared_mutex mu_;
  std::map<std::string, Family> families_;
};

// Serializes labels canonically ("{a=\"x\",b=\"y\"}", empty string for
// no labels); shared by the registry key and the Prometheus exporter.
std::string LabelString(const Labels& labels);

// One instrument (family name + labels), resolved on first use and then
// cached. The first Get() pays the registry lookup (label sort, label
// string, shared lock, two map finds); every later one is one acquire
// load. Registration stays exactly as lazy as a direct Get* call, so a
// series appears in the exposition only once something was recorded
// into it. Hot paths keep their handles with the object that owns the
// work (a communicator, store, driver or trainer) instead of looking an
// instrument up per event. Get() is safe from any thread: racing first
// resolutions return the same pointer. `name` must have static storage
// (a string literal); `registry` defaults to Registry::Global().
template <class T>
class Handle {
 public:
  explicit Handle(const char* name, Labels labels = {},
                  Registry* registry = nullptr)
      : name_(name), labels_(std::move(labels)), registry_(registry) {}
  // Copies share the resolved instrument.
  Handle(const Handle& other)
      : name_(other.name_),
        labels_(other.labels_),
        registry_(other.registry_),
        ptr_(other.ptr_.load(std::memory_order_acquire)) {}
  Handle& operator=(const Handle& other) {
    name_ = other.name_;
    labels_ = other.labels_;
    registry_ = other.registry_;
    ptr_.store(other.ptr_.load(std::memory_order_acquire),
               std::memory_order_release);
    return *this;
  }

  T* Get() const {
    T* p = ptr_.load(std::memory_order_acquire);
    if (p == nullptr) {
      Registry& reg = registry_ != nullptr ? *registry_ : Registry::Global();
      if constexpr (std::is_same_v<T, Counter>) {
        p = reg.GetCounter(name_, labels_);
      } else if constexpr (std::is_same_v<T, Gauge>) {
        p = reg.GetGauge(name_, labels_);
      } else {
        p = reg.GetHistogram(name_, labels_);
      }
      ptr_.store(p, std::memory_order_release);
    }
    return p;
  }
  T* operator->() const { return Get(); }

 private:
  const char* name_;
  Labels labels_;
  Registry* registry_;
  mutable std::atomic<T*> ptr_{nullptr};
};

using CounterHandle = Handle<Counter>;
using GaugeHandle = Handle<Gauge>;
using HistogramHandle = Handle<Histogram>;

// Instrument sets keyed by a collective's algo name, for owners that
// record one series per kernel. Algo names are static strings, so the
// lookup is a short scan comparing addresses; a name met at a second
// address gets a second entry resolving to the same instruments.
// For(algo, args...) builds Entry(algo, args...) on first use. Only the
// owning rank looks entries up; the entries' handles may then be used
// from any thread.
template <class Entry>
class ByAlgo {
 public:
  template <class... Args>
  const std::shared_ptr<Entry>& For(const char* algo, Args&&... args) {
    for (const auto& [name, entry] : entries_) {
      if (name == algo) return entry;
    }
    entries_.emplace_back(
        algo, std::make_shared<Entry>(algo, std::forward<Args>(args)...));
    return entries_.back().second;
  }

 private:
  std::vector<std::pair<const char*, std::shared_ptr<Entry>>> entries_;
};

// Per-step instruments shared by every training loop (ElasticTrainer,
// the ULFM and Elastic Horovod figure drivers), labelled by stack: step
// count and wall time, its compute / comm-service / exposed-comm split,
// the step-time histogram and the world-size gauge.
class StepMetrics {
 public:
  explicit StepMetrics(const char* stack);
  // Exposed comm is the wall time not covered by compute.
  void Record(double wall, double compute, double service, int world);

 private:
  CounterHandle steps_, seconds_, compute_, service_, exposed_;
  HistogramHandle step_seconds_;
  GaugeHandle world_;
};

}  // namespace rcc::obs
