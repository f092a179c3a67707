// Metrics registry: counters, gauges, and log-bucketed histograms, all
// with label support.
//
// Design goals, in order:
//   1. One registry per simulation. sim::Fabric owns one (next to its
//      event logs), so every fact a run records, and every modeled input
//      read back from it (the adaptive policy's failure count and
//      recovery-phase maxima), belongs to that run alone. A simulation is
//      driven by one host thread, so a registry has one writer and its
//      instruments hold plain values: no locks, no atomics.
//   2. Cheap hot paths. Recording is a plain add or store. Looking an
//      instrument up sorts and serializes its labels and walks two maps,
//      so per-op and per-step paths never do it per event: they hold a
//      Handle (below), which resolves once and caches the pointer
//      (instruments are never deallocated while the registry lives).
//   3. One process-level export sink. When a simulation ends, its
//      fabric folds the registry into the sink once (counters add,
//      histograms merge, gauges take the last value). RCC_METRICS_OUT
//      (obs/export.h) writes the sink as Prometheus text plus CSV; no
//      modeled code reads it. The fold is the only write that crosses
//      simulations, so the sink keeps a mutex.
//
// Histograms are log-bucketed (powers of two over a seconds-oriented
// range): recovery spans stretch from microseconds (revoke) to tens of
// seconds (cold-start rendezvous), which a fixed linear layout cannot
// cover; the exponential layout gives ~3 significant bits everywhere at
// 64 buckets.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace rcc::obs {

// Sorted (key, value) pairs identifying one instrument of a family.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotonically increasing value (events, bytes, accumulated seconds).
class Counter {
 public:
  void Add(double v) { value_ += v; }
  void Increment() { Add(1.0); }
  double Value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Last-write-wins instantaneous value (world size, in-flight depth).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double v) { value_ += v; }
  double Value() const { return value_; }

 private:
  double value_ = 0.0;
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
  // Adds `other`'s observations to this histogram.
  void Merge(const Histogram& other);

  static double BucketBound(int i);  // upper bound of bucket i
  static int BucketIndex(double v);

 private:
  uint64_t buckets_[kBuckets] = {};
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Instrument registry: sim::Fabric owns one per simulation. Get*
// registers on first use and returns a pointer that stays valid for the
// registry's lifetime, so hot paths can cache it. Metric names should
// already be Prometheus-shaped (snake_case, unit-suffixed); the
// exporters only escape label values.
class Registry {
 public:
  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {});

  // Optional HELP text attached to a metric family.
  void SetHelp(const std::string& name, const std::string& help);
  // Whether any instrument or HELP text of family `name` exists.
  bool HasFamily(const std::string& name) const {
    return families_.count(name) != 0;
  }

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

  // Folds every instrument of `other` into this registry, registering
  // what is missing: counters add, histograms merge, gauges take
  // `other`'s value. HELP text carries over.
  void Merge(const Registry& other);

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

  std::map<std::string, Family> families_;
};

// The process-level export sink. Every sim::Fabric folds its registry in
// once, when it is destroyed; the sink is read only by the exporters
// (obs/export.h). Safe from any thread: simulations on different host
// threads may end at once.
void FoldIntoExportSink(const Registry& finished);
// A copy of everything folded so far.
Registry ExportSinkSnapshot();

// Serializes labels canonically ("{a=\"x\",b=\"y\"}", empty string for
// no labels); shared by the registry key and the Prometheus exporter.
std::string LabelString(const Labels& labels);

// One instrument (family name + labels) of one registry, resolved on
// first use and then cached. The first Get() pays the registry lookup
// (label sort, label string, two map finds); every later one is a
// pointer load. Registration stays exactly as lazy as a direct Get*
// call, so a series appears in the exposition only once something was
// recorded into it. Hot paths keep their handles with the object that
// owns the work (a communicator, driver or trainer, which reaches its
// simulation's registry through its endpoint) instead of looking an
// instrument up per event. Copies share the resolved instrument. `name`
// must have static storage (a string literal).
template <class T>
class Handle {
 public:
  Handle(Registry& registry, const char* name, Labels labels = {})
      : registry_(&registry), name_(name), labels_(std::move(labels)) {}

  T* Get() const {
    if (ptr_ == nullptr) {
      if constexpr (std::is_same_v<T, Counter>) {
        ptr_ = registry_->GetCounter(name_, labels_);
      } else if constexpr (std::is_same_v<T, Gauge>) {
        ptr_ = registry_->GetGauge(name_, labels_);
      } else {
        ptr_ = registry_->GetHistogram(name_, labels_);
      }
    }
    return ptr_;
  }
  T* operator->() const { return Get(); }

 private:
  Registry* registry_;
  const char* name_;
  Labels labels_;
  mutable T* ptr_ = nullptr;
};

using CounterHandle = Handle<Counter>;
using GaugeHandle = Handle<Gauge>;
using HistogramHandle = Handle<Histogram>;

// Instrument sets keyed by a collective's algo name, for owners that
// record one series per kernel. Algo names are static strings, so the
// lookup is a short scan comparing addresses; a name met at a second
// address gets a second entry resolving to the same instruments.
// For(algo, args...) builds Entry(algo, args...) on first use.
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
  StepMetrics(Registry& registry, const char* stack);
  // Exposed comm is the wall time not covered by compute.
  void Record(double wall, double compute, double service, int world);

 private:
  CounterHandle steps_, seconds_, compute_, service_, exposed_;
  HistogramHandle step_seconds_;
  GaugeHandle world_;
};

}  // namespace rcc::obs
