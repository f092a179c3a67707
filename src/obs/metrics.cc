#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <sstream>

namespace rcc::obs {
namespace {

// Values are doubles carrying seconds/bytes/counts; print with enough
// precision to round-trip but without scientific clutter for integers.
std::string FormatValue(double v) {
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::abs(v) < 1e15) {
    return std::to_string(static_cast<int64_t>(v));
  }
  std::ostringstream os;
  os.precision(9);
  os << v;
  return os.str();
}

std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

// Labels with one extra pair spliced in, kept sorted (for the `le`
// bucket label in the histogram exposition).
std::string LabelStringWith(const Labels& labels, const std::string& key,
                            const std::string& value) {
  Labels all = labels;
  all.emplace_back(key, value);
  std::sort(all.begin(), all.end());
  return LabelString(all);
}

std::string FormatBound(double b) {
  if (std::isinf(b)) return "+Inf";
  std::ostringstream os;
  os.precision(9);
  os << b;
  return os.str();
}

}  // namespace

std::string LabelString(const Labels& labels) {
  if (labels.empty()) return "";
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : sorted) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + EscapeLabelValue(v) + "\"";
  }
  out += "}";
  return out;
}

// --- Histogram ---

double Histogram::BucketBound(int i) {
  return kFirstBound * std::ldexp(1.0, i);  // kFirstBound * 2^i
}

int Histogram::BucketIndex(double v) {
  if (!(v > kFirstBound)) return 0;  // also catches NaN / negatives
  const int idx =
      static_cast<int>(std::ceil(std::log2(v / kFirstBound) - 1e-12));
  return std::min(idx, kBuckets - 1);
}

void Histogram::Observe(double v) {
  buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  detail::AtomicAdd(&sum_, v);
  const uint64_t prev = count_.fetch_add(1, std::memory_order_relaxed);
  if (prev == 0) {
    // First observation seeds min; racing observers fix it up below.
    double zero = 0.0;
    min_.compare_exchange_strong(zero, v, std::memory_order_relaxed);
  }
  detail::AtomicMin(&min_, v);
  detail::AtomicMax(&max_, v);
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  s.cumulative.reserve(kBuckets);
  uint64_t running = 0;
  for (int i = 0; i < kBuckets; ++i) {
    running += buckets_[i].load(std::memory_order_relaxed);
    const double bound = (i == kBuckets - 1)
                             ? std::numeric_limits<double>::infinity()
                             : BucketBound(i);
    s.cumulative.emplace_back(bound, running);
  }
  return s;
}

double Histogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count))));
  uint64_t below = 0;
  double lower = 0.0;
  for (const auto& [bound, cum] : cumulative) {
    if (cum >= target) {
      // Linear interpolation by rank within the containing bucket; the
      // +Inf bucket borrows the observed max as its finite upper edge.
      const double upper = std::isinf(bound) ? max : bound;
      const uint64_t in_bucket = cum - below;
      const double frac =
          in_bucket == 0
              ? 1.0
              : static_cast<double>(target - below) /
                    static_cast<double>(in_bucket);
      const double v = lower + frac * (upper - lower);
      // The true value lies in [min, max]; the bucket edges may not.
      return std::min(max, std::max(min, v));
    }
    below = cum;
    lower = bound;
  }
  return max;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

// --- Registry ---

Registry& Registry::Global() {
  static Registry* g = new Registry();  // leaked: instruments outlive exit
  return *g;
}

Registry::Instrument* Registry::GetOrCreate(const std::string& name,
                                            const Labels& labels,
                                            Instrument::Kind kind) {
  const std::string key = LabelString(labels);
  {
    std::shared_lock lock(mu_);
    auto fit = families_.find(name);
    if (fit != families_.end()) {
      auto iit = fit->second.instruments.find(key);
      if (iit != fit->second.instruments.end()) return iit->second.get();
    }
  }
  std::unique_lock lock(mu_);
  Family& fam = families_[name];
  fam.kind = kind;  // first registration decides; mixed kinds are a bug
  auto& slot = fam.instruments[key];
  if (!slot) {
    slot = std::make_unique<Instrument>();
    slot->kind = kind;
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    slot->labels = std::move(sorted);
    switch (kind) {
      case Instrument::Kind::kCounter:
        slot->counter = std::make_unique<Counter>();
        break;
      case Instrument::Kind::kGauge:
        slot->gauge = std::make_unique<Gauge>();
        break;
      case Instrument::Kind::kHistogram:
        slot->histogram = std::make_unique<Histogram>();
        break;
    }
  }
  return slot.get();
}

Counter* Registry::GetCounter(const std::string& name, const Labels& labels) {
  return GetOrCreate(name, labels, Instrument::Kind::kCounter)->counter.get();
}

Gauge* Registry::GetGauge(const std::string& name, const Labels& labels) {
  return GetOrCreate(name, labels, Instrument::Kind::kGauge)->gauge.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  const Labels& labels) {
  return GetOrCreate(name, labels, Instrument::Kind::kHistogram)
      ->histogram.get();
}

void Registry::SetHelp(const std::string& name, const std::string& help) {
  std::unique_lock lock(mu_);
  families_[name].help = help;
}

const Registry::Instrument* Registry::Find(const std::string& name,
                                           const Labels& labels) const {
  std::shared_lock lock(mu_);
  auto fit = families_.find(name);
  if (fit == families_.end()) return nullptr;
  auto iit = fit->second.instruments.find(LabelString(labels));
  if (iit == fit->second.instruments.end()) return nullptr;
  return iit->second.get();
}

double Registry::CounterValue(const std::string& name,
                              const Labels& labels) const {
  const Instrument* in = Find(name, labels);
  return in && in->counter ? in->counter->Value() : 0.0;
}

double Registry::GaugeValue(const std::string& name,
                            const Labels& labels) const {
  const Instrument* in = Find(name, labels);
  return in && in->gauge ? in->gauge->Value() : 0.0;
}

Histogram::Snapshot Registry::HistogramSnapshot(const std::string& name,
                                                const Labels& labels) const {
  const Instrument* in = Find(name, labels);
  return in && in->histogram ? in->histogram->TakeSnapshot()
                             : Histogram::Snapshot{};
}

std::string Registry::PrometheusText() const {
  std::shared_lock lock(mu_);
  std::ostringstream os;
  for (const auto& [name, fam] : families_) {
    if (!fam.help.empty()) os << "# HELP " << name << " " << fam.help << "\n";
    os << "# TYPE " << name << " ";
    switch (fam.kind) {
      case Instrument::Kind::kCounter:
        os << "counter\n";
        break;
      case Instrument::Kind::kGauge:
        os << "gauge\n";
        break;
      case Instrument::Kind::kHistogram:
        os << "histogram\n";
        break;
    }
    for (const auto& [key, in] : fam.instruments) {
      switch (in->kind) {
        case Instrument::Kind::kCounter:
          os << name << key << " " << FormatValue(in->counter->Value()) << "\n";
          break;
        case Instrument::Kind::kGauge:
          os << name << key << " " << FormatValue(in->gauge->Value()) << "\n";
          break;
        case Instrument::Kind::kHistogram: {
          const Histogram::Snapshot s = in->histogram->TakeSnapshot();
          // Elide empty interior buckets to keep the exposition small;
          // cumulative counts make the skipped ones recoverable.
          uint64_t prev = 0;
          for (const auto& [bound, cum] : s.cumulative) {
            if (cum == prev && !std::isinf(bound)) continue;
            os << name << "_bucket"
               << LabelStringWith(in->labels, "le", FormatBound(bound)) << " "
               << cum << "\n";
            prev = cum;
          }
          os << name << "_sum" << key << " " << FormatValue(s.sum) << "\n";
          os << name << "_count" << key << " " << s.count << "\n";
          // Summary-style quantile series estimated from the buckets
          // (rank-interpolated, clamped to the observed range) so SLO
          // dashboards get p50/p99/p999 without client-side bucket math.
          for (const double q : {0.5, 0.9, 0.99, 0.999}) {
            os << name
               << LabelStringWith(in->labels, "quantile", FormatBound(q))
               << " " << FormatValue(s.Quantile(q)) << "\n";
          }
          break;
        }
      }
    }
  }
  return os.str();
}

std::string Registry::CsvText() const {
  std::shared_lock lock(mu_);
  std::ostringstream os;
  os << "metric,labels,type,value,count,sum,mean,min,max,p50,p90,p99,p999\n";
  for (const auto& [name, fam] : families_) {
    for (const auto& [key, in] : fam.instruments) {
      // Labels cell is quoted: the canonical label string contains
      // commas and double quotes.
      std::string quoted = "\"";
      for (char c : key) {
        if (c == '"') quoted += "\"\"";
        else quoted.push_back(c);
      }
      quoted += "\"";
      switch (in->kind) {
        case Instrument::Kind::kCounter:
          os << name << "," << quoted << ",counter,"
             << FormatValue(in->counter->Value()) << ",,,,,,,,,\n";
          break;
        case Instrument::Kind::kGauge:
          os << name << "," << quoted << ",gauge,"
             << FormatValue(in->gauge->Value()) << ",,,,,,,,,\n";
          break;
        case Instrument::Kind::kHistogram: {
          const Histogram::Snapshot s = in->histogram->TakeSnapshot();
          os << name << "," << quoted << ",histogram,," << s.count << ","
             << FormatValue(s.sum) << "," << FormatValue(s.Mean()) << ","
             << FormatValue(s.min) << "," << FormatValue(s.max) << ","
             << FormatValue(s.Quantile(0.5)) << ","
             << FormatValue(s.Quantile(0.9)) << ","
             << FormatValue(s.Quantile(0.99)) << ","
             << FormatValue(s.Quantile(0.999)) << "\n";
          break;
        }
      }
    }
  }
  return os.str();
}

void Registry::ResetAll() {
  std::unique_lock lock(mu_);
  for (auto& [name, fam] : families_) {
    for (auto& [key, in] : fam.instruments) {
      switch (in->kind) {
        case Instrument::Kind::kCounter:
          in->counter->Reset();
          break;
        case Instrument::Kind::kGauge:
          in->gauge->Reset();
          break;
        case Instrument::Kind::kHistogram:
          in->histogram->Reset();
          break;
      }
    }
  }
}

// --- StepMetrics ---

StepMetrics::StepMetrics(const char* stack)
    : steps_("rcc_steps_total", {{"stack", stack}}),
      seconds_("rcc_step_seconds_total", {{"stack", stack}}),
      compute_("rcc_step_compute_seconds_total", {{"stack", stack}}),
      service_("rcc_step_comm_service_seconds_total", {{"stack", stack}}),
      exposed_("rcc_step_comm_exposed_seconds_total", {{"stack", stack}}),
      step_seconds_("rcc_step_seconds", {{"stack", stack}}),
      world_("rcc_world_size", {{"stack", stack}}) {}

void StepMetrics::Record(double wall, double compute, double service,
                         int world) {
  steps_->Increment();
  seconds_->Add(wall);
  compute_->Add(compute);
  service_->Add(service);
  exposed_->Add(wall > compute ? wall - compute : 0.0);
  step_seconds_->Observe(wall);
  world_->Set(static_cast<double>(world));
}

}  // namespace rcc::obs
