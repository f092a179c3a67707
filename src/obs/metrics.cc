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
  ++buckets_[BucketIndex(v)];
  sum_ += v;
  // The first observation seeds min; max starts from 0.
  if (count_++ == 0 || v < min_) min_ = v;
  if (v > max_) max_ = v;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  sum_ += other.sum_;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot s;
  s.count = count_;
  s.sum = sum_;
  s.min = min_;
  s.max = max_;
  s.cumulative.reserve(kBuckets);
  uint64_t running = 0;
  for (int i = 0; i < kBuckets; ++i) {
    running += buckets_[i];
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

// --- Registry ---

Registry::Instrument* Registry::GetOrCreate(const std::string& name,
                                            const Labels& labels,
                                            Instrument::Kind kind) {
  const std::string key = LabelString(labels);
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
  families_[name].help = help;
}

const Registry::Instrument* Registry::Find(const std::string& name,
                                           const Labels& labels) const {
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

void Registry::Merge(const Registry& other) {
  for (const auto& [name, fam] : other.families_) {
    if (!fam.help.empty()) SetHelp(name, fam.help);
    for (const auto& [key, in] : fam.instruments) {
      Instrument* mine = GetOrCreate(name, in->labels, in->kind);
      switch (in->kind) {
        case Instrument::Kind::kCounter:
          mine->counter->Add(in->counter->Value());
          break;
        case Instrument::Kind::kGauge:
          mine->gauge->Set(in->gauge->Value());
          break;
        case Instrument::Kind::kHistogram:
          mine->histogram->Merge(*in->histogram);
          break;
      }
    }
  }
}

// --- Export sink ---

namespace {

struct ExportSink {
  std::mutex mu;
  Registry registry;
};

ExportSink& Sink() {
  static ExportSink* sink = new ExportSink();  // leaked: read at exit
  return *sink;
}

}  // namespace

void FoldIntoExportSink(const Registry& finished) {
  ExportSink& sink = Sink();
  std::lock_guard<std::mutex> lock(sink.mu);
  sink.registry.Merge(finished);
}

Registry ExportSinkSnapshot() {
  ExportSink& sink = Sink();
  std::lock_guard<std::mutex> lock(sink.mu);
  Registry copy;
  copy.Merge(sink.registry);
  return copy;
}

// --- StepMetrics ---

StepMetrics::StepMetrics(Registry& reg, const char* stack)
    : steps_(reg, "rcc_steps_total", {{"stack", stack}}),
      seconds_(reg, "rcc_step_seconds_total", {{"stack", stack}}),
      compute_(reg, "rcc_step_compute_seconds_total", {{"stack", stack}}),
      service_(reg, "rcc_step_comm_service_seconds_total", {{"stack", stack}}),
      exposed_(reg, "rcc_step_comm_exposed_seconds_total", {{"stack", stack}}),
      step_seconds_(reg, "rcc_step_seconds", {{"stack", stack}}),
      world_(reg, "rcc_world_size", {{"stack", stack}}) {}

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
