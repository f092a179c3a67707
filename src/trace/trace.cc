#include "trace/trace.h"

#include <algorithm>

namespace rcc::trace {

namespace flight = obs::flight;

void Recorder::Attach(const sim::Endpoint& ep) {
  const std::shared_ptr<flight::Logs>& logs = ep.fabric().shared_logs();
  std::lock_guard<std::mutex> lock(mu_);
  if (std::find(logs_.begin(), logs_.end(), logs) != logs_.end()) return;
  logs->KeepAll();
  logs_.push_back(logs);
}

template <class T, class Fn>
std::vector<T> Recorder::Collect(flight::Ev kind, Fn fn) const {
  std::vector<std::shared_ptr<flight::Logs>> logs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    logs = logs_;
  }
  std::vector<T> out;
  for (const auto& run : logs) {
    for (const flight::Ring* ring : run->rings()) {
      for (const flight::Event& e : ring->Snapshot()) {
        if (e.kind == kind) out.push_back(fn(ring->pid(), e));
      }
    }
  }
  return out;
}

std::vector<Event> Recorder::events() const {
  return Collect<Event>(flight::Ev::kSpan, [](int pid, const flight::Event& e) {
    return Event{pid, flight::NameOf(e.name), e.c, e.t};
  });
}

std::vector<Event> Recorder::EventsForPhase(const std::string& phase) const {
  std::vector<Event> out;
  for (Event& e : events()) {
    if (e.phase == phase) out.push_back(std::move(e));
  }
  return out;
}

std::vector<OpEvent> Recorder::op_events() const {
  return Collect<OpEvent>(flight::Ev::kOp, [](int pid, const flight::Event& e) {
    return OpEvent{pid, static_cast<uint64_t>(e.a), flight::NameOf(e.name),
                   static_cast<double>(e.b), e.c, e.t};
  });
}

std::vector<ReplayEvent> Recorder::replay_events() const {
  return Collect<ReplayEvent>(
      flight::Ev::kCollReplay, [](int pid, const flight::Event& e) {
        return ReplayEvent{pid, e.a, e.b};
      });
}

std::vector<CounterSample> Recorder::counter_samples() const {
  return Collect<CounterSample>(
      flight::Ev::kCounter, [](int pid, const flight::Event& e) {
        return CounterSample{pid, flight::NameOf(e.name), e.t, e.c};
      });
}

std::map<std::string, Recorder::PhaseAgg> Recorder::Aggregate() const {
  // Keyed by interned name while scanning: no string per span.
  std::map<uint32_t, PhaseAgg> by_name;
  for (const flight::Event& e : Collect<flight::Event>(
           flight::Ev::kSpan, [](int, const flight::Event& e) { return e; })) {
    const double d = e.t - e.c;
    PhaseAgg& agg = by_name[e.name];
    agg.max = agg.count == 0 ? d : std::max(agg.max, d);
    agg.min = agg.count == 0 ? d : std::min(agg.min, d);
    agg.sum += d;
    agg.count += 1;
    agg.latest_end = std::max(agg.latest_end, e.t);
  }
  std::map<std::string, PhaseAgg> out;
  for (const auto& [name, agg] : by_name) out[flight::NameOf(name)] = agg;
  return out;
}

template <class Fn>
std::map<std::string, double> Recorder::ByPhase(Fn fn) const {
  std::map<std::string, double> out;
  for (const auto& [phase, agg] : Aggregate()) out[phase] = fn(agg);
  return out;
}

std::map<std::string, double> Recorder::MaxByPhase() const {
  return ByPhase([](const PhaseAgg& a) { return a.max; });
}

std::map<std::string, double> Recorder::MeanByPhase() const {
  return ByPhase([](const PhaseAgg& a) { return a.sum / a.count; });
}

std::map<std::string, double> Recorder::MinByPhase() const {
  return ByPhase([](const PhaseAgg& a) { return a.min; });
}

double Recorder::PhaseEnd(const std::string& phase) const {
  const auto aggs = Aggregate();
  auto it = aggs.find(phase);
  return it == aggs.end() ? 0.0 : it->second.latest_end;
}

void Recorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  logs_.clear();
}

Table Recorder::ToTable() const {
  Table table({"phase", "max (s)", "mean (s)", "events"});
  for (const auto& [phase, agg] : Aggregate()) {
    table.AddRow({phase, FormatDouble(agg.max, 4),
                  FormatDouble(agg.sum / agg.count, 4),
                  std::to_string(agg.count)});
  }
  return table;
}

}  // namespace rcc::trace
