#include "chaos/oracle.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "policy/policy.h"

namespace rcc::chaos {

namespace {

// P6 and P7 over the run's event log, shared by every campaign shape
// (they all recover through the same resilient substrate).
//   P6: every replayed op is at or above the MIN its repair agreed on.
//   P7: the registry counters, the repair spans and the worker reports
//       cohere. Every Repair() increments the counter once and records
//       >= 1 span (extra spans come from gpu-rebuild retry rounds), and
//       every replayed-op increment has its replay event.
void CheckRecoveryAudit(const CampaignOutcome& o, int max_worker_repairs,
                        std::vector<Violation>* out) {
  auto violate = [out](const char* oracle, const std::string& detail) {
    out->push_back(Violation{oracle, detail});
  };
  for (const trace::ReplayEvent& e : o.replay_events) {
    if (e.op_id < e.min_id) {
      std::ostringstream os;
      os << "pid " << e.pid << " replayed op " << e.op_id
         << " below agreed MIN " << e.min_id;
      violate("P6", os.str());
    }
  }
  std::ostringstream os;
  os << "repairs counter " << o.repairs_metric << ", repair spans "
     << o.repair_span_count << ", max worker repairs " << max_worker_repairs
     << ", replayed counter " << o.replayed_metric << ", replay events "
     << o.replay_events.size();
  const std::string ctx = os.str();
  if (o.repair_span_count < static_cast<int>(o.repairs_metric)) {
    violate("P7", "spans fewer than repair increments (" + ctx + ")");
  }
  if (static_cast<int>(o.repairs_metric) < max_worker_repairs) {
    violate("P7", "counter below a worker's repair count (" + ctx + ")");
  }
  if ((o.repairs_metric > 0) != (o.repair_span_count > 0)) {
    violate("P7", "repairs counter and spans disagree on >0 (" + ctx + ")");
  }
  if (static_cast<size_t>(o.replayed_metric) != o.replay_events.size()) {
    violate("P7", "replayed counter != replay events (" + ctx + ")");
  }
}

// P9, decision-oracle soundness over every finisher's decision log
// (`logs` pairs a pid with its log), shared by the trainer and the
// pipeline campaigns. Every logged decision must (a) re-derive
// bitwise-identically from its own inputs - the controller is a pure
// function of what it observed, (b) choose a strategy whose modeled cost
// is within tolerance of the best applicable alternative under the
// adaptive mode, and (c) agree byte-for-byte across every member that
// took part in the same decision seq.
void CheckDecisionAudit(
    policy::Mode mode,
    const std::vector<std::pair<int, const std::vector<policy::Decision>*>>&
        logs,
    std::vector<Violation>* out) {
  auto violate = [out](const char* oracle, const std::string& detail) {
    out->push_back(Violation{oracle, detail});
  };
  std::map<int64_t, std::pair<int, std::string>> canon;  // seq -> pid,fmt
  for (const auto& [pid, decisions] : logs) {
    for (const policy::Decision& d : *decisions) {
      const policy::Decision rd = policy::Decide(mode, d.in);
      if (rd.chosen != d.chosen ||
          std::memcmp(rd.cost, d.cost, sizeof(rd.cost)) != 0) {
        std::ostringstream os;
        os << "pid " << pid << " decision seq " << d.in.seq
           << " does not re-derive from its inputs (logged "
           << policy::StrategyName(d.chosen) << ", re-derived "
           << policy::StrategyName(rd.chosen) << ")";
        violate("P9", os.str());
        continue;
      }
      double best = -1.0;
      for (int si = 0; si < policy::kStrategyCount; ++si) {
        const auto s = static_cast<policy::Strategy>(si);
        if (!policy::Applicable(s, d.in)) continue;
        if (best < 0 || d.cost[si] < best) best = d.cost[si];
      }
      const double chosen_cost = d.cost[static_cast<int>(d.chosen)];
      const double tol = 1e-9 + 1e-9 * (best < 0 ? 0.0 : best);
      if (mode == policy::Mode::kAdaptive && best >= 0 &&
          chosen_cost > best + tol) {
        std::ostringstream os;
        os << "pid " << pid << " decision seq " << d.in.seq << " chose "
           << policy::StrategyName(d.chosen) << " at cost " << chosen_cost
           << " but best applicable alternative costs " << best;
        violate("P9", os.str());
      }
      const std::string fmt = policy::FormatDecision(d);
      auto [it, inserted] = canon.emplace(d.in.seq, std::make_pair(pid, fmt));
      if (!inserted && it->second.second != fmt) {
        std::ostringstream os;
        os << "decision seq " << d.in.seq << " differs between pid "
           << it->second.first << " and pid " << pid;
        violate("P9", os.str());
      }
    }
  }
}

// Serving-campaign oracles. P0/P3/P6/P7 keep their trainer meanings;
// P8 is the serving plane's core guarantee: across every repair,
// splice, and voluntary shrink, no admitted request is lost or
// double-completed — all finishers hold the identical completion log
// covering exactly the generated request ids, and the replicated-state
// digests agree bit for bit.
void CheckServingOracles(const Schedule& schedule, const CampaignOutcome& o,
                         std::vector<Violation>* out) {
  const Shape& sh = schedule.shape;
  auto violate = [out](const char* oracle, const std::string& detail) {
    out->push_back(Violation{oracle, detail});
  };

  const int expected_workers = sh.world + sh.serve_standbys;
  if (static_cast<int>(o.results.size()) != expected_workers) {
    std::ostringstream os;
    os << "got " << o.results.size() << " worker results, expected "
       << expected_workers;
    violate("P0", os.str());
  }

  const WorkerResult* ref = nullptr;  // a founder that drained the stream
  int finishers = 0;
  int max_worker_repairs = 0;
  for (const WorkerResult& r : o.results) {
    max_worker_repairs = std::max(max_worker_repairs, r.serve.repairs);
    if (r.serve.aborted || r.serve.left || r.serve.idle_standby) continue;
    ++finishers;
    if (ref == nullptr && r.join_epoch < 0) ref = &r;
  }
  if (ref == nullptr) {
    violate("P0", "no founder drained the request stream (all aborted)");
    return;
  }

  const int requests = sh.serve_requests;
  for (const WorkerResult& r : o.results) {
    if (r.serve.aborted || r.serve.left || r.serve.idle_standby) continue;
    const bool joiner = r.join_epoch >= 0;

    // P3: one shared view of the final membership.
    if (r.serve.final_world != ref->serve.final_world) {
      std::ostringstream os;
      os << "pid " << r.pid << " final_world " << r.serve.final_world
         << " != pid " << ref->pid << "'s " << ref->serve.final_world;
      violate("P3", os.str());
    }

    // P8: exactly-once completion of every admitted request, identical
    // on every finisher (joiners included — their post-splice state sync
    // must hand them the full log).
    if (r.serve.completed != requests) {
      std::ostringstream os;
      os << "pid " << r.pid << (joiner ? " (joiner)" : "") << " completed "
         << r.serve.completed << " of " << requests << " requests";
      violate("P8", os.str());
    }
    std::map<int, int> seen;
    for (const serve::Completion& c : r.serve.completions) ++seen[c.id];
    for (int id = 0; id < requests; ++id) {
      const auto it = seen.find(id);
      const int n = it == seen.end() ? 0 : it->second;
      if (n != 1) {
        std::ostringstream os;
        os << "pid " << r.pid << " completed request " << id << " " << n
           << " times";
        violate("P8", os.str());
        break;  // one divergent log, one violation
      }
    }
    if (&r != ref) {
      if (r.serve.digest != ref->serve.digest) {
        std::ostringstream os;
        os << "pid " << r.pid << " digest " << r.serve.digest << " != pid "
           << ref->pid << "'s " << ref->serve.digest;
        violate("P8", os.str());
      } else if (r.serve.completions.size() != ref->serve.completions.size()) {
        std::ostringstream os;
        os << "pid " << r.pid << " has " << r.serve.completions.size()
           << " completions, pid " << ref->pid << " has "
           << ref->serve.completions.size();
        violate("P8", os.str());
      } else {
        for (size_t i = 0; i < r.serve.completions.size(); ++i) {
          if (!(r.serve.completions[i] == ref->serve.completions[i])) {
            std::ostringstream os;
            os << "pid " << r.pid << " completion " << i
               << " (request " << r.serve.completions[i].id
               << ") differs from pid " << ref->pid << "'s";
            violate("P8", os.str());
            break;
          }
        }
      }
    }
  }

  CheckRecoveryAudit(o, max_worker_repairs, out);
}

// Pipeline-campaign oracles. P0/P3/P6/P7 keep their meanings and P9
// still audits the recovery decisions; P10 is the hybrid-parallel core
// guarantee: across every re-route, shrink, and restore, no microbatch
// of any committed step is lost or double-applied in any process group
// — every finisher holds the identical commit ledger, every committed
// (stage, microbatch) names a live owner replica, and each rank's
// executed set is exactly what the agreed mapping assigned to the slot
// it held at commit time.
void CheckPipelineOracles(const Schedule& schedule, const CampaignOutcome& o,
                          std::vector<Violation>* out) {
  const Shape& sh = schedule.shape;
  auto violate = [out](const char* oracle, const std::string& detail) {
    out->push_back(Violation{oracle, detail});
  };
  const int pp = sh.pp_stages > 0 ? sh.pp_stages : 2;
  const int tp = sh.tp_size > 0 ? sh.tp_size : 1;
  const int microbatches = sh.pp_microbatches > 0 ? sh.pp_microbatches : 8;
  const int planned_steps = sh.epochs * sh.steps_per_epoch;

  if (static_cast<int>(o.results.size()) != sh.world) {
    std::ostringstream os;
    os << "got " << o.results.size() << " worker results, expected "
       << sh.world;
    violate("P0", os.str());
  }

  const WorkerResult* ref = nullptr;
  int finishers = 0;
  int max_worker_repairs = 0;
  for (const WorkerResult& r : o.results) {
    if (r.pipe.aborted) continue;
    ++finishers;
    max_worker_repairs = std::max(max_worker_repairs, r.pipe.repairs);
    if (ref == nullptr) ref = &r;
  }
  if (ref == nullptr) {
    violate("P0", "no worker finished the pipeline run (all aborted)");
    return;
  }

  const std::string ref_log = core::FormatCommitLog(ref->pipe.commits);
  for (const WorkerResult& r : o.results) {
    if (r.pipe.aborted) continue;

    // P3: one shared view of the final membership.
    if (r.pipe.final_world != ref->pipe.final_world) {
      std::ostringstream os;
      os << "pid " << r.pid << " final_world " << r.pipe.final_world
         << " != pid " << ref->pid << "'s " << ref->pipe.final_world;
      violate("P3", os.str());
    }

    // P1: exactly-once steps with explicit rollback accounting — every
    // commit event beyond the plan must be a restore re-execution.
    if (r.pipe.steps_run != planned_steps + r.pipe.rollback_steps) {
      std::ostringstream os;
      os << "pid " << r.pid << " observed " << r.pipe.steps_run
         << " commits, planned " << planned_steps << " + rollback "
         << r.pipe.rollback_steps;
      violate("P1", os.str());
    }

    // P10(a): every finisher holds the identical commit ledger covering
    // each planned step exactly once.
    if (static_cast<int>(r.pipe.commits.size()) != planned_steps) {
      std::ostringstream os;
      os << "pid " << r.pid << " ledger holds " << r.pipe.commits.size()
         << " commits, planned " << planned_steps;
      violate("P10", os.str());
      continue;
    }
    if (core::FormatCommitLog(r.pipe.commits) != ref_log) {
      std::ostringstream os;
      os << "pid " << r.pid << " commit ledger differs from pid " << ref->pid
         << "'s";
      violate("P10", os.str());
      continue;
    }

    // P10(b): no microbatch lost, and this rank executed exactly the
    // microbatches the agreed mapping assigned to the slot it held.
    std::set<std::tuple<int64_t, int, int>> expect;
    bool ledger_ok = true;
    for (const core::StepCommit& c : r.pipe.commits) {
      const int slots = static_cast<int>(c.slot_pids.size());
      if (slots % (pp * tp) != 0 ||
          static_cast<int>(c.owner.size()) != pp * microbatches) {
        std::ostringstream os;
        os << "pid " << r.pid << " commit g" << c.gstep
           << " has malformed mapping (" << slots << " slots, "
           << c.owner.size() << " owners)";
        violate("P10", os.str());
        ledger_ok = false;
        break;
      }
      for (int p = 0; p < pp && ledger_ok; ++p) {
        for (int m = 0; m < microbatches; ++m) {
          if (c.owner[p * microbatches + m] < 0) {
            std::ostringstream os;
            os << "commit g" << c.gstep << " lost microbatch m" << m
               << " of stage " << p << " (no owner replica)";
            violate("P10", os.str());
            ledger_ok = false;
            break;
          }
        }
      }
      if (!ledger_ok) break;
      int my_slot = -1;
      for (int i = 0; i < slots; ++i) {
        if (c.slot_pids[i] == r.pid) my_slot = i;
      }
      if (my_slot < 0) continue;  // spare (or unslotted) at this commit
      const int d = my_slot / (pp * tp);
      const int p = (my_slot / tp) % pp;
      for (int m = 0; m < microbatches; ++m) {
        if (c.owner[p * microbatches + m] == d) {
          expect.emplace(c.gstep, p, m);
        }
      }
    }
    if (!ledger_ok) continue;
    std::set<std::tuple<int64_t, int, int>> got;
    bool dup = false;
    for (const core::ExecRecord& e : r.pipe.execs) {
      if (!got.emplace(e.gstep, e.stage, e.mb).second && !dup) {
        std::ostringstream os;
        os << "pid " << r.pid << " double-applied g" << e.gstep << " p"
           << e.stage << " m" << e.mb;
        violate("P10", os.str());
        dup = true;
      }
    }
    if (got != expect) {
      std::ostringstream os;
      os << "pid " << r.pid << " executed " << got.size()
         << " microbatches, the agreed mapping assigned " << expect.size();
      for (const auto& e : expect) {
        if (got.count(e) == 0) {
          os << "; lost g" << std::get<0>(e) << " p" << std::get<1>(e)
             << " m" << std::get<2>(e);
          break;
        }
      }
      for (const auto& e : got) {
        if (expect.count(e) == 0) {
          os << "; unassigned g" << std::get<0>(e) << " p" << std::get<1>(e)
             << " m" << std::get<2>(e);
          break;
        }
      }
      violate("P10", os.str());
    }
  }

  // P3 bounds: survivors only — pipeline campaigns admit nobody.
  if (ref->pipe.final_world < finishers || ref->pipe.final_world > sh.world) {
    std::ostringstream os;
    os << "final_world " << ref->pipe.final_world << " outside ["
       << finishers << ", " << sh.world << "]";
    violate("P3", os.str());
  }

  CheckRecoveryAudit(o, max_worker_repairs, out);

  // P9 over the pipeline recovery decisions (same contract as the
  // trainer path).
  policy::Mode mode = policy::Mode::kAdaptive;
  if (!sh.policy_mode.empty()) policy::ModeFromName(sh.policy_mode, &mode);
  if (mode == policy::Mode::kLegacy) mode = policy::Mode::kAdaptive;
  std::vector<std::pair<int, const std::vector<policy::Decision>*>> logs;
  for (const WorkerResult& r : o.results) {
    if (!r.pipe.aborted) logs.emplace_back(r.pid, &r.pipe.decisions);
  }
  CheckDecisionAudit(mode, logs, out);
}

}  // namespace

bool HasViolation(const std::vector<Violation>& violations,
                  const std::string& oracle) {
  for (const Violation& v : violations) {
    if (oracle.empty() || v.oracle == oracle) return true;
  }
  return false;
}

std::string FormatViolations(const std::vector<Violation>& violations) {
  std::ostringstream os;
  for (const Violation& v : violations) {
    os << v.oracle << ": " << v.detail << "\n";
  }
  return os.str();
}

std::vector<Violation> CheckOracles(const Schedule& schedule,
                                    const CampaignOutcome& o) {
  std::vector<Violation> out;
  const Shape& sh = schedule.shape;
  auto violate = [&out](const char* oracle, const std::string& detail) {
    out.push_back(Violation{oracle, detail});
  };

  if (sh.serving) {
    CheckServingOracles(schedule, o, &out);
    return out;
  }
  if (sh.pipeline) {
    CheckPipelineOracles(schedule, o, &out);
    return out;
  }

  // Policy campaigns add the provisioned replacement pool to the
  // expected worker count; replacements whose slot was never consumed
  // finish idle and are skipped like aborted workers below.
  int expected_workers = sh.world + sh.replacements;
  for (const auto& [epoch, count] : sh.joins) expected_workers += count;
  if (static_cast<int>(o.results.size()) != expected_workers) {
    std::ostringstream os;
    os << "got " << o.results.size() << " worker results, expected "
       << expected_workers;
    violate("P0", os.str());
  }

  const WorkerResult* ref = nullptr;  // P2 reference replica (a founder)
  int finishers = 0;
  int max_worker_repairs = 0;
  for (const WorkerResult& r : o.results) {
    if (r.report.aborted || r.idle_replacement) continue;
    ++finishers;
    max_worker_repairs = std::max(max_worker_repairs, r.report.repairs);
    if (ref == nullptr && r.join_epoch < 0) ref = &r;
  }
  if (ref == nullptr) {
    violate("P0", "no founder finished (all aborted)");
    return out;  // nothing to compare against
  }

  for (const WorkerResult& r : o.results) {
    if (r.report.aborted || r.idle_replacement) continue;
    const bool joiner = r.join_epoch >= 0;

    // P1: exactly-once optimizer steps, planned from the cursor the
    // worker actually started at. Blocking joiners start at
    // {join_epoch, 0}; async joiners at the (possibly mid-epoch) step
    // boundary their splice landed on. Restore decisions re-execute the
    // rolled-back steps, which the report accounts explicitly — the
    // guarantee stays exact, not approximate.
    const int planned =
        sh.epochs * sh.steps_per_epoch -
        (r.start_epoch * sh.steps_per_epoch + r.start_step) +
        r.report.rollback_steps;
    if (r.report.steps_run != planned) {
      std::ostringstream os;
      os << "pid " << r.pid << (joiner ? " (joiner)" : "") << " ran "
         << r.report.steps_run << " steps, planned " << planned;
      violate("P1", os.str());
    }

    // P3: one shared view of the final membership.
    if (r.report.final_world != ref->report.final_world) {
      std::ostringstream os;
      os << "pid " << r.pid << " final_world " << r.report.final_world
         << " != pid " << ref->pid << "'s " << ref->report.final_world;
      violate("P3", os.str());
    }

    // P4: founders that finish still improved. 5% slack: a schedule can
    // shrink the membership hard enough that the last gradient is
    // noisier than the first.
    if (!joiner && !(r.report.last_loss < r.report.first_loss * 1.05f)) {
      std::ostringstream os;
      os << "pid " << r.pid << " loss " << r.report.first_loss << " -> "
         << r.report.last_loss;
      violate("P4", os.str());
    }

    // P2/P5: bit-identical replicas.
    if (&r != ref) {
      const char* oracle = joiner ? "P5" : "P2";
      if (r.report.final_params.size() != ref->report.final_params.size()) {
        std::ostringstream os;
        os << "pid " << r.pid << " has " << r.report.final_params.size()
           << " params, pid " << ref->pid << " has "
           << ref->report.final_params.size();
        violate(oracle, os.str());
      } else {
        for (size_t i = 0; i < r.report.final_params.size(); ++i) {
          if (r.report.final_params[i] != ref->report.final_params[i]) {
            std::ostringstream os;
            os << "pid " << r.pid << " param " << i << " = "
               << r.report.final_params[i] << " != pid " << ref->pid
               << "'s " << ref->report.final_params[i];
            violate(oracle, os.str());
            break;  // one divergent replica, one violation
          }
        }
      }
    }
  }

  // P3 bounds: membership can exceed the finisher count only by workers
  // that died after their last collective, and never the admitted total.
  if (ref->report.final_world < finishers ||
      ref->report.final_world > expected_workers) {
    std::ostringstream os;
    os << "final_world " << ref->report.final_world << " outside ["
       << finishers << ", " << expected_workers << "]";
    violate("P3", os.str());
  }

  CheckRecoveryAudit(o, max_worker_repairs, &out);

  // P9 (policy campaigns only) over every finisher's decision log.
  if (!sh.policy_mode.empty()) {
    policy::Mode mode = policy::Mode::kAdaptive;
    policy::ModeFromName(sh.policy_mode, &mode);
    std::vector<std::pair<int, const std::vector<policy::Decision>*>> logs;
    for (const WorkerResult& r : o.results) {
      if (r.report.aborted || r.idle_replacement) continue;
      logs.emplace_back(r.pid, &r.report.decisions);
    }
    CheckDecisionAudit(mode, logs, &out);
  }

  return out;
}

}  // namespace rcc::chaos
