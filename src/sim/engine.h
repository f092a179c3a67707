// Rank-execution engine: the discrete-event scheduler every simulated
// rank runs on. Tasks are cooperative stackful fibers, switched by a
// register-only x86-64 routine (no syscall per switch), driven by a run
// queue ordered by (virtual time, pid, sequence). No OS threads are
// created: the external caller's thread pumps the scheduler inside
// blocking calls (Cluster::Join, TaskHandle::Join). A fiber that parks,
// yields or finishes pops the run queue itself and switches straight into
// the next runnable fiber, one stack switch per handoff; the caller's
// thread runs again only when the task it joined has finished or the
// queue has drained. 10k+ ranks fit in one process, and the whole
// simulation is single-threaded, hence deterministic. Finished tasks
// leave the engine's task table, so a long run holds only its live
// fibers.
//
// One simulation is owned by one host thread: the first thread that
// pumps an engine owns it, and pumping or spawning from any other thread
// is a fatal check. Nothing in an engine, its fabric or the per-
// simulation state built on them (KV store, collective requests, ULFM
// rendezvous states) takes a lock: a fiber runs until it parks, so no
// two pieces of simulation code ever run at once. Independent
// simulations may run on different host threads.
//
// Every blocking point in the simulator (fabric receives, KV waits, ULFM
// agreement states, request chaining) parks on a WaitPoint. Timed waits
// (WaitFor) have no real-clock meaning; they map onto *quiescence*: when
// the run queue drains and nothing can make progress, timeout-parked
// fibers are woken with a timeout verdict. That is the deterministic
// image of "the grace period passed and nobody spoke": it fires exactly
// when the drain the grace was waiting for has provably finished. The
// timeout values form a *quiescence ladder*: at each quiescence the
// scheduler expires only the waiters parked with the smallest
// not-yet-expired timeout value (a 0s death-watch grace before a 200us
// protocol poll before a 2ms kv poll), and any progress restarts the
// ladder from the bottom. A drained queue with the ladder exhausted is a
// stall: a proven deadlock.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "sim/params.h"

namespace rcc::sim {

class Engine;
struct FiberTask;

// Process-wide handler invoked when the scheduler proves a stall (run
// queue drained, quiescence ladder exhausted, tasks still parked) right
// before the fatal check aborts. CLI smokes install one to exit with a
// distinct status code instead of a generic abort; pass nullptr to
// clear.
void SetStallHandler(std::function<void(const std::string& report)> handler);

// Fiber stacks the calling host thread has mapped so far. A stack
// outlives its task and its engine: every engine draws from, and
// returns to, a per-thread cache, so a thread that runs simulations one
// after another maps only as many stacks as its largest one needs.
uint64_t FiberStacksMapped();

// Stack switches the calling host thread has made so far: one per
// handoff between fibers, or between a fiber and the thread's own stack.
uint64_t FiberSwitches();

// Cooperative yield for busy-wait loops (spinning on a flag another rank
// sets). The calling fiber re-queues itself *behind* every runnable peer
// at the same virtual time (deterministically: yields sort after normal
// entries, then by yield sequence) so the peer being spun on can
// actually run. Calling it off a fiber is a fatal check. Code that can
// park on a WaitPoint should do that instead.
void YieldTask();

struct TaskOptions {
  // Deterministic tie-break key for the run queue (the simulated rank's
  // pid; collective-op tasks use the submitting rank's pid).
  int pid = 0;
  // The task's virtual clock, read by the scheduler while the task is
  // runnable-but-not-running to order the run queue. May be null (treated
  // as virtual time 0).
  const Seconds* clock = nullptr;
};

// A joinable handle onto one engine task. Copyable (shared); Join is
// idempotent. Join pumps the scheduler when called off a fiber (by the
// engine's owner thread) and parks when called from another fiber.
class TaskHandle {
 public:
  TaskHandle() = default;

  bool joinable() const { return task_ != nullptr; }
  void Join();

 private:
  friend class Engine;
  explicit TaskHandle(std::shared_ptr<FiberTask> task)
      : task_(std::move(task)) {}
  std::shared_ptr<FiberTask> task_;
};

// A parkable wait primitive for fibers. Callers loop on their
// predicate:
//
//   while (!pred()) wp.Wait();
//
// The calling fiber parks on its engine; NotifyAll unparks it back onto
// the run queue at its virtual clock. Nothing else runs between the
// predicate check and the park, so no lock guards the predicate. Waiting
// off a fiber is a fatal check: only fibers of a pumped engine can ever
// be woken. Spurious wakeups are allowed; callers must re-check their
// predicate.
class WaitPoint {
 public:
  WaitPoint();
  ~WaitPoint();
  WaitPoint(const WaitPoint&) = delete;
  WaitPoint& operator=(const WaitPoint&) = delete;

  void Wait();

  // Returns false when the wait "timed out": a quiescence wake at the
  // ladder rung `timeout_seconds` (see file comment). Returns true when
  // notified (or on a spurious wake).
  bool WaitFor(double timeout_seconds);

  // Wakes every parked fiber, in the order they parked.
  void NotifyAll();

 private:
  struct FiberWaiter {
    std::shared_ptr<FiberTask> task;  // keeps stale entries safe to filter
    uint64_t park_epoch;
  };

  // Parks the calling fiber; see WaitFor for the return value.
  bool Park(bool timeout_park, double timeout_seconds);

  // The waiters in park order: the first inline (most points never hold
  // more than one), the rest in a vector.
  FiberWaiter first_{nullptr, 0};
  std::vector<FiberWaiter> more_;
};

// The fiber scheduler. A Fabric owns one; every task of that simulation
// runs on it.
class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Starts a task: it is queued at *opts.clock and runs when the
  // scheduler reaches it. Callable only on the owner thread (see file
  // comment), from a fiber or not.
  TaskHandle Spawn(TaskOptions opts, std::function<void()> fn);

  // Wakes every fiber parked with a timeout (WaitFor) so it re-checks its
  // predicate. Used by Fabric::Kill: a death must interrupt poll loops
  // (KV waiters on a key that will now never be written) even while
  // other fibers still have work.
  void WakeAllTimeoutParked();

  // Stall hook of this engine, invoked just before the stall handler
  // (and before the fatal check when no handler is installed). Unlike
  // SetStallHandler — which tools own to pick an exit path — the
  // observer is passive instrumentation: the owning Fabric dumps its
  // ranks' event logs so a proven deadlock always leaves forensics
  // behind, whatever the handler then does.
  void SetStallObserver(std::function<void(const std::string& report)> fn) {
    stall_observer_ = std::move(fn);
  }

 private:
  friend class TaskHandle;
  friend class WaitPoint;
  friend struct FiberTask;
  friend void YieldTask();

  struct RunEntry {
    Seconds t;
    int pid;
    uint64_t seq;
    FiberTask* task;
    bool operator>(const RunEntry& o) const {
      if (t != o.t) return t > o.t;
      if (pid != o.pid) return pid > o.pid;
      return seq > o.seq;
    }
  };

  // One execution context: a fiber's stack, or the pumping thread's own.
  struct Context {
    void* sp = nullptr;  // saved stack pointer while switched out
    // Used only under ThreadSanitizer (the fiber) and AddressSanitizer
    // (the fake stack and the stack's extent).
    void* tsan_fiber = nullptr;
    void* asan_fake_stack = nullptr;
    const void* stack_bottom = nullptr;
    size_t stack_size = 0;
  };

  bool ParkCurrent(bool timeout_park, double timeout_seconds);
  void YieldCurrent();
  void Unpark(FiberTask* t, uint64_t park_epoch);
  void JoinTask(FiberTask* t);
  void CheckOwnerThread(const char* what) const;

  void Push(FiberTask* t);
  void PushYielded(FiberTask* t);
  void Progress();
  void ReclaimDone();
  static void FiberMain(FiberTask* t);
  // Pops the next runnable task; null when the queue is drained.
  FiberTask* PopRunnable();
  void HandOff(FiberTask* t);
  void SwitchTo(Context* from, FiberTask* next, bool from_finished);
  void Resumed(Context* self);
  void RunScheduler(const FiberTask& joined);
  std::string StallReport(const char* where);

  // Live tasks in id order, plus finished ones not yet compacted away
  // (at most as many as live ones; see ReclaimDone).
  std::vector<std::shared_ptr<FiberTask>> tasks_;
  size_t done_in_table_ = 0;  // finished tasks still in tasks_
  uint64_t reclaimed_ = 0;    // finished tasks dropped from tasks_
  std::priority_queue<RunEntry, std::vector<RunEntry>, std::greater<RunEntry>>
      queue_;
  uint64_t next_seq_ = 0;
  uint64_t next_task_id_ = 0;
  bool quiesce_armed_ = false;
  double quiesce_level_ = -1.0;  // largest timeout rung expired this round

  std::thread::id owner_;  // the first thread that pumped; unset before
  bool pumping_ = false;   // RunScheduler is on the stack
  Context sched_;          // the pumping thread's stack
  const FiberTask* joined_ = nullptr;  // the task RunScheduler waits for
  // A finished fiber that switched away but still holds its stack and
  // task-table slot: whichever context resumes next releases them.
  FiberTask* finished_ = nullptr;
  Context* left_ = nullptr;  // the context the last switch left

  WaitPoint done_wp_;  // notified on every task completion
  std::function<void(const std::string&)> stall_observer_;
};

}  // namespace rcc::sim
