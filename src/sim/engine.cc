#include "sim/engine.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <utility>

#include "common/env.h"
#include "common/log.h"

// TSan needs to be told about stack switches or it reports false races
// between code that ran on different fibers of the same OS thread.
#if defined(__SANITIZE_THREAD__)
#define RCC_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RCC_TSAN_FIBERS 1
#endif
#endif
#ifdef RCC_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace rcc::sim {

namespace {

size_t PageSize() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// Fiber stack size: RCC_SIM_FIBER_STACK_KB (default 256). Stacks are
// mmap'd MAP_NORESERVE so 10k ranks only commit the pages they touch.
size_t FiberStackBytes() {
  static const size_t bytes = [] {
    double kb = common::EnvDouble("RCC_SIM_FIBER_STACK_KB", 256.0);
    if (kb <= 0) kb = 256.0;
    size_t b = static_cast<size_t>(kb * 1024.0);
    const size_t min_bytes = 64 * 1024;
    if (b < min_bytes) b = min_bytes;
    const size_t page = PageSize();
    return (b + page - 1) / page * page;
  }();
  return bytes;
}

// Stall handler storage: written by SetStallHandler before a run, read
// at the (single-threaded) point the scheduler proves a stall.
std::function<void(const std::string&)>& StallHandlerSlot() {
  static std::function<void(const std::string&)> handler;
  return handler;
}

}  // namespace

void SetStallHandler(std::function<void(const std::string&)> handler) {
  StallHandlerSlot() = std::move(handler);
}

struct FiberTask : std::enable_shared_from_this<FiberTask> {
  enum class St { kRunnable, kRunning, kParked, kDone };

  uint64_t id = 0;
  int pid = 0;
  const Seconds* clock = nullptr;
  std::function<void()> fn;

  ucontext_t ctx{};
  void* stack_base = nullptr;  // mmap base (guard page + usable stack)
#ifdef RCC_TSAN_FIBERS
  void* tsan_fiber = nullptr;
#endif

  // All fields below are guarded by the engine mutex, except where a
  // field is only ever touched by the scheduler thread while the task is
  // not runnable.
  St state = St::kRunnable;
  uint64_t park_epoch = 0;   // bumped on every wake; stale waiter filter
  bool pending_park = false; // fiber announced a park; scheduler commits it
  bool pending_yield = false;  // fiber yielded; requeue behind same-time peers
  bool timeout_park = false; // parked via WaitFor (quiescence-wakeable)
  double park_timeout = 0.0;  // WaitFor's timeout value (ladder rung)
  bool wake_pending = false; // NotifyAll raced the park handshake
  bool woke_by_timeout = false;
  Engine* engine = nullptr;
};

namespace {
thread_local FiberTask* tls_current_task = nullptr;
std::mutex g_engines_mu;
std::vector<Engine*>& LiveEngines() {
  static std::vector<Engine*>* v = new std::vector<Engine*>();
  return *v;
}
}  // namespace

Engine::Engine() {
  std::lock_guard<std::mutex> g(g_engines_mu);
  LiveEngines().push_back(this);
}

Engine::~Engine() {
  {
    std::lock_guard<std::mutex> g(g_engines_mu);
    auto& v = LiveEngines();
    v.erase(std::remove(v.begin(), v.end(), this), v.end());
  }
  // Detach surviving task structs (stale WaitPoint entries may still
  // hold shared_ptrs to them) and release every stack.
  std::lock_guard<std::mutex> g(mu_);
  for (auto& t : tasks_) {
#ifdef RCC_TSAN_FIBERS
    if (t->tsan_fiber != nullptr) {
      __tsan_destroy_fiber(t->tsan_fiber);
      t->tsan_fiber = nullptr;
    }
#endif
    t->engine = nullptr;
  }
  for (void* base : all_stacks_) {
    munmap(base, PageSize() + FiberStackBytes());
  }
}

TaskHandle Engine::Spawn(TaskOptions opts, std::function<void()> fn) {
  auto t = std::make_shared<FiberTask>();
  t->engine = this;
  t->pid = opts.pid;
  t->clock = opts.clock;
  t->fn = std::move(fn);
  AllocStack(t.get());
  getcontext(&t->ctx);
  t->ctx.uc_stack.ss_sp = static_cast<char*>(t->stack_base) + PageSize();
  t->ctx.uc_stack.ss_size = FiberStackBytes();
  t->ctx.uc_link = nullptr;
  const uintptr_t p = reinterpret_cast<uintptr_t>(t.get());
  makecontext(&t->ctx, reinterpret_cast<void (*)()>(&Engine::FiberMain), 2,
              static_cast<unsigned>(p >> 32),
              static_cast<unsigned>(p & 0xffffffffu));
#ifdef RCC_TSAN_FIBERS
  t->tsan_fiber = __tsan_create_fiber(0);
#endif
  {
    std::lock_guard<std::mutex> g(mu_);
    t->id = next_task_id_++;
    tasks_.push_back(t);
    t->state = FiberTask::St::kRunnable;
    PushLocked(t.get());
    ProgressLocked();
  }
  return TaskHandle(this, std::move(t));
}

void Engine::WakeAllTimeoutParked() {
  std::lock_guard<std::mutex> g(mu_);
  // Wake in task-id order (deterministic) with a *notified* verdict, so
  // waiters re-check their predicate: only the scheduler's quiescence
  // round may deliver the timeout verdict that grace-period code reads
  // as "nothing can ever progress".
  for (auto& t : tasks_) {
    if (t->state == FiberTask::St::kParked && t->timeout_park) {
      t->woke_by_timeout = false;
      t->state = FiberTask::St::kRunnable;
      PushLocked(t.get());
    }
  }
  ProgressLocked();  // re-arm quiescence detection
}

// Parks the current fiber (must be called from a fiber of this engine,
// with no engine locks held). Returns true if woken by Unpark, false on
// a quiescence wake.
bool Engine::ParkCurrent(bool timeout_park, double timeout_seconds) {
  FiberTask* t = tls_current_task;
  RCC_CHECK(t != nullptr && t->engine == this)
      << "ParkCurrent outside a fiber of this engine";
  {
    std::lock_guard<std::mutex> g(mu_);
    t->pending_park = true;
    t->timeout_park = timeout_park;
    t->park_timeout = timeout_seconds;
    t->woke_by_timeout = false;
  }
  SwitchToScheduler(t);
  std::lock_guard<std::mutex> g(mu_);
  ++t->park_epoch;  // invalidate stale WaitPoint entries
  t->timeout_park = false;
  return !t->woke_by_timeout;
}

// Cooperative yield: re-queues the calling fiber behind every runnable
// peer at the same virtual time and returns to the scheduler.
void Engine::YieldCurrent() {
  FiberTask* t = tls_current_task;
  RCC_CHECK(t != nullptr && t->engine == this)
      << "YieldCurrent outside a fiber of this engine";
  {
    std::lock_guard<std::mutex> g(mu_);
    t->pending_yield = true;
  }
  SwitchToScheduler(t);
}

// Moves a parked task back onto the run queue if `park_epoch` still
// matches (stale wait-list entries are filtered here).
void Engine::Unpark(FiberTask* t, uint64_t park_epoch) {
  std::lock_guard<std::mutex> g(mu_);
  if (t->park_epoch != park_epoch || t->state == FiberTask::St::kDone) {
    return;
  }
  if (t->state == FiberTask::St::kParked) {
    t->state = FiberTask::St::kRunnable;
    t->woke_by_timeout = false;
    PushLocked(t);
    ProgressLocked();
    return;
  }
  if (t->state == FiberTask::St::kRunning) {
    // The waiter registered on the WaitPoint but has not finished the
    // park handshake; flag the wake so the scheduler requeues it.
    t->wake_pending = true;
    ProgressLocked();
    return;
  }
  if (t->state == FiberTask::St::kRunnable) {
    // Quiescence-woken but not yet run: upgrade the verdict to a real
    // notification.
    t->woke_by_timeout = false;
    ProgressLocked();
  }
}

uint64_t Engine::CurrentParkEpoch(FiberTask* t) {
  std::lock_guard<std::mutex> g(mu_);
  return t->park_epoch;
}

bool Engine::TaskDone(FiberTask* t) {
  std::lock_guard<std::mutex> g(mu_);
  return t->state == FiberTask::St::kDone;
}

void Engine::JoinTask(FiberTask* t) {
  if (tls_current_task != nullptr) {
    // Another fiber waits for this task (request chaining, ~State):
    // park on the engine-wide completion WaitPoint and re-check.
    std::unique_lock<std::mutex> lock(join_mu_);
    while (!TaskDone(t)) done_wp_.Wait(lock);
    return;
  }
  for (;;) {
    if (TaskDone(t)) return;
    std::unique_lock<std::mutex> pl(pump_mu_, std::try_to_lock);
    if (pl.owns_lock()) {
      RunScheduler([this, t] { return TaskDone(t); });
      // The observer runs before the handler so forensic dumps land even
      // when the handler exits.
      if (!TaskDone(t) && stall_observer_) {
        stall_observer_(StallReport("JoinTask"));
      }
      if (!TaskDone(t) && StallHandlerSlot()) {
        StallHandlerSlot()(StallReport("JoinTask"));
      }
      RCC_CHECK(TaskDone(t)) << StallReport("JoinTask");
      return;
    }
    // Someone else is pumping; their progress may complete our task.
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

// Pumps the scheduler from an external thread until nothing more can run
// (used by WaitPoint waits off a fiber). Returns true if any progress
// happened (or another thread holds the pump).
bool Engine::TryPump() {
  std::unique_lock<std::mutex> pl(pump_mu_, std::try_to_lock);
  if (!pl.owns_lock()) return true;
  uint64_t before;
  {
    std::lock_guard<std::mutex> g(mu_);
    before = progress_counter_;
  }
  RunScheduler(nullptr);
  std::lock_guard<std::mutex> g(mu_);
  return progress_counter_ != before;
}

void Engine::AllocStack(FiberTask* t) {
  const size_t page = PageSize();
  const size_t total = page + FiberStackBytes();
  void* base = nullptr;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (!stack_pool_.empty()) {
      base = stack_pool_.back();
      stack_pool_.pop_back();
    }
  }
  if (base == nullptr) {
    base = mmap(nullptr, total, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    RCC_CHECK(base != MAP_FAILED) << "fiber stack mmap failed";
    // Guard page below the stack catches overflows as a fault instead of
    // silent corruption of a neighboring fiber.
    mprotect(base, page, PROT_NONE);
    std::lock_guard<std::mutex> g(mu_);
    all_stacks_.push_back(base);
  }
  t->stack_base = base;
}

// Requires mu_ held. Queue key is (virtual time, pid, sequence): the
// documented deterministic tie-break order.
void Engine::PushLocked(FiberTask* t) {
  const Seconds vt = t->clock != nullptr ? *t->clock : 0.0;
  queue_.push(RunEntry{vt, t->pid, next_seq_++, t});
}

// Requires mu_ held. A yielded fiber sorts after every normal entry at
// its virtual time (pid key saturated), then by yield order — still
// fully deterministic.
void Engine::PushYieldedLocked(FiberTask* t) {
  const Seconds vt = t->clock != nullptr ? *t->clock : 0.0;
  queue_.push(RunEntry{vt, std::numeric_limits<int>::max(), next_seq_++, t});
}

// Requires mu_ held.
void Engine::ProgressLocked() {
  ++progress_counter_;
  quiesce_armed_ = false;
}

void Engine::FiberMain(unsigned hi, unsigned lo) {
  auto* t = reinterpret_cast<FiberTask*>((static_cast<uintptr_t>(hi) << 32) |
                                         static_cast<uintptr_t>(lo));
  t->fn();
  t->fn = nullptr;  // run closure destructors on the fiber, in order
  {
    std::lock_guard<std::mutex> g(t->engine->mu_);
    t->state = FiberTask::St::kDone;
  }
  t->engine->SwitchToScheduler(t);
  RCC_CHECK(false) << "resumed a completed fiber";
}

void Engine::SwitchToScheduler(FiberTask* t) {
#ifdef RCC_TSAN_FIBERS
  __tsan_switch_to_fiber(sched_tsan_fiber_, 0);
#endif
  swapcontext(&t->ctx, &sched_ctx_);
}

// Runs one fiber until it parks or completes. Requires pump_mu_ held,
// mu_ not held, and `t` in state kRunnable.
void Engine::RunTask(FiberTask* t) {
  {
    std::lock_guard<std::mutex> g(mu_);
    t->state = FiberTask::St::kRunning;
  }
  tls_current_task = t;
#ifdef RCC_TSAN_FIBERS
  __tsan_switch_to_fiber(t->tsan_fiber, 0);
#endif
  swapcontext(&sched_ctx_, &t->ctx);
  tls_current_task = nullptr;
  bool done = false;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (t->state == FiberTask::St::kDone) {
      done = true;
      if (t->stack_base != nullptr) {
        stack_pool_.push_back(t->stack_base);
        t->stack_base = nullptr;
      }
#ifdef RCC_TSAN_FIBERS
      if (t->tsan_fiber != nullptr) {
        __tsan_destroy_fiber(t->tsan_fiber);
        t->tsan_fiber = nullptr;
      }
#endif
      ProgressLocked();
    } else if (t->pending_yield) {
      t->pending_yield = false;
      t->state = FiberTask::St::kRunnable;
      PushYieldedLocked(t);
    } else if (t->pending_park) {
      t->pending_park = false;
      t->state = FiberTask::St::kParked;
      if (t->wake_pending) {
        t->wake_pending = false;
        t->state = FiberTask::St::kRunnable;
        t->woke_by_timeout = false;
        PushLocked(t);
      }
    } else {
      RCC_CHECK(false) << "fiber yielded without parking or completing";
    }
  }
  if (done) done_wp_.NotifyAll();  // never with mu_ held
}

// The scheduler loop. Requires pump_mu_ held and a non-fiber caller.
// Returns when stop() holds, every task is done, or the engine is
// stalled (a quiescence round produced no progress).
void Engine::RunScheduler(const std::function<bool()>& stop) {
  RCC_CHECK(tls_current_task == nullptr) << "scheduler pumped from a fiber";
#ifdef RCC_TSAN_FIBERS
  sched_tsan_fiber_ = __tsan_get_current_fiber();
#endif
  for (;;) {
    if (stop && stop()) return;
    FiberTask* next = nullptr;
    {
      std::lock_guard<std::mutex> g(mu_);
      while (!queue_.empty()) {
        RunEntry e = queue_.top();
        queue_.pop();
        if (e.task->state == FiberTask::St::kRunnable) {
          next = e.task;
          break;
        }
      }
      if (next == nullptr) {
        // Run queue drained: quiescence. Climb one rung of the ladder:
        // expire the WaitFor-parked fibers with the *smallest* timeout
        // not yet expired this round (a death-watch Recv at 0s expires
        // before a 200us protocol poll, which expires before a 2ms kv
        // poll). Any progress restarts the ladder from the bottom; a
        // drained queue with the ladder exhausted is a stall.
        if (!quiesce_armed_) {
          quiesce_armed_ = true;
          quiesce_level_ = -1.0;
        }
        double level = 0.0;
        bool found = false;
        for (const auto& t : tasks_) {
          if (t->state == FiberTask::St::kParked && t->timeout_park &&
              t->park_timeout > quiesce_level_ &&
              (!found || t->park_timeout < level)) {
            level = t->park_timeout;
            found = true;
          }
        }
        if (!found) return;  // all done, or stalled past every rung
        quiesce_level_ = level;
        for (auto& t : tasks_) {  // task-id order: deterministic
          if (t->state == FiberTask::St::kParked && t->timeout_park &&
              t->park_timeout == level) {
            RCC_LOG(kDebug) << "quiescence: expiring pid " << t->pid
                            << " (timeout " << level << "s) at t="
                            << (t->clock != nullptr ? *t->clock : 0.0);
            t->woke_by_timeout = true;
            t->state = FiberTask::St::kRunnable;
            PushLocked(t.get());
          }
        }
        continue;
      }
    }
    RunTask(next);
  }
}

std::string Engine::StallReport(const char* where) {
  std::lock_guard<std::mutex> g(mu_);
  int runnable = 0, parked = 0, timeout_parked = 0, done = 0;
  for (const auto& t : tasks_) {
    switch (t->state) {
      case FiberTask::St::kRunnable:
      case FiberTask::St::kRunning:
        ++runnable;
        break;
      case FiberTask::St::kParked:
        ++parked;
        if (t->timeout_park) ++timeout_parked;
        break;
      case FiberTask::St::kDone:
        ++done;
        break;
    }
  }
  std::string s = "fiber engine stalled in ";
  s += where;
  s += " (deadlock): tasks=";
  s += std::to_string(tasks_.size());
  s += " done=" + std::to_string(done);
  s += " parked=" + std::to_string(parked);
  s += " (timeout=" + std::to_string(timeout_parked) + ")";
  s += " runnable=" + std::to_string(runnable);
  return s;
}

// ---------------------------------------------------------------------
// TaskHandle / WaitPoint
// ---------------------------------------------------------------------

void TaskHandle::Join() {
  if (task_) engine_->JoinTask(task_.get());
}

void YieldTask() {
  FiberTask* t = tls_current_task;
  if (t != nullptr && t->engine != nullptr) {
    t->engine->YieldCurrent();
  } else {
    std::this_thread::yield();
  }
}

WaitPoint::WaitPoint() = default;
WaitPoint::~WaitPoint() = default;

void WaitPoint::Wait(std::unique_lock<std::mutex>& lock) {
  if (tls_current_task != nullptr) {
    Park(lock, /*timeout_park=*/false, 0.0);
  } else {
    PumpOrWait(lock);
  }
}

bool WaitPoint::WaitFor(std::unique_lock<std::mutex>& lock,
                        double timeout_seconds) {
  if (tls_current_task != nullptr) {
    return Park(lock, /*timeout_park=*/true, timeout_seconds);
  }
  return PumpOrWait(lock);
}

bool WaitPoint::Park(std::unique_lock<std::mutex>& lock, bool timeout_park,
                     double timeout_seconds) {
  FiberTask* self = tls_current_task;
  {
    std::lock_guard<std::mutex> g(waiters_mu_);
    fiber_waiters_.push_back(
        {self->shared_from_this(), self->engine->CurrentParkEpoch(self)});
  }
  lock.unlock();
  const bool notified = self->engine->ParkCurrent(timeout_park,
                                                  timeout_seconds);
  lock.lock();
  return notified;
}

bool WaitPoint::PumpOrWait(std::unique_lock<std::mutex>& lock) {
  // Lend every live engine our time (fibers can only run on a thread
  // that pumps them), then re-check.
  std::vector<Engine*> engines;
  {
    std::lock_guard<std::mutex> g(g_engines_mu);
    engines = LiveEngines();
  }
  lock.unlock();
  bool progressed = false;
  for (Engine* e : engines) progressed = e->TryPump() || progressed;
  lock.lock();
  if (progressed) return true;
  return cv_.wait_for(lock, std::chrono::milliseconds(1)) ==
         std::cv_status::no_timeout;
}

void WaitPoint::NotifyAll() {
  cv_.notify_all();
  std::vector<FiberWaiter> waiters;
  {
    std::lock_guard<std::mutex> g(waiters_mu_);
    waiters.swap(fiber_waiters_);
  }
  for (const FiberWaiter& w : waiters) {
    Engine* e = w.task->engine;
    if (e != nullptr) e->Unpark(w.task.get(), w.park_epoch);
  }
}

}  // namespace rcc::sim
