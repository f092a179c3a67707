#include "sim/engine.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/env.h"
#include "common/log.h"
#include "common/pool.h"

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

// ASan likewise: it must know which stack is live to tell a fiber's
// frames from overflows, and it keeps one fake stack per fiber.
#if defined(__SANITIZE_ADDRESS__)
#define RCC_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RCC_ASAN_FIBERS 1
#endif
#endif
#ifdef RCC_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#if !defined(__x86_64__) || !defined(__linux__)
#error "src/sim/engine.cc: the fiber switch is written for Linux x86-64 only"
#endif

// The fiber switch. rcc_sim_switch_fiber(save_sp, load_sp) pushes the
// SysV callee-saved registers and the floating-point control state
// (MXCSR, x87 control word) on the current stack, stores the stack
// pointer to *save_sp, loads load_sp and pops the same set from there:
// everything else is caller-saved, so no signal mask, no syscall. The
// floating-point control state is per fiber. A fresh fiber's frame
// (InitialFrame) "returns" into rcc_sim_fiber_entry, which calls r12(r13)
// and is the outermost frame unwinders see.
extern "C" void rcc_sim_switch_fiber(void** save_sp, void* load_sp);
extern "C" void rcc_sim_fiber_entry();
asm(R"(
  .pushsection .text
  .globl rcc_sim_switch_fiber
  .hidden rcc_sim_switch_fiber
  .type rcc_sim_switch_fiber, @function
  .p2align 4
rcc_sim_switch_fiber:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  pushq %r12
  .cfi_adjust_cfa_offset 8
  pushq %r13
  .cfi_adjust_cfa_offset 8
  pushq %r14
  .cfi_adjust_cfa_offset 8
  pushq %r15
  .cfi_adjust_cfa_offset 8
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size rcc_sim_switch_fiber, .-rcc_sim_switch_fiber

  .globl rcc_sim_fiber_entry
  .hidden rcc_sim_fiber_entry
  .type rcc_sim_fiber_entry, @function
  .p2align 4
rcc_sim_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %r13, %rdi
  callq *%r12
  ud2
  .cfi_endproc
  .size rcc_sim_fiber_entry, .-rcc_sim_fiber_entry
  .popsection
)");

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

// Lowest usable address of a fiber stack mapped at `base` (above the
// guard page).
char* StackLow(void* base) { return static_cast<char*>(base) + PageSize(); }

// Builds the frame rcc_sim_switch_fiber pops on its first switch into a
// fiber, just below the 16-byte-aligned `stack_top`: default MXCSR and
// x87 control word, r12 = entry, r13 = arg, rbp = 0 (ends frame-pointer
// walks), and rcc_sim_fiber_entry as the return address. The `ret`
// leaves rsp 16-byte aligned, so rcc_sim_fiber_entry's call enters
// `entry` exactly as the ABI requires.
void* InitialFrame(char* stack_top, void (*entry)(FiberTask*),
                   FiberTask* arg) {
  const uintptr_t top =
      reinterpret_cast<uintptr_t>(stack_top) & ~uintptr_t{15};
  auto* frame = reinterpret_cast<uint64_t*>(top) - 8;
  frame[0] = uint64_t{0x1F80} | (uint64_t{0x037F} << 32);  // MXCSR, x87 CW
  frame[1] = 0;                                            // r15
  frame[2] = 0;                                            // r14
  frame[3] = reinterpret_cast<uint64_t>(arg);              // r13
  frame[4] = reinterpret_cast<uint64_t>(entry);            // r12
  frame[5] = 0;                                            // rbx
  frame[6] = 0;                                            // rbp
  frame[7] = reinterpret_cast<uint64_t>(&rcc_sim_fiber_entry);
  return frame;
}

// The fiber stacks of one host thread that no task is using. A finished
// task returns its stack here, and a destroyed engine returns those of
// the tasks it abandoned, so the next simulation on this thread reuses
// them instead of mapping its own. Unmapped when the thread exits.
struct StackCache {
  std::vector<void*> free;
  uint64_t mapped = 0;  // stacks this thread has mapped
  StackCache() = default;
  StackCache(const StackCache&) = delete;
  StackCache& operator=(const StackCache&) = delete;
  ~StackCache() {
    for (void* base : free) munmap(base, PageSize() + FiberStackBytes());
  }
};
thread_local StackCache tls_stacks;
thread_local uint64_t tls_switches = 0;  // see FiberSwitches

void* TakeStack() {
  StackCache& cache = tls_stacks;
  if (!cache.free.empty()) {
    void* base = cache.free.back();
    cache.free.pop_back();
    return base;
  }
  const size_t page = PageSize();
  void* base = mmap(nullptr, page + FiberStackBytes(), PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                    -1, 0);
  RCC_CHECK(base != MAP_FAILED) << "fiber stack mmap failed";
  // Guard page below the stack catches overflows as a fault instead of
  // silent corruption of a neighboring fiber.
  mprotect(base, page, PROT_NONE);
  ++cache.mapped;
  return base;
}

// Caches *base, if any, and clears it.
void ReturnStack(void** base) {
  if (*base == nullptr) return;
#ifdef RCC_ASAN_FIBERS
  // The fiber's frames leave their redzones poisoned.
  ASAN_UNPOISON_MEMORY_REGION(StackLow(*base), FiberStackBytes());
#endif
  tls_stacks.free.push_back(std::exchange(*base, nullptr));
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

uint64_t FiberStacksMapped() { return tls_stacks.mapped; }

uint64_t FiberSwitches() { return tls_switches; }

struct FiberTask : std::enable_shared_from_this<FiberTask> {
  enum class St { kRunnable, kRunning, kParked, kDone };

  uint64_t id = 0;
  int pid = 0;
  const Seconds* clock = nullptr;
  std::function<void()> fn;

  Engine::Context ctx;
  void* stack_base = nullptr;  // mmap base (guard page + usable stack)

  St state = St::kRunnable;
  uint64_t park_epoch = 0;   // bumped on every wake; stale waiter filter
  bool timeout_park = false; // parked via WaitFor (quiescence-wakeable)
  double park_timeout = 0.0;  // WaitFor's timeout value (ladder rung)
  bool woke_by_timeout = false;
  // Nulled when the task finishes or the engine dies, so stale WaitPoint
  // entries and TaskHandles never touch an engine that dropped the task.
  Engine* engine = nullptr;
};

namespace {
thread_local FiberTask* tls_current_task = nullptr;
}  // namespace

Engine::Engine() = default;

Engine::~Engine() {
  // Detach surviving task structs (stale WaitPoint entries may still
  // hold shared_ptrs to them) and hand their stacks to this thread's
  // cache: an abandoned fiber never resumes.
  for (auto& t : tasks_) {
#ifdef RCC_TSAN_FIBERS
    if (t->ctx.tsan_fiber != nullptr) {
      __tsan_destroy_fiber(t->ctx.tsan_fiber);
      t->ctx.tsan_fiber = nullptr;
    }
#endif
    t->engine = nullptr;
    ReturnStack(&t->stack_base);
  }
}

// The one-thread contract (see engine.h): once an engine has been
// pumped, only its owner thread may pump it or spawn onto it.
void Engine::CheckOwnerThread(const char* what) const {
  RCC_CHECK(owner_ == std::thread::id() ||
            owner_ == std::this_thread::get_id())
      << what << " from a host thread that does not own this simulation "
      << "(one simulation is driven by one host thread)";
}

TaskHandle Engine::Spawn(TaskOptions opts, std::function<void()> fn) {
  CheckOwnerThread("Spawn");
  // From this thread's free list: a task made and dropped per op
  // allocates nothing in steady state.
  auto t = std::allocate_shared<FiberTask>(common::PoolAllocator<FiberTask>());
  t->engine = this;
  t->pid = opts.pid;
  t->clock = opts.clock;
  t->fn = std::move(fn);
  t->stack_base = TakeStack();
  t->ctx.sp = InitialFrame(StackLow(t->stack_base) + FiberStackBytes(),
                           &Engine::FiberMain, t.get());
  t->ctx.stack_bottom = StackLow(t->stack_base);
  t->ctx.stack_size = FiberStackBytes();
#ifdef RCC_TSAN_FIBERS
  t->ctx.tsan_fiber = __tsan_create_fiber(0);
#endif
  t->id = next_task_id_++;
  tasks_.push_back(t);
  t->state = FiberTask::St::kRunnable;
  Push(t.get());
  Progress();
  return TaskHandle(std::move(t));
}

void Engine::WakeAllTimeoutParked() {
  // Wake in task-id order (deterministic) with a *notified* verdict, so
  // waiters re-check their predicate: only the scheduler's quiescence
  // round may deliver the timeout verdict that grace-period code reads
  // as "nothing can ever progress".
  for (auto& t : tasks_) {
    if (t->state == FiberTask::St::kParked && t->timeout_park) {
      t->woke_by_timeout = false;
      t->state = FiberTask::St::kRunnable;
      Push(t.get());
    }
  }
  Progress();  // re-arm quiescence detection
}

// Parks the current fiber (must be called from a fiber of this engine).
// Returns true if woken by Unpark, false on a quiescence wake.
bool Engine::ParkCurrent(bool timeout_park, double timeout_seconds) {
  FiberTask* t = tls_current_task;
  RCC_CHECK(t != nullptr && t->engine == this)
      << "ParkCurrent outside a fiber of this engine";
  t->state = FiberTask::St::kParked;
  t->timeout_park = timeout_park;
  t->park_timeout = timeout_seconds;
  t->woke_by_timeout = false;
  HandOff(t);
  ++t->park_epoch;  // invalidate stale WaitPoint entries
  t->timeout_park = false;
  return !t->woke_by_timeout;
}

// Cooperative yield: re-queues the calling fiber behind every runnable
// peer at the same virtual time and hands off to the queue's head (which
// is the caller itself when no such peer exists).
void Engine::YieldCurrent() {
  FiberTask* t = tls_current_task;
  RCC_CHECK(t != nullptr && t->engine == this)
      << "YieldCurrent outside a fiber of this engine";
  t->state = FiberTask::St::kRunnable;
  PushYielded(t);
  HandOff(t);
}

// Moves a parked task back onto the run queue if `park_epoch` still
// matches (stale wait-list entries are filtered here). A task's live
// entries all belong to its current park: Park registers and switches
// out with nothing in between, and every wake bumps the epoch, so a
// running task has no entry that can match.
void Engine::Unpark(FiberTask* t, uint64_t park_epoch) {
  if (t->park_epoch != park_epoch || t->state == FiberTask::St::kDone) {
    return;
  }
  RCC_CHECK(t->state != FiberTask::St::kRunning)
      << "WaitPoint entry of a running task matched its park epoch";
  if (t->state == FiberTask::St::kParked) {
    t->state = FiberTask::St::kRunnable;
    Push(t);
  }
  // A kRunnable task was quiescence-woken but has not run yet: the
  // notification upgrades its verdict.
  t->woke_by_timeout = false;
  Progress();
}

void Engine::JoinTask(FiberTask* t) {
  auto done = [t] { return t->state == FiberTask::St::kDone; };
  if (tls_current_task != nullptr) {
    // Another fiber waits for this task (request chaining, ~State):
    // park on the engine-wide completion WaitPoint and re-check.
    while (!done()) done_wp_.Wait();
    return;
  }
  if (done()) return;
  RunScheduler(*t);
  // The observer runs before the handler so forensic dumps land even
  // when the handler exits.
  if (!done() && stall_observer_) stall_observer_(StallReport("JoinTask"));
  if (!done() && StallHandlerSlot()) {
    StallHandlerSlot()(StallReport("JoinTask"));
  }
  RCC_CHECK(done()) << StallReport("JoinTask");
}

// Queue key is (virtual time, pid, sequence): the documented
// deterministic tie-break order.
void Engine::Push(FiberTask* t) {
  const Seconds vt = t->clock != nullptr ? *t->clock : 0.0;
  queue_.push(RunEntry{vt, t->pid, next_seq_++, t});
}

// A yielded fiber sorts after every normal entry at its virtual time
// (pid key saturated), then by yield order — still fully deterministic.
void Engine::PushYielded(FiberTask* t) {
  const Seconds vt = t->clock != nullptr ? *t->clock : 0.0;
  queue_.push(RunEntry{vt, std::numeric_limits<int>::max(), next_seq_++, t});
}

void Engine::Progress() { quiesce_armed_ = false; }

// Drops finished tasks from tasks_ once they make up half of it:
// amortized O(1) per task, and remove_if keeps id order, so quiescence
// expiry (which walks tasks_) stays deterministic.
void Engine::ReclaimDone() {
  if (done_in_table_ * 2 < tasks_.size()) return;
  tasks_.erase(std::remove_if(tasks_.begin(), tasks_.end(),
                              [](const std::shared_ptr<FiberTask>& t) {
                                return t->state == FiberTask::St::kDone;
                              }),
               tasks_.end());
  reclaimed_ += done_in_table_;
  done_in_table_ = 0;
}

FiberTask* Engine::PopRunnable() {
  while (!queue_.empty()) {
    FiberTask* t = queue_.top().task;
    queue_.pop();
    if (t->state == FiberTask::St::kRunnable) return t;
  }
  return nullptr;
}

void Engine::FiberMain(FiberTask* t) {
  Engine* e = t->engine;
  e->Resumed(&t->ctx);
  t->fn();
  t->fn = nullptr;  // run closure destructors on the fiber, in order
  t->state = FiberTask::St::kDone;
  t->engine = nullptr;
  ++e->done_in_table_;
  // The fiber still runs on its stack: the next context releases it.
  e->finished_ = t;
  e->Progress();
  e->done_wp_.NotifyAll();
  e->HandOff(t);
  RCC_CHECK(false) << "resumed a completed fiber";
}

// The one way a fiber leaves the CPU. `t` has committed its next state
// (parked, requeued by a yield, or done); the fiber pops the run queue
// itself and switches straight into the next runnable fiber, exactly the
// one the scheduler loop would have popped, so the run order is the
// scheduler's. It switches to the pumping thread's stack only when the
// queue is drained (quiescence is the scheduler's) or `t` just finished
// the joined task. Returns when `t` runs again: at once when a yield left
// it at the head of the queue.
void Engine::HandOff(FiberTask* t) {
  const bool finished = t->state == FiberTask::St::kDone;
  FiberTask* next = finished && t == joined_ ? nullptr : PopRunnable();
  if (next == t) {
    t->state = FiberTask::St::kRunning;
    return;
  }
  SwitchTo(&t->ctx, next, finished);
}

// Switches from `from` into `next`'s fiber, or into the pumping thread's
// stack when `next` is null. A finished `from` passes no fake-stack slot,
// so ASan frees its fake stack.
void Engine::SwitchTo(Context* from, FiberTask* next,
                      [[maybe_unused]] bool from_finished) {
  Context* to = &sched_;
  if (next != nullptr) {
    next->state = FiberTask::St::kRunning;
    to = &next->ctx;
  }
  tls_current_task = next;
  left_ = from;
  ++tls_switches;
#ifdef RCC_TSAN_FIBERS
  __tsan_switch_to_fiber(to->tsan_fiber, 0);
#endif
#ifdef RCC_ASAN_FIBERS
  __sanitizer_start_switch_fiber(from_finished ? nullptr : &from->asan_fake_stack,
                                 to->stack_bottom, to->stack_size);
#endif
  rcc_sim_switch_fiber(&from->sp, to->sp);
  Resumed(from);
}

// Runs first on every context that gains the CPU. Completes the ASan
// switch (learning the extent of the stack just left, which is how the
// pumping thread's becomes known), then releases a fiber that finished
// on its way here: its stack goes back to the thread's cache and the
// task table is compacted, neither of which it could do while running
// on that stack.
void Engine::Resumed([[maybe_unused]] Context* self) {
#ifdef RCC_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(self->asan_fake_stack, &left_->stack_bottom,
                                  &left_->stack_size);
#endif
  FiberTask* t = std::exchange(finished_, nullptr);
  if (t == nullptr) return;
  ReturnStack(&t->stack_base);
#ifdef RCC_TSAN_FIBERS
  if (t->ctx.tsan_fiber != nullptr) {
    __tsan_destroy_fiber(t->ctx.tsan_fiber);
    t->ctx.tsan_fiber = nullptr;
  }
#endif
  ReclaimDone();  // may free `t`
}

// The scheduler loop. Requires a non-fiber caller: the owner thread (the
// first caller becomes it). Returns when `joined` is done, every task is
// done, or the engine is stalled (a quiescence round produced no
// progress).
void Engine::RunScheduler(const FiberTask& joined) {
  RCC_CHECK(tls_current_task == nullptr) << "scheduler pumped from a fiber";
  CheckOwnerThread("pumping the scheduler");
  owner_ = std::this_thread::get_id();
  RCC_CHECK(!pumping_) << "scheduler pumped re-entrantly";
  pumping_ = true;
  struct Unpump {
    bool* p;
    ~Unpump() { *p = false; }
  } unpump{&pumping_};
#ifdef RCC_TSAN_FIBERS
  sched_.tsan_fiber = __tsan_get_current_fiber();
#endif
  joined_ = &joined;
  for (;;) {
    FiberTask* next = PopRunnable();
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
          Push(t.get());
        }
      }
      continue;
    }
    // The fibers hand the thread on among themselves and give it back
    // once the queue drains or the joined task finished.
    SwitchTo(&sched_, next, /*from_finished=*/false);
    if (joined.state == FiberTask::St::kDone) return;
  }
}

std::string Engine::StallReport(const char* where) {
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
  s += std::to_string(reclaimed_ + tasks_.size());
  s += " done=" + std::to_string(reclaimed_ + done);
  s += " parked=" + std::to_string(parked);
  s += " (timeout=" + std::to_string(timeout_parked) + ")";
  s += " runnable=" + std::to_string(runnable);
  return s;
}

// ---------------------------------------------------------------------
// TaskHandle / WaitPoint
// ---------------------------------------------------------------------

void TaskHandle::Join() {
  if (!task_) return;
  // A null engine means the task finished (or its engine is gone).
  if (Engine* e = task_->engine) e->JoinTask(task_.get());
}

void YieldTask() {
  FiberTask* t = tls_current_task;
  RCC_CHECK(t != nullptr) << "YieldTask off a fiber: nothing else can run "
                             "until the owner thread pumps the engine";
  t->engine->YieldCurrent();
}

WaitPoint::WaitPoint() = default;
WaitPoint::~WaitPoint() = default;

void WaitPoint::Wait() { Park(/*timeout_park=*/false, 0.0); }

bool WaitPoint::WaitFor(double timeout_seconds) {
  return Park(/*timeout_park=*/true, timeout_seconds);
}

bool WaitPoint::Park(bool timeout_park, double timeout_seconds) {
  FiberTask* self = tls_current_task;
  RCC_CHECK(self != nullptr)
      << "WaitPoint wait off a fiber: only a simulation's fibers can block "
         "(run the caller as a Cluster or Engine task)";
  FiberWaiter w{self->shared_from_this(), self->park_epoch};
  if (first_.task == nullptr) {
    first_ = std::move(w);
  } else {
    more_.push_back(std::move(w));
  }
  return self->engine->ParkCurrent(timeout_park, timeout_seconds);
}

void WaitPoint::NotifyAll() {
  // Unpark only queues tasks, so nothing can touch the list mid-walk;
  // clear() keeps its capacity for the next park.
  if (first_.task == nullptr) return;
  auto wake = [](const FiberWaiter& w) {
    Engine* e = w.task->engine;  // null once the task finished
    if (e != nullptr) e->Unpark(w.task.get(), w.park_epoch);
  };
  wake(first_);
  for (const FiberWaiter& w : more_) wake(w);
  first_.task.reset();
  more_.clear();
}

}  // namespace rcc::sim
