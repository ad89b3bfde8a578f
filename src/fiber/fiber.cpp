#include "fiber/fiber.hpp"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "fiber/stack_pool.hpp"
#include "util/counters.hpp"

// ---------------------------------------------------------------------------
// ThreadSanitizer fiber support
//
// TSan tracks a shadow stack per thread; switching stacks behind its back
// (our hand-rolled exasim_ctx_switch, or swapcontext) corrupts that tracking
// and produces false reports or crashes. The __tsan_*_fiber interface tells
// the sanitizer about every user-space context switch. Compiled in only
// under -fsanitize=thread (the EXASIM_TSAN build preset).
// ---------------------------------------------------------------------------
#if defined(EXASIM_TSAN_FIBERS)
extern "C" {
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
void* __tsan_get_current_fiber(void);
}
#define EXASIM_TSAN_FIBER_CREATE(impl) ((impl).tsan_fiber = __tsan_create_fiber(0))
#define EXASIM_TSAN_FIBER_DESTROY(impl)                                      \
  do {                                                                       \
    if ((impl).tsan_fiber != nullptr) __tsan_destroy_fiber((impl).tsan_fiber); \
  } while (0)
#define EXASIM_TSAN_FIBER_SAVE_CALLER(impl) ((impl).tsan_caller = __tsan_get_current_fiber())
#define EXASIM_TSAN_SWITCH_TO_FIBER(impl) __tsan_switch_to_fiber((impl).tsan_fiber, 0)
#define EXASIM_TSAN_SWITCH_TO_CALLER(impl) __tsan_switch_to_fiber((impl).tsan_caller, 0)
#else
#define EXASIM_TSAN_FIBER_CREATE(impl) ((void)0)
#define EXASIM_TSAN_FIBER_DESTROY(impl) ((void)0)
#define EXASIM_TSAN_FIBER_SAVE_CALLER(impl) ((void)0)
#define EXASIM_TSAN_SWITCH_TO_FIBER(impl) ((void)0)
#define EXASIM_TSAN_SWITCH_TO_CALLER(impl) ((void)0)
#endif

// ---------------------------------------------------------------------------
// AddressSanitizer fiber support
//
// ASan tracks the current thread's stack bounds; switching to a fiber stack
// behind its back leaves those bounds stale. That is survivable for plain
// execution, but the moment an exception unwinds on a fiber stack (the
// process-failure/abort unwind signals of vmpi::SimProcess), the unwinder's
// __asan_handle_no_return consults the stale bounds and corrupts sanitizer
// state. The __sanitizer_*_switch_fiber interface publishes every stack
// switch: start_switch declares the target stack before leaving the current
// one, finish_switch commits on arrival (and reports the previous bounds,
// which we keep to switch back). Compiled in only under -fsanitize=address
// (the EXASIM_ASAN build preset).
// ---------------------------------------------------------------------------
#if defined(EXASIM_ASAN_FIBERS)
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save, const void** bottom_old,
                                     std::size_t* size_old);
}
#define EXASIM_ASAN_START_SWITCH(save, bottom, size) \
  __sanitizer_start_switch_fiber((save), (bottom), (size))
#define EXASIM_ASAN_FINISH_SWITCH(fake, bottom_old, size_old) \
  __sanitizer_finish_switch_fiber((fake), (bottom_old), (size_old))
#else
#define EXASIM_ASAN_START_SWITCH(save, bottom, size) ((void)0)
#define EXASIM_ASAN_FINISH_SWITCH(fake, bottom_old, size_old) ((void)0)
#endif

namespace exasim {

namespace {

/// An unguarded stack's overflow check, run each time its fiber switches
/// back to the scheduler: the zero canary at the low end (FiberStackPool)
/// must still be zero. Past it lies someone else's memory, so there is
/// nothing to recover.
void check_stack_canary(const void* stack, std::size_t bytes, bool guarded) {
  if (guarded) return;
  const auto* words = static_cast<const std::uint64_t*>(stack);
  std::uint64_t written = 0;
  for (std::size_t i = 0; i < FiberStackPool::kCanaryBytes / sizeof(std::uint64_t); ++i) {
    written |= words[i];
  }
  if (written == 0) return;
  std::fprintf(stderr,
               "exasim: fiber stack overflow: a fiber overwrote the low end of its %zu-byte "
               "unguarded stack (raise --stack-bytes)\n",
               bytes);
  std::abort();
}

}  // namespace

// ---------------------------------------------------------------------------
// Context switching
//
// On x86-64 we use a minimal hand-rolled switch (callee-saved registers +
// stack pointer, ~20 ns). glibc's swapcontext costs ~0.5 us because it
// saves/restores the signal mask with two rt_sigprocmask system calls per
// switch — at millions of simulated-process context switches per run that
// dominates the whole simulation. Simulated processes never touch the signal
// mask or change the FP environment, so the cheap switch is sufficient.
// Other architectures fall back to ucontext.
// ---------------------------------------------------------------------------

#if defined(__x86_64__)

extern "C" void exasim_ctx_switch(void** save_sp, void* load_sp);

// System V AMD64: save the six callee-saved GPRs + return address on the
// current stack, publish rsp, adopt the new stack, restore, return.
asm(R"(
.text
.globl exasim_ctx_switch
.type exasim_ctx_switch, @function
.align 16
exasim_ctx_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
.size exasim_ctx_switch, .-exasim_ctx_switch
)");

#endif

namespace {

// Per-thread pointer to the running fiber, so yield() can find its way back
// and the entry trampoline can find its Fiber.
thread_local Fiber* t_current = nullptr;

}  // namespace

#if defined(__x86_64__)

namespace {

/// First function every fiber executes (entered via `ret` from the switch).
/// Must never return: when the body finishes, control switches back to the
/// resumer permanently.
[[noreturn]] void fiber_entry() {
  Fiber* self = t_current;
  self->run_body_and_exit();
}

}  // namespace

void Fiber::run_body_and_exit() {
  // First instructions on the fiber stack: commit the switch the resumer
  // started (asan_self_fake is null on first entry) and record where to
  // switch back to.
  EXASIM_ASAN_FINISH_SWITCH(impl_.asan_self_fake, &impl_.asan_caller_bottom,
                            &impl_.asan_caller_size);
  try {
    body_();
  } catch (const Unwind&) {
    // ~Fiber is draining an abandoned fiber; the unwind already ran the
    // suspended frames' destructors — just exit the fiber.
  }
  finished_ = true;
  t_current = nullptr;
  void* dummy = nullptr;
  EXASIM_TSAN_SWITCH_TO_CALLER(impl_);
  // Null save slot: the fiber is exiting for good, so ASan may free its fake
  // stack frames instead of preserving them.
  EXASIM_ASAN_START_SWITCH(nullptr, impl_.asan_caller_bottom, impl_.asan_caller_size);
  exasim_ctx_switch(&dummy, impl_.caller_sp);
  std::abort();  // Unreachable: a finished fiber is never resumed.
}

Fiber::Fiber(Body body, std::size_t stack_bytes)
    : body_(std::move(body)) {
  if (stack_bytes < 16 * 1024) stack_bytes = 16 * 1024;
  FiberStackPool::Stack s = FiberStackPool::instance().acquire(stack_bytes);
  stack_ = s.base;
  stack_bytes_ = s.bytes;
  stack_guarded_ = s.guarded;

  // Craft the initial stack so the first switch `ret`s into fiber_entry with
  // the ABI-required alignment: the return-address slot sits on a 16-byte
  // boundary, with six zeroed callee-saved slots below it.
  auto top = reinterpret_cast<std::uintptr_t>(stack_) + stack_bytes_;
  std::uintptr_t ret_slot = (top - 64) & ~std::uintptr_t{15};
  auto* slots = reinterpret_cast<void**>(ret_slot);
  *slots = reinterpret_cast<void*>(&fiber_entry);
  for (int i = 1; i <= 6; ++i) *(slots - i) = nullptr;  // rbp,rbx,r12-r15.
  impl_.self_sp = slots - 6;
  EXASIM_TSAN_FIBER_CREATE(impl_);
}

void Fiber::resume() {
  if (finished_) throw std::logic_error("resume() on finished fiber");
  if (t_current != nullptr) throw std::logic_error("nested fiber resume on one thread");
  started_ = true;
  t_current = this;
  util::count(util::Counter::kFiberResumes);
  EXASIM_TSAN_FIBER_SAVE_CALLER(impl_);
  EXASIM_TSAN_SWITCH_TO_FIBER(impl_);
  EXASIM_ASAN_START_SWITCH(&impl_.asan_caller_fake, stack_, stack_bytes_);
  exasim_ctx_switch(&impl_.caller_sp, impl_.self_sp);
  EXASIM_ASAN_FINISH_SWITCH(impl_.asan_caller_fake, nullptr, nullptr);
  check_stack_canary(stack_, stack_bytes_, stack_guarded_);
  // Either the fiber yielded (t_current reset in yield) or finished
  // (t_current reset in run_body_and_exit).
}

void Fiber::yield() {
  Fiber* self = t_current;
  if (self == nullptr) throw std::logic_error("Fiber::yield outside fiber");
  t_current = nullptr;
  EXASIM_TSAN_SWITCH_TO_CALLER(self->impl_);
  EXASIM_ASAN_START_SWITCH(&self->impl_.asan_self_fake, self->impl_.asan_caller_bottom,
                           self->impl_.asan_caller_size);
  exasim_ctx_switch(&self->impl_.self_sp, self->impl_.caller_sp);
  // Resumed again, possibly from a different caller stack than last time.
  EXASIM_ASAN_FINISH_SWITCH(self->impl_.asan_self_fake, &self->impl_.asan_caller_bottom,
                            &self->impl_.asan_caller_size);
  if (self->unwinding_) throw Unwind{};
}

#else  // ucontext fallback

void Fiber::run_body_and_exit() { std::abort(); }  // Unused on this path.

namespace {

void trampoline(unsigned hi, unsigned lo);

}  // namespace

Fiber::Fiber(Body body, std::size_t stack_bytes)
    : body_(std::move(body)) {
  if (stack_bytes < 16 * 1024) stack_bytes = 16 * 1024;
  FiberStackPool::Stack s = FiberStackPool::instance().acquire(stack_bytes);
  stack_ = s.base;
  stack_bytes_ = s.bytes;
  stack_guarded_ = s.guarded;

  if (::getcontext(&impl_.self) != 0) {
    FiberStackPool::instance().release(
        FiberStackPool::Stack{stack_, stack_bytes_, stack_guarded_});
    stack_ = nullptr;
    throw std::runtime_error("getcontext failed");
  }
  impl_.self.uc_stack.ss_sp = stack_;
  impl_.self.uc_stack.ss_size = stack_bytes_;
  impl_.self.uc_link = &impl_.caller;

  // makecontext only passes ints; split the this-pointer into two 32-bit
  // halves (the portable ucontext idiom).
  auto ptr = reinterpret_cast<std::uintptr_t>(this);
  ::makecontext(&impl_.self, reinterpret_cast<void (*)()>(&trampoline), 2,
                static_cast<unsigned>(ptr >> 32), static_cast<unsigned>(ptr & 0xffffffffu));
  EXASIM_TSAN_FIBER_CREATE(impl_);
}

namespace {

void trampoline(unsigned hi, unsigned lo) {
  auto ptr = (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo);
  auto* self = reinterpret_cast<Fiber*>(ptr);
  self->ucontext_body();
  // Returning lets ucontext switch to uc_link (the caller context).
}

}  // namespace

void Fiber::resume() {
  if (finished_) throw std::logic_error("resume() on finished fiber");
  if (t_current != nullptr) throw std::logic_error("nested fiber resume on one thread");
  started_ = true;
  t_current = this;
  util::count(util::Counter::kFiberResumes);
  EXASIM_TSAN_FIBER_SAVE_CALLER(impl_);
  EXASIM_TSAN_SWITCH_TO_FIBER(impl_);
  EXASIM_ASAN_START_SWITCH(&impl_.asan_caller_fake, stack_, stack_bytes_);
  if (::swapcontext(&impl_.caller, &impl_.self) != 0) {
    EXASIM_ASAN_FINISH_SWITCH(impl_.asan_caller_fake, nullptr, nullptr);
    t_current = nullptr;
    throw std::runtime_error("swapcontext failed");
  }
  EXASIM_ASAN_FINISH_SWITCH(impl_.asan_caller_fake, nullptr, nullptr);
  check_stack_canary(stack_, stack_bytes_, stack_guarded_);
}

void Fiber::yield() {
  Fiber* self = t_current;
  if (self == nullptr) throw std::logic_error("Fiber::yield outside fiber");
  t_current = nullptr;
  EXASIM_TSAN_SWITCH_TO_CALLER(self->impl_);
  EXASIM_ASAN_START_SWITCH(&self->impl_.asan_self_fake, self->impl_.asan_caller_bottom,
                           self->impl_.asan_caller_size);
  if (::swapcontext(&self->impl_.self, &self->impl_.caller) != 0) {
    EXASIM_ASAN_FINISH_SWITCH(self->impl_.asan_self_fake, &self->impl_.asan_caller_bottom,
                              &self->impl_.asan_caller_size);
    throw std::runtime_error("swapcontext failed");
  }
  // Resumed again, possibly from a different caller stack than last time.
  EXASIM_ASAN_FINISH_SWITCH(self->impl_.asan_self_fake, &self->impl_.asan_caller_bottom,
                            &self->impl_.asan_caller_size);
  if (self->unwinding_) throw Unwind{};
}

#endif

void Fiber::ucontext_body() {
  // First statements on the fiber stack: commit the switch the resumer
  // started (asan_self_fake is null on first entry).
  EXASIM_ASAN_FINISH_SWITCH(impl_.asan_self_fake, &impl_.asan_caller_bottom,
                            &impl_.asan_caller_size);
  try {
    body_();
  } catch (const Unwind&) {
    // ~Fiber is draining an abandoned fiber; the unwind already ran the
    // suspended frames' destructors — just exit the fiber.
  }
  finished_ = true;
  t_current = nullptr;
  // Returning switches to uc_link (the caller) inside libc; tell the
  // sanitizers first. Null save slot: the fiber is exiting for good, so ASan
  // may free its fake stack frames instead of preserving them.
  EXASIM_TSAN_SWITCH_TO_CALLER(impl_);
  EXASIM_ASAN_START_SWITCH(nullptr, impl_.asan_caller_bottom, impl_.asan_caller_size);
}

Fiber::~Fiber() {
  // A started-but-unfinished fiber (e.g. a simulated process still blocked
  // when the run ends in deadlock) holds live objects in its suspended
  // frames; resume it one last time so yield() throws Unwind and ordinary
  // stack unwinding releases them. Destroying from inside a fiber cannot
  // resume another one, so there the frame is abandoned (stack memory is
  // still reclaimed below).
  if (started_ && !finished_ && t_current == nullptr) {
    unwinding_ = true;
    resume();
  }
  EXASIM_TSAN_FIBER_DESTROY(impl_);
  if (stack_ != nullptr) {
    FiberStackPool::instance().release(
        FiberStackPool::Stack{stack_, stack_bytes_, stack_guarded_});
  }
}

bool Fiber::in_fiber() { return t_current != nullptr; }

}  // namespace exasim
