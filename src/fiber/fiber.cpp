#include "fiber/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/counters.hpp"
#include "util/pool.hpp"

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
void __asan_unpoison_memory_region(void const volatile* addr, std::size_t size);
}
#define EXASIM_ASAN_START_SWITCH(save, bottom, size) \
  __sanitizer_start_switch_fiber((save), (bottom), (size))
#define EXASIM_ASAN_FINISH_SWITCH(fake, bottom_old, size_old) \
  __sanitizer_finish_switch_fiber((fake), (bottom_old), (size_old))
#define EXASIM_ASAN_UNPOISON(p, n) __asan_unpoison_memory_region((p), (n))
#else
#define EXASIM_ASAN_START_SWITCH(save, bottom, size) ((void)0)
#define EXASIM_ASAN_FINISH_SWITCH(fake, bottom_old, size_old) ((void)0)
#define EXASIM_ASAN_UNPOISON(p, n) ((void)0)
#endif

namespace exasim {

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

extern "C" void* exasim_ctx_switch(void** save_sp, void* load_sp, void* handoff);

// System V AMD64: save the six callee-saved GPRs + return address on the
// current stack, publish rsp, adopt the new stack, restore, return. The
// switch that resumes a context returns its `handoff` there: resume() hands
// the fiber itself to the yield() it resumes, which so needs neither a
// callee-saved register nor a thread-local read to find it again (the
// fiber may wake on another thread, whose thread-local slot a cached
// address would miss).
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
  movq %rdx, %rax
  ret
.size exasim_ctx_switch, .-exasim_ctx_switch
)");

#endif

namespace {

// Per-thread pointer to the running fiber, so yield() can find its way back
// and the entry trampoline can find its Fiber.
thread_local Fiber* t_current = nullptr;

// yield()'s throws, out of line so their exception set-up takes no
// register or stack space in its frame.
[[noreturn, gnu::noinline]] void throw_yield_outside_fiber() {
  throw std::logic_error("Fiber::yield outside fiber");
}
[[noreturn, gnu::noinline]] void throw_unwind() { throw Fiber::Unwind{}; }

/// The stack a FiberStack::Use selected on this thread (null: none).
thread_local FiberStack* t_stack = nullptr;

/// This thread's default stacks, one per size, for fibers first resumed
/// while no Use is alive (raw fibers outside an engine).
thread_local std::vector<std::unique_ptr<FiberStack>> t_default_stacks;

FiberStack& default_stack(std::size_t bytes) {
  for (const auto& st : t_default_stacks) {
    if (st->bytes() == bytes) return *st;
  }
  t_default_stacks.push_back(std::make_unique<FiberStack>());
  return *t_default_stacks.back();
}

/// Images are whole multiples of this: util::pool has a size class every
/// 64 B from 64 B to 2 KiB, where a simulated rank's image falls, so an
/// image fills its block exactly.
constexpr std::size_t kImageGrain = 64;

std::size_t page_bytes() {
  static const std::size_t ps = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return ps;
}

/// Mappings of destroyed stacks, guard page and touched pages intact, kept
/// for the next stack of their size: every machine maps its stacks when its
/// ranks first run, and a model-checking campaign launches thousands of
/// small machines. At most kMaxParked are kept.
struct ParkedStacks {
  std::mutex mu;
  std::vector<std::pair<std::byte*, std::size_t>> maps;  ///< (base, bytes).
};
constexpr std::size_t kMaxParked = 64;

ParkedStacks& parked_stacks() {
  static auto* parked = new ParkedStacks;  // Immortal: thread_local stacks park at exit.
  return *parked;
}

}  // namespace

// ---------------------------------------------------------------------------
// Shared stacks
// ---------------------------------------------------------------------------

FiberStack::~FiberStack() {
  if (fibers_ != 0) {
    std::fprintf(stderr, "exasim: fiber stack destroyed while %zu fibers are bound to it\n",
                 fibers_);
    std::abort();
  }
  if (base_ == nullptr) return;
  {
    ParkedStacks& parked = parked_stacks();
    const std::lock_guard<std::mutex> lock(parked.mu);
    if (parked.maps.size() < kMaxParked) {
      parked.maps.emplace_back(base_, bytes_);
      return;
    }
  }
  ::munmap(base_ - page_bytes(), bytes_ + page_bytes());
}

void FiberStack::map(std::size_t bytes) {
  {
    ParkedStacks& parked = parked_stacks();
    const std::lock_guard<std::mutex> lock(parked.mu);
    for (auto it = parked.maps.begin(); it != parked.maps.end(); ++it) {
      if (it->second != bytes) continue;
      base_ = it->first;
      bytes_ = bytes;
      parked.maps.erase(it);
      util::count(util::Counter::kStacksReused);
      return;
    }
  }
  const std::size_t ps = page_bytes();
  void* raw = ::mmap(nullptr, bytes + ps, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                     -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  // Stacks grow down: an overflow walks off the low end into the guard.
  if (::mprotect(raw, ps, PROT_NONE) != 0) {
    ::munmap(raw, bytes + ps);
    throw std::bad_alloc();
  }
  base_ = static_cast<std::byte*>(raw) + ps;
  bytes_ = bytes;
  util::count(util::Counter::kStacksMapped);
}

FiberStack::Use::Use(FiberStack& stack) : prev_(t_stack) { t_stack = &stack; }

FiberStack::Use::~Use() { t_stack = prev_; }

// ---------------------------------------------------------------------------
// Binding, saving and restoring (both switch implementations)
// ---------------------------------------------------------------------------

Fiber::Fiber(Entry entry, void* arg, std::size_t stack_bytes) : entry_(entry), arg_(arg) {
  const std::size_t ps = page_bytes();
  if (stack_bytes > (std::size_t{1} << 31)) throw std::invalid_argument("fiber stack too large");
  if (stack_bytes < 16 * 1024) stack_bytes = 16 * 1024;
  stack_bytes_ = static_cast<std::uint32_t>((stack_bytes + ps - 1) / ps * ps);
  EXASIM_TSAN_FIBER_CREATE(impl_);
}

void Fiber::bind() {
  FiberStack& st = t_stack != nullptr ? *t_stack : default_stack(stack_bytes_);
  if (st.base_ == nullptr) {
    st.map(stack_bytes_);
  } else if (st.bytes_ < stack_bytes_) {
    throw std::logic_error("fiber needs a larger stack than the one in use");
  }
  stack_ = &st;
  ++st.fibers_;
  occupy();
  make_entry_frame();
}

void Fiber::occupy() {
  FiberStack& st = *stack_;
  // The frames copied out or over leave their redzone poison behind in
  // ASan's shadow of the stack; it must not trip the next occupant.
  EXASIM_ASAN_UNPOISON(st.base_, st.bytes_);
  if (st.occupant_ != nullptr) st.occupant_->save();
  st.occupant_ = this;
}

std::size_t Fiber::live_bytes() const {
  return static_cast<std::size_t>(stack_->top() - static_cast<std::byte*>(impl_.self_sp));
}

void Fiber::save() {
  const std::size_t n = live_bytes();
  if (n > image_bytes_) {
    const std::size_t bytes = (n + kImageGrain - 1) / kImageGrain * kImageGrain;
    void* grown = util::pool_alloc(bytes);
    if (image_ == nullptr) {
      stack_->peak_images_ = std::max(stack_->peak_images_, ++stack_->live_images_);
    } else {
      util::pool_free(image_);
    }
    image_ = grown;
    image_bytes_ = static_cast<std::uint32_t>(bytes);
    util::count(util::Counter::kStackImageBytes, bytes + util::kPoolHeaderBytes);
  }
  std::memcpy(image_, impl_.self_sp, n);
  util::count(util::Counter::kStackBytesCopied, n);
}

void Fiber::switch_in() {
  if (stack_ == nullptr) {
    bind();
    return;
  }
  // A stack serves one LP group; resuming a fiber on another group's turn
  // would run two groups' fibers on one stack. The teardown unwind
  // (~Fiber) runs outside any group.
  if (t_stack != nullptr && t_stack != stack_ && !unwinding_) {
    throw std::logic_error("fiber resumed while another fiber stack is in use");
  }
  if (stack_->occupant_ == this) return;  // Its frames are still in place.
  prefetch();  // Overlaps with saving the occupant's frames.
  occupy();
  const std::size_t n = live_bytes();
  std::memcpy(impl_.self_sp, image_, n);
  util::count(util::Counter::kStackBytesCopied, n);
}

void Fiber::switched_out() {
  if (!finished_) return;
  stack_->occupant_ = nullptr;
  drop_image();
}

void Fiber::drop_image() {
  if (image_ == nullptr) return;
  util::pool_free(image_);
  image_ = nullptr;
  image_bytes_ = 0;
  --stack_->live_images_;
}

void Fiber::prefetch() const {
  if (stack_ == nullptr || finished_ || stack_->occupant_ == this) return;
  const auto* image = static_cast<const std::byte*>(image_);
  const std::size_t n = live_bytes();
  for (std::size_t off = 0; off < n; off += 64) __builtin_prefetch(image + off);
}

void* Fiber::locate(void* addr, std::size_t bytes) {
  if (stack_ == nullptr || finished_ || stack_->occupant_ == this) return addr;
  const auto p = reinterpret_cast<std::uintptr_t>(addr);
  const auto low = reinterpret_cast<std::uintptr_t>(impl_.self_sp);
  const auto base = reinterpret_cast<std::uintptr_t>(stack_->base_);
  const auto top = reinterpret_cast<std::uintptr_t>(stack_->top());
  if (p < base || p >= top) return addr;  // Not stack memory.
  if (p < low || bytes > top - p) {
    throw std::logic_error("write outside a suspended fiber's live stack region");
  }
  return static_cast<std::byte*>(image_) + (p - low);
}

// ---------------------------------------------------------------------------
// Switching
// ---------------------------------------------------------------------------

#if defined(__x86_64__)

// First function every fiber executes (entered via `ret` from the switch),
// and the bottom frame of every suspended fiber's saved image: it keeps only
// the fiber pointer, read before the body could move it to another thread.
// Never returns: when the body finishes, control switches back to the
// resumer permanently.
void Fiber::enter() {
  Fiber* self = t_current;
  // First instructions on the fiber stack: commit the switch the resumer
  // started (asan_self_fake is null on first entry) and record where to
  // switch back to.
  EXASIM_ASAN_FINISH_SWITCH(self->impl_.asan_self_fake, &self->impl_.asan_caller_bottom,
                            &self->impl_.asan_caller_size);
  try {
    self->entry_(self->arg_);
  } catch (const Unwind&) {
    // ~Fiber is draining an abandoned fiber; the unwind already ran the
    // suspended frames' destructors — just exit the fiber.
  }
  self->finished_ = true;
  EXASIM_TSAN_SWITCH_TO_CALLER(self->impl_);
  // Null save slot: the fiber is exiting for good, so ASan may free its fake
  // stack frames instead of preserving them.
  EXASIM_ASAN_START_SWITCH(nullptr, self->impl_.asan_caller_bottom, self->impl_.asan_caller_size);
  // The saved stack pointer of a finished fiber is never read again.
  exasim_ctx_switch(&self->impl_.self_sp, self->impl_.caller_sp, nullptr);
  std::abort();  // Unreachable: a finished fiber is never resumed.
}

void Fiber::make_entry_frame() {
  // Craft the initial stack so the first switch `ret`s into enter() with
  // the ABI-required alignment: the return-address slot sits on a 16-byte
  // boundary, with six zeroed callee-saved slots below it. Above it, the
  // null "return address" of enter() ends an unwinder's walk. Every byte
  // up to the top is copied at switches, so the frame sits right below it.
  auto* slots = reinterpret_cast<void**>(stack_->top()) - 2;
  slots[1] = nullptr;
  *slots = reinterpret_cast<void*>(&Fiber::enter);
  for (int i = 1; i <= 6; ++i) *(slots - i) = nullptr;  // rbp,rbx,r12-r15.
  impl_.self_sp = slots - 6;
}

void Fiber::resume() {
  if (finished_) throw std::logic_error("resume() on finished fiber");
  if (t_current != nullptr) throw std::logic_error("nested fiber resume on one thread");
  switch_in();
  started_ = true;
  t_current = this;
  util::count(util::Counter::kFiberResumes);
  EXASIM_TSAN_FIBER_SAVE_CALLER(impl_);
  EXASIM_TSAN_SWITCH_TO_FIBER(impl_);
  EXASIM_ASAN_START_SWITCH(&impl_.asan_caller_fake, stack_->base_, stack_->bytes_);
  exasim_ctx_switch(&impl_.caller_sp, impl_.self_sp, this);
  EXASIM_ASAN_FINISH_SWITCH(impl_.asan_caller_fake, nullptr, nullptr);
  // The fiber yielded or finished; either way this thread runs no fiber.
  t_current = nullptr;
  switched_out();
}

void Fiber::yield() {
  Fiber* self = t_current;
  if (self == nullptr) throw_yield_outside_fiber();
  EXASIM_TSAN_SWITCH_TO_CALLER(self->impl_);
  EXASIM_ASAN_START_SWITCH(&self->impl_.asan_self_fake, self->impl_.asan_caller_bottom,
                           self->impl_.asan_caller_size);
  // Resumed again, possibly on another thread and from a different caller
  // stack than last time. The resume hands this fiber back, so this frame,
  // which every suspended image holds, keeps nothing across the switch.
  self = static_cast<Fiber*>(exasim_ctx_switch(&self->impl_.self_sp, self->impl_.caller_sp,
                                               nullptr));
  EXASIM_ASAN_FINISH_SWITCH(self->impl_.asan_self_fake, &self->impl_.asan_caller_bottom,
                            &self->impl_.asan_caller_size);
  if (self->unwinding_) throw_unwind();
}

#else  // ucontext fallback

void Fiber::enter() { std::abort(); }  // Unused on this path.

namespace {

/// Bytes kept below yield()'s locals as part of the live region: the rest of
/// yield()'s frame and swapcontext's, whose saved stack pointer the portable
/// interface does not expose.
constexpr std::uintptr_t kSwapMargin = 512;

void trampoline(unsigned hi, unsigned lo) {
  auto ptr = (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo);
  auto* self = reinterpret_cast<Fiber*>(ptr);
  self->ucontext_body();
  // Returning lets ucontext switch to uc_link (the caller context).
}

}  // namespace

void Fiber::make_entry_frame() {
  if (::getcontext(&impl_.self) != 0) throw std::runtime_error("getcontext failed");
  impl_.self.uc_stack.ss_sp = stack_->base_;
  impl_.self.uc_stack.ss_size = stack_->bytes_;
  impl_.self.uc_link = &impl_.caller;

  // makecontext only passes ints; split the this-pointer into two 32-bit
  // halves (the portable ucontext idiom).
  auto ptr = reinterpret_cast<std::uintptr_t>(this);
  ::makecontext(&impl_.self, reinterpret_cast<void (*)()>(&trampoline), 2,
                static_cast<unsigned>(ptr >> 32), static_cast<unsigned>(ptr & 0xffffffffu));
  // makecontext builds its frame at the top; a fiber that never ran is
  // never saved, so this only has to be a valid low end.
  impl_.self_sp = stack_->base_;
}

void Fiber::resume() {
  if (finished_) throw std::logic_error("resume() on finished fiber");
  if (t_current != nullptr) throw std::logic_error("nested fiber resume on one thread");
  switch_in();
  started_ = true;
  t_current = this;
  util::count(util::Counter::kFiberResumes);
  EXASIM_TSAN_FIBER_SAVE_CALLER(impl_);
  EXASIM_TSAN_SWITCH_TO_FIBER(impl_);
  EXASIM_ASAN_START_SWITCH(&impl_.asan_caller_fake, stack_->base_, stack_->bytes_);
  const int failed = ::swapcontext(&impl_.caller, &impl_.self);
  EXASIM_ASAN_FINISH_SWITCH(impl_.asan_caller_fake, nullptr, nullptr);
  // The fiber yielded or finished; either way this thread runs no fiber.
  t_current = nullptr;
  if (failed != 0) throw std::runtime_error("swapcontext failed");
  switched_out();
}

void Fiber::yield() {
  Fiber* self = t_current;
  if (self == nullptr) throw_yield_outside_fiber();
  // The live region's low end: below this frame's locals by the margin.
  volatile char mark = 0;
  const auto base = reinterpret_cast<std::uintptr_t>(self->stack_->base_);
  const auto low = reinterpret_cast<std::uintptr_t>(&mark) - kSwapMargin;
  self->impl_.self_sp = reinterpret_cast<void*>(low > base ? low : base);
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
  if (self->unwinding_) throw_unwind();
}

#endif

void Fiber::ucontext_body() {
  // First statements on the fiber stack: commit the switch the resumer
  // started (asan_self_fake is null on first entry).
  EXASIM_ASAN_FINISH_SWITCH(impl_.asan_self_fake, &impl_.asan_caller_bottom,
                            &impl_.asan_caller_size);
  try {
    entry_(arg_);
  } catch (const Unwind&) {
    // ~Fiber is draining an abandoned fiber; the unwind already ran the
    // suspended frames' destructors — just exit the fiber.
  }
  finished_ = true;
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
  // resume another one, so there the frames are abandoned.
  if (started_ && !finished_ && t_current == nullptr) {
    unwinding_ = true;
    resume();
  }
  EXASIM_TSAN_FIBER_DESTROY(impl_);
  if (stack_ != nullptr) {
    if (stack_->occupant_ == this) stack_->occupant_ = nullptr;
    --stack_->fibers_;
  }
  drop_image();
}

bool Fiber::in_fiber() { return t_current != nullptr; }

}  // namespace exasim
