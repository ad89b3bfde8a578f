#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

// Sanitizer builds (the EXASIM_TSAN / EXASIM_ASAN presets) must announce
// every user-space stack switch; fiber.cpp says how. These select the extra
// switch-state fields only those builds carry.
#if defined(__SANITIZE_THREAD__)
#define EXASIM_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define EXASIM_TSAN_FIBERS 1
#endif
#endif

#if defined(__SANITIZE_ADDRESS__)
#define EXASIM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define EXASIM_ASAN_FIBERS 1
#endif
#endif

namespace exasim {

/// Cooperative user-space thread (xSim-style: "each simulated MPI rank has
/// its own full thread context — CPU registers, stack, heap, and global
/// variables" — we provide registers + stack; heap/globals are shared, which
/// is sufficient because simulated processes keep their state in per-process
/// objects).
///
/// Built on ucontext. Stacks are allocated with mmap(MAP_ANONYMOUS) and are
/// only *lazily* committed by the kernel, so tens of thousands of fibers with
/// generous virtual stacks stay cheap in physical memory (32,768 ranks x
/// 128 KiB virtual is 4 GiB virtual but typically < 300 MiB resident).
///
/// A fiber runs until it calls Fiber::yield() (from inside the fiber) or its
/// body returns. resume() switches into the fiber and returns when the fiber
/// yields or finishes. Exceptions escaping the body terminate the process by
/// design — simulated processes catch their own control-flow exceptions.
///
/// On x86-64 the context switch is a hand-rolled callee-saved-register swap
/// (~20 ns); elsewhere it falls back to ucontext (whose glibc implementation
/// pays two rt_sigprocmask system calls per switch).
///
/// Threading contract: a fiber is pinned to one native thread at a time —
/// yield() returns control to whichever thread last called resume(), via
/// that thread's thread-local resumer slot. The sharded engine satisfies
/// this by construction: each simulated process's fiber is only ever resumed
/// by the worker thread owning its LP group (the fiber is built with its
/// process but first entered on its kEvStart delivery, already on the
/// owning worker). Its pooled stack may have run another fiber on another
/// thread; the pool's lock orders the two.
class Fiber {
 public:
  using Body = std::function<void()>;

  /// Thrown through a suspended fiber's frames when the fiber is destroyed
  /// before its body finished (see ~Fiber), so frame-held resources are
  /// released by ordinary stack unwinding. The entry trampoline catches it;
  /// bodies must let it propagate (don't swallow it in a catch(...)).
  struct Unwind {};

  /// stack_bytes is rounded up to the page size; minimum 16 KiB.
  explicit Fiber(Body body, std::size_t stack_bytes = 128 * 1024);

  /// If the fiber started but never finished, resumes it one last time with
  /// the unwind flag set: yield() throws Unwind, destructors in the
  /// suspended frames run, and the body exits. Skipped when called from
  /// inside a fiber (the stack frame is then abandoned unreleased).
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switches into the fiber. Must not be called from inside any fiber
  /// belonging to the same thread, and not after finished(). On the way
  /// back, aborts the process if the fiber overflowed an unguarded stack
  /// (FiberStackPool's canary).
  void resume();

  /// Yields from inside the currently running fiber back to its resumer.
  static void yield();

  /// True if a fiber is currently running on this thread.
  static bool in_fiber();

  bool finished() const { return finished_; }
  bool started() const { return started_; }

  /// Virtual stack bytes reserved for this fiber.
  std::size_t stack_bytes() const { return stack_bytes_; }

  /// Internal entry shims (public only for the per-platform trampolines).
  [[noreturn]] void run_body_and_exit();
  void ucontext_body();

 private:
  /// Switch state, held inline so a fiber is no heap block of its own.
  struct Impl {
#if defined(__x86_64__)
    void* self_sp = nullptr;    ///< Fiber's saved stack pointer while suspended.
    void* caller_sp = nullptr;  ///< Resumer's saved stack pointer while fiber runs.
#else
    ucontext_t self{};
    ucontext_t caller{};
#endif
#if defined(EXASIM_TSAN_FIBERS)
    void* tsan_fiber = nullptr;   ///< TSan fiber handle.
    void* tsan_caller = nullptr;  ///< TSan handle of the resumer's context.
#endif
#if defined(EXASIM_ASAN_FIBERS)
    void* asan_self_fake = nullptr;    ///< Fiber's ASan fake stack while suspended.
    void* asan_caller_fake = nullptr;  ///< Resumer's fake stack while fiber runs.
    const void* asan_caller_bottom = nullptr;  ///< Resumer's stack bounds, learned
    std::size_t asan_caller_size = 0;          ///< on each entry into the fiber.
#endif
  };

  Impl impl_;
  Body body_;
  void* stack_ = nullptr;
  std::size_t stack_bytes_ = 0;
  bool stack_guarded_ = false;  ///< Guard page below stack_ (FiberStackPool).
  bool started_ = false;
  bool finished_ = false;
  bool unwinding_ = false;  ///< Set by ~Fiber; makes yield() throw Unwind.
};

}  // namespace exasim
