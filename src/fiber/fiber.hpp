#pragma once

#include <cstddef>
#include <cstdint>

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

class Fiber;

/// A guarded stack that fibers take turns on (DESIGN.md §9, "Copying
/// stacks"). Only one fiber's frames live on it at a time, its occupant; the
/// others wait in their saved images. One anonymous mmap with a PROT_NONE
/// guard page below it, so running off the low end faults (SIGSEGV) instead
/// of scribbling over a neighbouring mapping. It is mapped when the first
/// fiber binds to it, at that fiber's stack size; a destroyed stack's mapping
/// is parked, touched pages intact, for the next stack of its size.
///
/// The Engine owns one (pdes/engine.hpp). A fiber binds to the
/// stack in use on its thread when it is first resumed (see Use), or to the
/// thread's default stack of its size if none is. It stays bound: its saved
/// image holds absolute stack addresses. A stack must outlive every fiber
/// bound to it, and must be used by one thread at a time.
class FiberStack {
 public:
  FiberStack() = default;
  /// Aborts if a fiber bound to it is still alive.
  ~FiberStack();
  FiberStack(const FiberStack&) = delete;
  FiberStack& operator=(const FiberStack&) = delete;

  /// Writable bytes (0 until mapped).
  std::size_t bytes() const { return bytes_; }

  /// Peak number of saved images its fibers held at once since the last
  /// reset_peak_images().
  std::size_t peak_images() const { return peak_images_; }
  /// Starts a new peak at the images alive now.
  void reset_peak_images() { peak_images_ = live_images_; }

  /// Selects `stack` for the fibers first resumed on this thread while the
  /// Use is alive. Uses nest.
  class Use {
   public:
    explicit Use(FiberStack& stack);
    ~Use();
    Use(const Use&) = delete;
    Use& operator=(const Use&) = delete;

   private:
    FiberStack* prev_;
  };

 private:
  friend class Fiber;

  void map(std::size_t bytes);
  std::byte* top() const { return base_ + bytes_; }

  std::byte* base_ = nullptr;  ///< Low end of the writable region.
  std::size_t bytes_ = 0;
  Fiber* occupant_ = nullptr;  ///< Fiber whose live frames are on the stack.
  std::size_t fibers_ = 0;     ///< Fibers bound and not yet destroyed.
  /// Saved images its fibers hold, and the high water of that count.
  std::size_t live_images_ = 0;
  std::size_t peak_images_ = 0;
};

/// Cooperative user-space thread (xSim-style: "each simulated MPI rank has
/// its own full thread context — CPU registers, stack, heap, and global
/// variables" — we provide registers + stack; heap/globals are shared, which
/// is sufficient because simulated processes keep their state in per-process
/// objects).
///
/// Fibers copy their stacks (DESIGN.md §9): every fiber runs on its
/// FiberStack, and a switch that changes the stack's occupant saves the old
/// occupant's live frames, [saved sp, top), into that fiber's image and
/// copies the new one's image back to the same addresses. A suspended
/// simulated rank thus costs one image of its deepest live frames (576 B
/// for modeled heat3d under exasim_run), and every rank runs above a guard
/// page. A fiber that never ran has no image.
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
/// that thread's thread-local resumer slot — and to one FiberStack for its
/// life. The engine satisfies both by construction: a simulated process's
/// fiber is only ever resumed by its engine's run(), on that engine's
/// stack.
class Fiber {
 public:
  /// The body: a plain function and its argument, 16 bytes inline, so a
  /// fiber is no heap block of its own and entering it costs one indirect
  /// call.
  using Entry = void (*)(void*);

  /// Thrown through a suspended fiber's frames when the fiber is destroyed
  /// before its body finished (see ~Fiber), so frame-held resources are
  /// released by ordinary stack unwinding. The entry trampoline catches it;
  /// bodies must let it propagate (don't swallow it in a catch(...)).
  struct Unwind {};

  /// stack_bytes is rounded up to the page size; minimum 16 KiB. It sizes
  /// the stack the fiber binds to when that stack is mapped by this fiber,
  /// and a fiber never binds to a smaller one.
  Fiber(Entry entry, void* arg, std::size_t stack_bytes = 128 * 1024);

  /// Runs `body()`, a callable the caller keeps alive until the fiber is
  /// destroyed: it is referenced, not copied (so a temporary does not bind).
  template <class F>
  explicit Fiber(F& body, std::size_t stack_bytes = 128 * 1024)
      : Fiber([](void* f) { (*static_cast<F*>(f))(); }, &body, stack_bytes) {}

  /// If the fiber started but never finished, resumes it one last time with
  /// the unwind flag set: yield() throws Unwind, destructors in the
  /// suspended frames run, and the body exits. Skipped when called from
  /// inside a fiber (the stack frame is then abandoned unreleased).
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switches into the fiber. Must not be called from inside any fiber
  /// belonging to the same thread, and not after finished().
  void resume();

  /// Yields from inside the currently running fiber back to its resumer.
  static void yield();

  /// True if a fiber is currently running on this thread.
  static bool in_fiber();

  bool finished() const { return finished_; }
  bool started() const { return started_; }

  /// Stack bytes this fiber asked for.
  std::size_t stack_bytes() const { return stack_bytes_; }

  /// Where `bytes` at `addr` live right now. An address in this fiber's
  /// live stack region while another fiber occupies the stack is redirected
  /// to the same offset in the saved image; any other address is returned
  /// as is. For code outside the fiber writing into its memory, such as a
  /// message delivered into a receive buffer on its stack.
  void* locate(void* addr, std::size_t bytes);

  /// Starts fetching the saved image into the cache, for a resume that is
  /// likely to follow. No effect while the fiber's frames are in place.
  void prefetch() const;

  /// Internal entry shims (public only for the per-platform trampolines).
  /// On x86-64 a fiber's crafted entry frame returns into enter(), which
  /// finds its fiber through the thread's running-fiber slot.
  [[noreturn]] static void enter();
  void ucontext_body();

 private:
  /// Switch state, held inline so a fiber is no heap block of its own.
  struct Impl {
    /// Low end of the fiber's live stack region while suspended: the
    /// switch's saved stack pointer on x86-64, an estimate below yield()'s
    /// frame on the ucontext path.
    void* self_sp = nullptr;
#if defined(__x86_64__)
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

  void switch_in();         ///< Bind, or put the saved frames back in place.
  void bind();              ///< First resume: join a stack, build the entry frame.
  void make_entry_frame();  ///< Per switch implementation.
  void occupy();            ///< Save the stack's occupant and take its place.
  void save();              ///< Copy the live region out into the image.
  void switched_out();      ///< After a switch back: a finished fiber leaves.
  void drop_image();
  std::size_t live_bytes() const;  ///< [impl_.self_sp, top of the stack).

  Impl impl_;
  Entry entry_;
  void* arg_;
  FiberStack* stack_ = nullptr;  ///< Bound on first resume.
  void* image_ = nullptr;        ///< util::pool block of image_bytes_ bytes.
  std::uint32_t image_bytes_ = 0;
  std::uint32_t stack_bytes_ = 0;
  bool started_ = false;
  bool finished_ = false;
  bool unwinding_ = false;  ///< Set by ~Fiber; makes yield() throw Unwind.
};

}  // namespace exasim
