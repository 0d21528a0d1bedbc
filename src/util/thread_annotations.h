// Clang Thread Safety Analysis annotations and an annotated mutex wrapper.
//
// Every piece of shared mutable state in webcc declares which lock guards it
// (`WEBCC_GUARDED_BY`), and every function that touches guarded state
// declares what it must hold (`WEBCC_REQUIRES`). Under Clang the `tsa`
// preset turns these into compile errors (`-Wthread-safety -Werror`): a
// site-list touched outside its lock, a double-acquire, or a forgotten
// release fails the build instead of becoming a TSan-race lottery ticket.
// Under other compilers every macro expands to nothing and the wrappers
// degrade to plain std primitives — zero cost, zero behavior change.
//
// webcc code must use these wrappers instead of raw <mutex> primitives
// (enforced by webcc_lint's `raw-mutex` rule): raw std::mutex is invisible
// to the analysis, so a single unannotated lock would silently exempt the
// state it guards from the whole scheme.
//
// The annotation set mirrors the Clang documentation's canonical macro
// names (GUARDED_BY, REQUIRES, ACQUIRE/RELEASE, ...) with a WEBCC_ prefix.
#pragma once

#include <mutex>

#if defined(__clang__)
#define WEBCC_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define WEBCC_THREAD_ANNOTATION(x)  // no-op off-Clang
#endif

// A type that acts as a lock (our Mutex below).
#define WEBCC_CAPABILITY(x) WEBCC_THREAD_ANNOTATION(capability(x))
// An RAII type that acquires in its constructor, releases in its destructor.
#define WEBCC_SCOPED_CAPABILITY WEBCC_THREAD_ANNOTATION(scoped_lockable)

// Data members: which mutex guards this field / the data behind this pointer.
#define WEBCC_GUARDED_BY(x) WEBCC_THREAD_ANNOTATION(guarded_by(x))
#define WEBCC_PT_GUARDED_BY(x) WEBCC_THREAD_ANNOTATION(pt_guarded_by(x))

// Functions: the caller must hold / must not hold these capabilities.
#define WEBCC_REQUIRES(...) \
  WEBCC_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define WEBCC_REQUIRES_SHARED(...) \
  WEBCC_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define WEBCC_EXCLUDES(...) WEBCC_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Functions that acquire / release capabilities themselves.
#define WEBCC_ACQUIRE(...) \
  WEBCC_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define WEBCC_RELEASE(...) \
  WEBCC_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define WEBCC_TRY_ACQUIRE(...) \
  WEBCC_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

// Lock-ordering declarations and analysis escape hatches.
#define WEBCC_ACQUIRED_BEFORE(...) \
  WEBCC_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define WEBCC_ACQUIRED_AFTER(...) \
  WEBCC_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define WEBCC_ASSERT_CAPABILITY(x) \
  WEBCC_THREAD_ANNOTATION(assert_capability(x))
#define WEBCC_RETURN_CAPABILITY(x) WEBCC_THREAD_ANNOTATION(lock_returned(x))
#define WEBCC_NO_THREAD_SAFETY_ANALYSIS \
  WEBCC_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace webcc::util {

// std::mutex with a capability annotation, so `WEBCC_GUARDED_BY(mu_)`
// member declarations bind to it. Non-recursive, non-shared: webcc has no
// reader/writer locking (critical sections are short and metric reads are
// either atomics or take the same lock as writers).
class WEBCC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() WEBCC_ACQUIRE() { mu_.lock(); }
  void Unlock() WEBCC_RELEASE() { mu_.unlock(); }
  bool TryLock() WEBCC_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;  // webcc-lint: allow(raw-mutex) — the annotated wrapper itself
};

// RAII lock for Mutex; the only way webcc code takes a lock (the analysis
// sees scoped acquire/release pairs and flags any path that leaks one).
class WEBCC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) WEBCC_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() WEBCC_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace webcc::util
