// Minimal coroutine task type for SPMD node programs.
//
// Every processor of the simulated multicomputer runs one `Task` program;
// blocking operations (message receive) suspend the coroutine and hand
// control back to the deterministic scheduler. Sub-routines that
// communicate are themselves Tasks and are composed with `co_await`, using
// symmetric transfer so deep call chains cost no stack. Every Task is one
// heap-allocated frame, so a loop that communicates belongs inside one
// Task, not a Task per iteration: sort::run_schedule walks a node's whole
// exchange list in one frame.
//
// A Task returns no value: results travel through caller-owned references
// (a node's block). GCC 12.2 at -O2 miscompiles the co_return value
// hand-off of value-returning coroutines, so keeping this type void-only
// leaves no value path to miscompile; tests/test_coro_miscompile.cpp keeps
// the standalone repro.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

#include "util/contracts.hpp"

namespace ftsort::sim {

/// An owning handle to a lazily-started coroutine. Move-only. Await it to
/// run it to completion; or `start()` it from a scheduler and poll `done()`.
class [[nodiscard]] Task {
 public:
  struct promise_type {
    std::coroutine_handle<> continuation = std::noop_coroutine();
    std::exception_ptr exception;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) noexcept {
        // Resume whoever co_awaited us; top-level tasks fall back to a noop
        // handle, returning control to the scheduler.
        return h.promise().continuation;
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() { exception = std::current_exception(); }
  };
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return !handle_ || handle_.done(); }

  /// Kick off a top-level task (scheduler use). The task runs until its
  /// first suspension point or completion.
  void start() {
    FTSORT_REQUIRE(valid());
    handle_.resume();
  }

  /// Rethrow any exception the finished task captured.
  void take_result() {
    FTSORT_REQUIRE(done() && valid());
    if (handle_.promise().exception)
      std::rethrow_exception(handle_.promise().exception);
  }

  /// Awaiter: suspends the caller, transfers control into this task, and
  /// resumes the caller when it finishes (symmetric transfer).
  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle handle;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> caller) noexcept {
        handle.promise().continuation = caller;
        return handle;
      }
      void await_resume() {
        if (handle.promise().exception)
          std::rethrow_exception(handle.promise().exception);
      }
    };
    return Awaiter{handle_};
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  Handle handle_ = nullptr;
};

}  // namespace ftsort::sim
