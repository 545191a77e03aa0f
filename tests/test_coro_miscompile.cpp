// Toolchain canary for the GCC 12.2 -O2 co_return miscompile: when the
// emplace of a co_returned value into the coroutine frame's std::optional
// is inlined into the coroutine body, the stored value can read back as
// garbage after the continuation resumes (suppressed by -fno-tree-pre /
// -fno-tree-vectorize — an optimiser frame-layout bug, not UB). sim::Task
// (sim/task.hpp) is void-only, so the repo has no value hand-off left to
// miscompile; this file keeps the repro for anyone who brings one back.
//
// It clones a value-returning Task type with no workaround and drives the
// exact hand-off pattern: a value-returning co_return handed to a
// continuation via symmetric transfer, resumed from a scheduler loop. The
// guard is compile-time:
//
//   * On GCC <= 12 with optimisation, a corrupted read SKIPs (known
//     toolchain bug); a clean read still passes — the repro is
//     inlining-heuristic dependent, and a pass here does NOT make
//     value-returning coroutines safe on this toolchain.
//   * On GCC >= 13 (or any other compiler) the checks are hard: a pass
//     there means the toolchain has moved past the bug.
//
// The file is also the first consumer of the wall-clock watchdog
// (sim/watchdog.hpp): the second test wedges this same driver loop on
// purpose — a coroutine that suspends and schedules nobody, the exact
// symptom the miscompile family produces — and pins that the watchdog
// trips, names the silent driver slot, and that `ftdiag stuck` decodes
// the black-box dump to the same verdict with exit code 1.
#include <gtest/gtest.h>

#include <chrono>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "sim/watchdog.hpp"
#include "tools/ftdiag.hpp"

namespace {

template <typename T>
class MiniTask;

struct MiniPromiseBase {
  std::coroutine_handle<> continuation = std::noop_coroutine();
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }
  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      return h.promise().continuation;
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }
};

template <typename T>
struct MiniPromise : MiniPromiseBase {
  std::optional<T> value;
  MiniTask<T> get_return_object();
  // Deliberately NO [[gnu::noinline]] (the call boundary that hides the
  // bug): this is the configuration a value-returning task would ship.
  void return_value(T&& v) { value.emplace(std::move(v)); }
  void return_value(const T& v) { value.emplace(v); }
};

template <>
struct MiniPromise<void> : MiniPromiseBase {
  MiniTask<void> get_return_object();
  void return_void() {}
};

template <typename T = void>
class [[nodiscard]] MiniTask {
 public:
  using promise_type = MiniPromise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  MiniTask() = default;
  explicit MiniTask(Handle h) : handle_(h) {}
  MiniTask(MiniTask&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  MiniTask& operator=(MiniTask&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  MiniTask(const MiniTask&) = delete;
  MiniTask& operator=(const MiniTask&) = delete;
  ~MiniTask() { destroy(); }

  bool done() const { return !handle_ || handle_.done(); }
  void start() { handle_.resume(); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle handle;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> caller) noexcept {
        handle.promise().continuation = caller;
        return handle;
      }
      T await_resume() {
        if (handle.promise().exception)
          std::rethrow_exception(handle.promise().exception);
        if constexpr (!std::is_void_v<T>)
          return std::move(*handle.promise().value);
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

template <typename T>
MiniTask<T> MiniPromise<T>::get_return_object() {
  return MiniTask<T>(std::coroutine_handle<MiniPromise<T>>::from_promise(*this));
}

inline MiniTask<void> MiniPromise<void>::get_return_object() {
  return MiniTask<void>(
      std::coroutine_handle<MiniPromise<void>>::from_promise(*this));
}

// A cooperative yield point, resumed by the driver loop below — stands in
// for the simulator's recv suspension, so the continuation resume happens
// from scheduler context like in the real Machine.
struct YieldPoint {
  std::coroutine_handle<>* slot;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) noexcept { *slot = h; }
  void await_resume() const noexcept {}
};

std::coroutine_handle<> pending;

// The victim pattern: build a non-trivial value across a suspension point
// and co_return it by value. Under the bug, the emplace into the frame's
// optional is reordered/inlined such that the caller's await_resume reads
// garbage.
MiniTask<std::vector<std::uint64_t>> produce(std::uint64_t base,
                                             std::size_t count) {
  std::vector<std::uint64_t> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(base * 1000003u + i * i);
    if (i % 3 == 1) co_await YieldPoint{&pending};
  }
  co_return out;
}

MiniTask<std::uint64_t> accumulate(std::size_t rounds) {
  std::uint64_t sum = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<std::uint64_t> chunk = co_await produce(r, 8 + r % 5);
    sum = std::accumulate(chunk.begin(), chunk.end(), sum);
    co_await YieldPoint{&pending};
  }
  co_return sum;
}

std::uint64_t expected(std::size_t rounds) {
  std::uint64_t sum = 0;
  for (std::size_t r = 0; r < rounds; ++r)
    for (std::size_t i = 0; i < 8 + r % 5; ++i)
      sum += static_cast<std::uint64_t>(r) * 1000003u + i * i;
  return sum;
}

void drive_into(std::size_t rounds, std::uint64_t* out) {
  auto top = [](std::size_t n, std::uint64_t* sum) -> MiniTask<void> {
    *sum = co_await accumulate(n);
  };
  MiniTask<void> task = top(rounds, out);
  pending = nullptr;
  task.start();
  while (!task.done()) {
    const std::coroutine_handle<> next =
        std::exchange(pending, std::coroutine_handle<>{});
    ASSERT_TRUE(next) << "driver stalled";
    next.resume();
  }
}

#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ <= 12 && \
    defined(__OPTIMIZE__)
constexpr bool kKnownBuggyToolchain = true;
#else
constexpr bool kKnownBuggyToolchain = false;
#endif

TEST(CoroMiscompile, ValueCoReturnSurvivesContinuationResume) {
  for (const std::size_t rounds : {1u, 4u, 16u, 64u}) {
    std::uint64_t got = 0;
    drive_into(rounds, &got);
    const std::uint64_t want = expected(rounds);
    if (kKnownBuggyToolchain && got != want) {
      GTEST_SKIP() << "GCC " << __GNUC__ << "." << __GNUC_MINOR__
                   << " -O co_return miscompile still reproduces (got "
                   << got << ", want " << want
                   << "); keep sim::Task void-only on this toolchain";
    }
    EXPECT_EQ(got, want) << "rounds=" << rounds;
  }
}

// A coroutine exhibiting the hang symptom: it suspends at a point that
// registers no continuation anywhere, so the driver loop's `pending`
// slot stays empty forever. (A destroyed-while-suspended frame is fine;
// MiniTask's destructor cleans it up.)
MiniTask<void> wedged() {
  co_await YieldPoint{&pending};   // resumable once...
  co_await std::suspend_always{};  // ...then wedged for good
}

TEST(CoroMiscompile, WatchdogCatchesTheInducedDriverHangAndNamesIt) {
  using namespace ftsort;

  sim::WatchdogConfig cfg;
  cfg.enabled = true;
  cfg.interval_ms = 5;
  cfg.deadline_ms = 150;  // floor; measured-progress scaling can only raise
  cfg.abort_on_trip = true;
  sim::Watchdog wd(cfg);
  const std::size_t slot = wd.add_slot("driver");
  wd.start();

  pending = nullptr;
  MiniTask<void> task = wedged();
  task.start();
  wd.beat(slot);
  // The guarded driver loop: each resume beats the heartbeat; when the
  // wedge hits, the loop has nothing to resume and the beats stop.
  while (!task.done() && !wd.tripped()) {
    const std::coroutine_handle<> next =
        std::exchange(pending, std::coroutine_handle<>{});
    if (next) {
      next.resume();
      wd.beat(slot);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_FALSE(task.done()) << "the wedge must not complete";
  EXPECT_TRUE(wd.tripped());
  wd.stop();

  const sim::WatchdogReport rep = wd.report();
  EXPECT_EQ(rep.trips, 1u);
  EXPECT_EQ(rep.near_misses, 0u);
  EXPECT_GE(rep.stall_ms, static_cast<std::uint64_t>(cfg.deadline_ms));
  ASSERT_EQ(rep.slots.size(), 1u);
  EXPECT_EQ(rep.slots[0].label, "driver");
  EXPECT_FALSE(rep.slots[0].terminal);
  EXPECT_GE(rep.slots[0].beats, 2u);  // start + the one good resume

  // Black-box dump -> ftdiag stuck: exit 1 (a trip is recorded) and the
  // decoded report blames the driver slot, not some retired thread.
  const std::string path = testing::TempDir() + "coro_wedge_dump.json";
  ASSERT_TRUE(sim::write_watchdog_dump(path, rep, sim::WatchdogDumpContext{}));
  const char* argv[] = {"ftdiag", "stuck", path.c_str()};
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(tools::run_cli(3, argv, out, err), 1) << err.str();
  EXPECT_NE(out.str().find("most silent: driver"), std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("STUCK"), std::string::npos);
}

}  // namespace
