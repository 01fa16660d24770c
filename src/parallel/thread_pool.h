// Fixed-size thread pool with a futures-based task API.
//
// Deliberately minimal: one shared FIFO queue, no work stealing. Tasks are
// coarse — a MorselBatch worker, a sort chunk, a copy range: tens per
// operation — so a single mutex-protected queue is nowhere near contention;
// what matters is that Submit returns a std::future so callers compose
// fan-out/fan-in with plain standard-library types. Tasks must never block
// on other pool tasks (the pool has no nested-wait rescue); the parallel
// set-op code keeps all blocking on caller threads.
#ifndef TPSET_PARALLEL_THREAD_POOL_H_
#define TPSET_PARALLEL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace tpset {

/// A fixed set of worker threads draining one task queue.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(std::size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue and joins all workers. Pending tasks run to completion.
  ~ThreadPool();

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// Schedules `fn` and returns a future for its result. An exception thrown
  /// by the task is captured and rethrown by future::get(). Thread-safe.
  template <typename Fn, typename R = std::invoke_result_t<Fn&>>
  std::future<R> Submit(Fn fn) {
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> result = task->get_future();
    Enqueue([task]() { (*task)(); });
    return result;
  }

 private:
  void Enqueue(std::function<void()> job);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  /// True while the queue sits above the saturation threshold — edge-detects
  /// the "pool saturated" event so a sustained backlog emits once, not per
  /// enqueue (re-arms when the queue drains below half the threshold).
  bool saturated_ = false;
  std::vector<std::thread> workers_;
};

/// Runs body(t) for every t in [0, tasks): task 0 on the calling thread,
/// the rest on `pool` (which may be null when tasks is 1). Returns once all
/// have finished, rethrowing the first exception. The caller waits, so it
/// must not itself be a pool task.
template <typename Body>
void RunTasks(ThreadPool* pool, std::size_t tasks, const Body& body) {
  std::vector<std::future<void>> rest;
  rest.reserve(tasks - 1);
  for (std::size_t t = 1; t < tasks; ++t) {
    rest.push_back(pool->Submit([&body, t]() { body(t); }));
  }
  std::exception_ptr error;
  try {
    body(0);
  } catch (...) {
    error = std::current_exception();
  }
  for (std::future<void>& f : rest) {
    try {
      f.get();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace tpset

#endif  // TPSET_PARALLEL_THREAD_POOL_H_
