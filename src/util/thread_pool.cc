#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>

namespace hcpath {

namespace {
/// Identifies the pool/worker the current thread belongs to, so Submit from
/// inside a task targets the submitter's own deque and TryRunOneTask scans
/// starting from it.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local size_t tls_worker = 0;
}  // namespace

size_t ThreadPool::EffectiveThreads(int requested) {
  if (requested > 0) return static_cast<size_t>(requested);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::shared_ptr<ThreadPool> ThreadPool::Shared(size_t num_workers) {
  // Per-size cache so callers alternating between sizes don't churn
  // threads; idle pools cost only sleeping threads. The set of distinct
  // sizes a process requests is tiny in practice.
  static std::mutex mu;
  static std::map<size_t, std::shared_ptr<ThreadPool>> cache;
  std::lock_guard<std::mutex> lk(mu);
  std::shared_ptr<ThreadPool>& slot = cache[num_workers];
  if (slot == nullptr) slot = std::make_shared<ThreadPool>(num_workers);
  return slot;
}

std::shared_ptr<ThreadPool> ThreadPool::ForNumThreads(int num_threads) {
  const size_t compute = num_threads == 1 ? 1 : EffectiveThreads(num_threads);
  if (compute <= 1) return nullptr;
  return Shared(compute - 1);
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = EffectiveThreads(0);
  queues_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<TaskQueue>());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  size_t qi;
  if (tls_pool == this) {
    qi = tls_worker;
  } else {
    qi = next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  }
  // pending_ goes up before the push so a concurrent Pop can never drive it
  // below zero; the empty wake_mu_ critical section pairs with the waiters'
  // predicate check so the notify cannot be missed.
  pending_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(queues_[qi]->mu);
    queues_[qi]->tasks.push_back(std::move(fn));
  }
  { std::lock_guard<std::mutex> lk(wake_mu_); }
  wake_cv_.notify_one();
}

bool ThreadPool::Pop(size_t qi, bool owner, std::function<void()>* out) {
  TaskQueue& q = *queues_[qi];
  std::lock_guard<std::mutex> lk(q.mu);
  if (q.tasks.empty()) return false;
  if (owner) {
    *out = std::move(q.tasks.back());
    q.tasks.pop_back();
  } else {
    *out = std::move(q.tasks.front());
    q.tasks.pop_front();
  }
  pending_.fetch_sub(1, std::memory_order_release);
  return true;
}

bool ThreadPool::RunOneFrom(size_t home) {
  std::function<void()> task;
  const size_t nq = queues_.size();
  for (size_t i = 0; i < nq; ++i) {
    const size_t qi = (home + i) % nq;
    if (Pop(qi, /*owner=*/i == 0, &task)) {
      task();
      return true;
    }
  }
  return false;
}

bool ThreadPool::TryRunOneTask() {
  const size_t home = tls_pool == this ? tls_worker : 0;
  return RunOneFrom(home);
}

void ThreadPool::WorkerLoop(size_t self) {
  tls_pool = this;
  tls_worker = self;
  while (true) {
    if (RunOneFrom(self)) continue;
    std::unique_lock<std::mutex> lk(wake_mu_);
    if (stop_ && pending_.load(std::memory_order_acquire) == 0) return;
    wake_cv_.wait(lk, [this] {
      return stop_ || pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_ && pending_.load(std::memory_order_acquire) == 0) return;
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  const size_t nw = workers_.size();

  struct State {
    std::atomic<size_t> next{0};       // first unclaimed index
    std::atomic<size_t> remaining;     // indices not yet finished
    std::mutex mu;
    std::condition_variable done;
    std::exception_ptr error;
    size_t error_index;
  };
  auto state = std::make_shared<State>();
  state->remaining.store(n, std::memory_order_relaxed);
  state->error_index = n;

  // Dynamic-grain scheduling: one self-draining body per worker pulls index
  // ranges off a shared cursor, so a 256-item loop costs ~nw queue
  // operations instead of 256, while skewed items still spread (small
  // grains re-balance; a body stuck on a long item simply claims no more).
  const size_t grain = std::max<size_t>(1, n / (16 * (nw + 1)));
  auto body = [state, &fn, n, grain] {
    while (true) {
      const size_t begin =
          state->next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) return;
      const size_t end = std::min(begin + grain, n);
      for (size_t i = begin; i < end; ++i) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lk(state->mu);
          if (i < state->error_index) {
            state->error_index = i;
            state->error = std::current_exception();
          }
        }
      }
      const size_t batch = end - begin;
      if (state->remaining.fetch_sub(batch, std::memory_order_acq_rel) ==
          batch) {
        std::lock_guard<std::mutex> lk(state->mu);
        state->done.notify_all();
      }
    }
  };

  // No point queueing more bodies than there are grains beyond the one
  // stream the caller drains itself: surplus bodies would only wake, see an
  // exhausted cursor, and exit.
  const size_t num_grains = (n + grain - 1) / grain;
  const size_t bodies = std::min(nw, num_grains - 1);
  for (size_t w = 0; w < bodies; ++w) Submit(body);
  // The caller works too: drain the cursor inline (which also makes nested
  // ParallelFor calls from inside tasks deadlock-free), then keep serving
  // other queued tasks — e.g. a sibling ParallelFor's bodies — while
  // stragglers finish. The timed wait is a backstop for the window where
  // the last ranges are already running on workers and nothing is queued.
  body();
  while (state->remaining.load(std::memory_order_acquire) != 0) {
    if (!TryRunOneTask()) {
      std::unique_lock<std::mutex> lk(state->mu);
      state->done.wait_for(lk, std::chrono::milliseconds(1), [&state] {
        return state->remaining.load(std::memory_order_acquire) == 0;
      });
    }
  }
  // Move the error out before rethrowing. A worker may drop the last
  // reference to `state` after this call returns; if `state` still held
  // the exception, that worker could free it after the caller's handler
  // read it, ordered only by the exception's refcount, whose atomics in
  // the uninstrumented libstdc++ ThreadSanitizer cannot see (it reports a
  // race). Moved out, the exception is freed on the caller's thread.
  std::exception_ptr error = std::move(state->error);
  if (error) std::rethrow_exception(error);
}

}  // namespace hcpath
