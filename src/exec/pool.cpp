#include "exec/pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

namespace pio::exec {

namespace {

thread_local bool tl_in_task = false;

/// RAII task-context marker: makes nested submission detectable (and
/// rejected) identically in serial and parallel execution.
class TaskScope {
 public:
  TaskScope() { tl_in_task = true; }
  ~TaskScope() { tl_in_task = false; }
  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;
};

}  // namespace

int resolve_threads(int requested) {
  long value = requested;
  if (value <= 0) {
    if (const char* env = std::getenv("PIO_THREADS"); env != nullptr && *env != '\0') {
      if (std::string(env) == "auto") {
        value = static_cast<long>(std::thread::hardware_concurrency());
      } else {
        char* end = nullptr;
        value = std::strtol(env, &end, 10);
        if (end == nullptr || *end != '\0') value = 0;  // garbage: fall back to serial
      }
    }
  }
  if (value <= 0) value = 1;
  return static_cast<int>(std::min<long>(value, 256));
}

/// One fan-out. Shared ownership between the submitting thread and every
/// worker that touches it: a worker waking up late (after the job already
/// completed) still holds a live object when it observes there is nothing
/// left to claim.
struct Job {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors;
  std::size_t completed = 0;  // guarded by Pool::Impl::mutex
};

struct Pool::Impl {
  std::mutex mutex;
  std::condition_variable wake;       // workers: new job or stop
  std::condition_variable finished;   // submitter: job fully drained
  std::shared_ptr<Job> job;           // current job; epoch bumps on publish
  std::uint64_t epoch = 0;
  bool stop = false;
  std::vector<std::thread> workers;  // piolint: allow(P1) — pool internals

  static void run_one(Job& job, std::size_t i) {
    TaskScope scope;
    try {
      (*job.body)(i);
    } catch (...) {
      job.errors[i] = std::current_exception();
    }
  }

  /// Claim and run tasks until the job is exhausted; account completions.
  void drain(const std::shared_ptr<Job>& job_ref) {
    std::size_t done = 0;
    for (;;) {
      const std::size_t i = job_ref->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job_ref->n) break;
      run_one(*job_ref, i);
      ++done;
    }
    if (done > 0) {
      std::lock_guard<std::mutex> lock(mutex);
      job_ref->completed += done;
      if (job_ref->completed == job_ref->n) finished.notify_all();
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      wake.wait(lock, [&] { return stop || epoch != seen; });
      if (stop) return;
      seen = epoch;
      // `job` may already be null: if the submitter (plus other workers)
      // drained everything and for_all reset it before this worker won the
      // mutex, the epoch still looks new but there is nothing to claim.
      const std::shared_ptr<Job> current = job;
      lock.unlock();
      if (current) drain(current);
      lock.lock();
    }
  }
};

Pool::Pool(int threads) : impl_(new Impl), threads_(resolve_threads(threads)) {
  impl_->workers.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int w = 1; w < threads_; ++w) {
    // piolint: allow(P1) — the pool is the sanctioned owner of raw threads.
    impl_->workers.emplace_back(std::thread([this] { impl_->worker_loop(); }));
  }
}

Pool::~Pool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->wake.notify_all();
  // piolint: allow(P1) — joining the pool's own workers.
  for (std::thread& worker : impl_->workers) worker.join();
  delete impl_;
}

bool Pool::in_task() { return tl_in_task; }

void Pool::for_all(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (in_task()) {
    throw std::logic_error(
        "exec::Pool: nested submission from a pool task (tasks must be independent "
        "leaf units of work)");
  }
  if (n == 0) return;

  const auto job = std::make_shared<Job>();
  job->body = &body;
  job->n = n;
  job->errors.resize(n);

  if (impl_->workers.empty() || n == 1) {
    // Serial path: same wrapper (task scope, per-index error capture), so
    // semantics cannot depend on the thread count.
    for (std::size_t i = 0; i < n; ++i) Impl::run_one(*job, i);
    job->completed = n;
  } else {
    {
      std::lock_guard<std::mutex> lock(impl_->mutex);
      impl_->job = job;
      ++impl_->epoch;
    }
    // Targeted wake: a job with fewer tasks than workers needs at most n - 1
    // helpers (the submitter drains too). Waking the surplus workers would
    // only make them contend for the mutex, find nothing to claim, and go
    // back to sleep.
    const std::size_t helpers = std::min(n - 1, impl_->workers.size());
    if (helpers == impl_->workers.size()) {
      impl_->wake.notify_all();
    } else {
      for (std::size_t w = 0; w < helpers; ++w) impl_->wake.notify_one();
    }
    impl_->drain(job);  // the submitting thread is worker 0
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->finished.wait(lock, [&] { return job->completed == job->n; });
    impl_->job.reset();
  }

  // Deterministic propagation: every task ran; the lowest submission index
  // wins regardless of which thread hit it first.
  for (std::exception_ptr& error : job->errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace pio::exec
