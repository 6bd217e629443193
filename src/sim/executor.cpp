#include "sim/executor.hpp"

#include <cstdlib>
#include <limits>

#include "util/assert.hpp"

namespace hybrid {

u32 resolve_threads(const sim_options& opts) {
  if (opts.threads != 0) return opts.threads;
  if (const char* env = std::getenv("HYBRID_THREADS")) {
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    // Values a u32 cannot hold fall through to auto like any other garbage.
    if (end != env && *end == '\0' && v > 0 &&
        v <= std::numeric_limits<u32>::max())
      return static_cast<u32>(v);
  }
  const u32 hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

round_executor::round_executor(sim_options opts)
    : threads_(resolve_threads(opts)) {}

round_executor::~round_executor() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void round_executor::spawn_workers() {
  // Lazily started on the first parallel job; threads_ - 1 workers plus the
  // calling thread process the shards.
  if (!workers_.empty()) return;
  workers_.reserve(threads_ - 1);
  for (u32 i = 0; i + 1 < threads_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

void round_executor::worker_loop() {
  u64 seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop_ || (generation_ != seen_generation && pending_shards_ > 0);
      });
      if (stop_) return;
      seen_generation = generation_;
    }
    run_job(seen_generation);
  }
}

void round_executor::run_job(u64 my_generation) {
  for (;;) {
    shard_fn fn = nullptr;
    const void* body = nullptr;
    u32 shard = 0, begin = 0, end = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // A generation mismatch means this worker raced a completed job; its
      // shards are gone, so there is nothing left to claim.
      if (generation_ != my_generation || next_shard_ >= job_shards_) return;
      shard = next_shard_++;
      begin = shard_begin(job_n_, shard);
      end = shard_begin(job_n_, shard + 1);
      fn = job_fn_;
      body = job_body_;
    }
    try {
      if (begin < end) fn(body, shard, begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    bool last;
    {
      // The generation cannot have moved here: for_shards does not return
      // (and thus no new job can start) until pending_shards_ hits zero,
      // which requires this very decrement.
      std::lock_guard<std::mutex> lock(mu_);
      last = --pending_shards_ == 0;
    }
    if (last) done_cv_.notify_all();
  }
}

void round_executor::dispatch(u32 n, shard_fn fn, const void* body) {
  // Dispatch is not reentrant: a step calling back into the executor would
  // clobber the in-flight job and sum_nodes' slots, at any thread count.
  HYB_REQUIRE(!busy_, "nested round_executor dispatch from inside a step");
  if (n == 0) return;
  const u32 shards = shard_count(n);
  if (partial_.size() < shards) partial_.resize(shards);
  busy_ = true;
  struct clear_on_exit {
    bool& flag;
    ~clear_on_exit() { flag = false; }
  } clear{busy_};
  if (shards == 1) {
    fn(body, 0, 0, n);
    return;
  }
  spawn_workers();
  u64 gen;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_fn_ = fn;
    job_body_ = body;
    job_n_ = n;
    job_shards_ = shards;
    next_shard_ = 0;
    pending_shards_ = shards;
    first_error_ = nullptr;
    gen = ++generation_;
  }
  work_cv_.notify_all();
  run_job(gen);  // the caller is a worker too
  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return pending_shards_ == 0; });
    err = first_error_;
    first_error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace hybrid
