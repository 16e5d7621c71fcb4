// Fixed-size worker pool for the batch scheduler.
//
// Deliberately minimal: submit_per_worker() enqueues one task per worker,
// wait_idle() blocks until the queue is drained AND every worker is
// parked.  The scheduler uses wait_idle() as its pass barrier, so tasks
// must not submit further tasks.
//
// Each worker additionally owns a core::workspace_cache -- the mutable
// per-thread counterpart of the shared immutable plan cache.  A task
// reaches its worker's cache through current_workspace_cache(), so
// sessions drained by that worker reuse hot analysis arenas without any
// locking (the cache never crosses threads).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "qpsa/core/workspace_cache.hpp"

namespace qpsa::service {

class thread_pool {
public:
    /// `threads == 0` selects hardware_concurrency (min 1).
    explicit thread_pool(std::size_t threads = 0);
    ~thread_pool();

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    std::size_t size() const noexcept { return workers_.size(); }

    /// Enqueue size() copies of `task`, invoked as task(0) .. task(W-1),
    /// under one lock with a single broadcast wake-up -- the scheduler's
    /// per-pass worker runners.  The index is a dense per-pass slot (deque
    /// affinity), not a thread identity.  Tasks must not throw (workers
    /// terminate on escaped exceptions) and must not call
    /// submit_per_worker()/wait_idle().
    void submit_per_worker(const std::function<void(std::size_t)>& task);

    /// Block until the queue is empty and all workers are parked.
    void wait_idle();

    /// The calling pool worker's workspace cache; nullptr on any thread
    /// that is not a pool worker (callers then fall back to private
    /// workspaces, keeping serial paths identical).
    static core::workspace_cache* current_workspace_cache() noexcept;

private:
    void worker_loop(core::workspace_cache* cache);

    std::mutex mu_;
    std::condition_variable cv_work_;   ///< signals workers: work or stop
    std::condition_variable cv_idle_;   ///< signals waiters: all drained
    std::deque<std::function<void()>> queue_;
    std::size_t active_ = 0;  ///< tasks currently executing
    bool stop_ = false;
    /// One workspace cache per worker (stable addresses; owned here so
    /// arenas outlive every task the worker will ever run).
    std::vector<std::unique_ptr<core::workspace_cache>> caches_;
    std::vector<std::thread> workers_;
};

}  // namespace qpsa::service
