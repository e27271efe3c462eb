#include "util/worker_pool.hpp"

namespace quclear {

namespace {

/**
 * The pool whose workerMain is running on this thread, if any. Lets
 * parallelFor/submit detect same-pool re-entry (a task dispatching
 * onto the pool it runs on) and degrade to inline execution instead
 * of deadlocking on a fully occupied pool. Distinct pools stay
 * composable: a task running on pool A that owns a private pool B
 * still dispatches to B normally (the serve-mode layering).
 */
thread_local const WorkerPool *tls_running_pool = nullptr;

} // namespace

uint32_t
WorkerPool::resolveThreadCount(uint32_t requested)
{
    if (requested != 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? static_cast<uint32_t>(hw) : 1u;
}

WorkerPool::WorkerPool(uint32_t threads)
    : threadCount_(resolveThreadCount(threads))
{
    // Workers spawn lazily on the first parallel dispatch, so pools
    // created for inputs too small to ever dispatch cost nothing.
}

void
WorkerPool::ensureWorkers()
{
    if (!workers_.empty() || threadCount_ <= 1)
        return;
    workers_.reserve(threadCount_ - 1);
    for (uint32_t id = 0; id + 1 < threadCount_; ++id) {
        try {
            workers_.emplace_back([this, id] { workerMain(id); });
        } catch (const std::system_error &) {
            // Thread spawn failed (resource limits): degrade to the
            // workers that did start — results are thread-count
            // invariant by contract, so this only affects speed. The
            // already-running workers stay consistent because chunking
            // reads threadCount_ at dispatch time.
            threadCount_ = static_cast<uint32_t>(workers_.size()) + 1;
            break;
        }
    }
}

WorkerPool::~WorkerPool()
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
WorkerPool::parallelFor(size_t count,
                        const std::function<void(size_t, size_t)> &chunk)
{
    if (count == 0)
        return;
    if (tls_running_pool == this) {
        // Nested call from one of this pool's own workers: every other
        // worker may be busy with a sibling task, so dispatching could
        // wait forever. Inline execution is always result-identical.
        chunk(0, count);
        return;
    }
    if (threadCount_ > 1)
        ensureWorkers(); // may shrink threadCount_ on spawn failure
    if (threadCount_ <= 1 || count == 1) {
        chunk(0, count);
        return;
    }
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        job_ = &chunk;
        jobCount_ = count;
        pending_ = threadCount_ - 1;
        ++generation_;
        error_ = nullptr;
    }
    wake_.notify_all();

    // The calling thread takes the last chunk. A throwing chunk (on
    // any thread) must not skip the join barrier below — workers still
    // hold a reference to `chunk` — so exceptions are parked and the
    // first one rethrown only after every worker has drained.
    try {
        const size_t begin =
            static_cast<size_t>(threadCount_ - 1) * count / threadCount_;
        if (begin < count)
            chunk(begin, count);
    } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!error_)
            error_ = std::current_exception();
    }

    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return pending_ == 0; });
    job_ = nullptr;
    if (error_) {
        const std::exception_ptr error = error_;
        error_ = nullptr;
        lock.unlock();
        std::rethrow_exception(error);
    }
}

void
WorkerPool::submit(std::function<void()> task)
{
    if (tls_running_pool == this) {
        // Nested submit from one of this pool's own workers: run
        // inline (see parallelFor). Error parking needs the lock here
        // because other workers may park concurrently.
        try {
            task();
        } catch (...) {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (!taskError_)
                taskError_ = std::current_exception();
        }
        return;
    }
    if (threadCount_ > 1)
        ensureWorkers(); // may shrink threadCount_ on spawn failure
    if (threadCount_ <= 1) {
        // Inline execution: the sequential code path, same as
        // parallelFor on a single-thread pool. No workers exist, so
        // taskError_ needs no lock here.
        try {
            task();
        } catch (...) {
            if (!taskError_)
                taskError_ = std::current_exception();
        }
        return;
    }
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push_back(std::move(task));
        ++tasksPending_;
    }
    wake_.notify_one();
}

void
WorkerPool::drainTasks()
{
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return tasksPending_ == 0; });
    if (taskError_) {
        const std::exception_ptr error = taskError_;
        taskError_ = nullptr;
        lock.unlock();
        std::rethrow_exception(error);
    }
}

void
WorkerPool::workerMain(uint32_t id)
{
    tls_running_pool = this; // workers never outlive the pool (joined
                             // in the destructor), so no reset needed
    uint64_t seen = 0;
    for (;;) {
        const std::function<void(size_t, size_t)> *job = nullptr;
        std::function<void()> task;
        size_t count = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return stop_ || generation_ != seen || !tasks_.empty();
            });
            if (stop_)
                return;
            if (generation_ != seen) {
                // A parallelFor dispatch outranks queued tasks: every
                // worker owes its chunk before the barrier can clear.
                seen = generation_;
                job = job_;
                count = jobCount_;
            } else {
                task = std::move(tasks_.front());
                tasks_.pop_front();
            }
        }
        std::exception_ptr error;
        if (job) {
            const size_t begin =
                static_cast<size_t>(id) * count / threadCount_;
            const size_t end =
                static_cast<size_t>(id + 1) * count / threadCount_;
            if (begin < end) {
                try {
                    (*job)(begin, end);
                } catch (...) {
                    error = std::current_exception();
                }
            }
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                if (error && !error_)
                    error_ = error;
                --pending_;
            }
        } else {
            try {
                task();
            } catch (...) {
                error = std::current_exception();
            }
            {
                const std::lock_guard<std::mutex> lock(mutex_);
                if (error && !taskError_)
                    taskError_ = error;
                --tasksPending_;
            }
        }
        done_.notify_all();
    }
}

} // namespace quclear
