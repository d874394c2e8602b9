#include "thread_pool.hh"

#include <atomic>
#include <limits>
#include <memory>

#include "common/log.hh"
#include "common/options.hh"

namespace llcf {

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        panic("ThreadPool: zero workers requested");
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workAvailable_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (stopping_)
            panic("ThreadPool: submit after shutdown");
        queue_.push_back(std::move(job));
        ++inFlight_;
    }
    workAvailable_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workAvailable_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping_ and drained
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        try {
            job();
        } catch (...) {
            std::unique_lock<std::mutex> lock(mutex_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (--inFlight_ == 0)
                allIdle_.notify_all();
        }
    }
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allIdle_.wait(lock, [this] { return inFlight_ == 0; });
}

void
ThreadPool::rethrowIfFailed()
{
    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        err = firstError_;
        firstError_ = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    // One shared cursor instead of n queue entries: trials are usually
    // far more numerous than workers and the queue lock would serialise
    // very short trials.
    auto cursor = std::make_shared<std::atomic<std::size_t>>(0);
    const unsigned lanes =
        static_cast<unsigned>(std::min<std::size_t>(n, threadCount()));
    for (unsigned w = 0; w < lanes; ++w) {
        submit([cursor, n, &fn] {
            for (;;) {
                const std::size_t i =
                    cursor->fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                fn(i);
            }
        });
    }
    wait();
    rethrowIfFailed();
}

unsigned
resolveThreadCount(unsigned requested)
{
    if (requested > 0)
        return requested;
    const std::uint64_t env = envU64("LLCF_THREADS", 0);
    if (env > std::numeric_limits<unsigned>::max())
        fatal("LLCF_THREADS=%llu does not fit a worker count",
              static_cast<unsigned long long>(env));
    if (env > 0)
        return static_cast<unsigned>(env);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

} // namespace llcf
