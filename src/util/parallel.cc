#include "util/parallel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "util/logging.hh"

namespace sonic::util
{

namespace
{

thread_local bool t_inWorker = false;

/** Marks the current thread as a parallelFor worker for its scope. */
class WorkerScope
{
  public:
    WorkerScope() : outer_(t_inWorker) { t_inWorker = true; }
    ~WorkerScope() { t_inWorker = outer_; }
    WorkerScope(const WorkerScope &) = delete;
    WorkerScope &operator=(const WorkerScope &) = delete;

  private:
    bool outer_;
};

} // namespace

u32
hardwareWorkers()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

u32
coldStartWorkers()
{
    return std::min(2u, hardwareWorkers());
}

void
parallelFor(u64 n, u32 workers,
            const std::function<void(u64, u32)> &fn,
            const std::function<void(u64)> &emit)
{
    if (n == 0)
        return;
    if (t_inWorker)
        workers = 1;
    workers = static_cast<u32>(std::clamp<u64>(workers, 1, n));

    std::atomic<u64> next{0};
    std::atomic<bool> stop{false};
    // Guards everything below: the finished flags, the emit cursor and
    // the lowest failing index with its exception.
    std::mutex mutex;
    std::vector<u8> finished(emit ? n : 0, 0);
    u64 emitted = 0;
    u64 failed_index = n;
    std::exception_ptr failure;

    const auto record_failure = [&](u64 i) {
        // Caller holds the lock.
        if (i < failed_index) {
            failed_index = i;
            failure = std::current_exception();
        }
        stop.store(true, std::memory_order_relaxed);
    };

    const auto work = [&](u32 worker) {
        WorkerScope scope;
        while (!stop.load(std::memory_order_relaxed)) {
            const u64 i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i, worker);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex);
                record_failure(i);
                return;
            }
            if (!emit)
                continue;
            std::lock_guard<std::mutex> lock(mutex);
            finished[i] = 1;
            while (emitted < failed_index && finished[emitted]) {
                try {
                    emit(emitted);
                } catch (...) {
                    record_failure(emitted);
                    return;
                }
                ++emitted;
            }
        }
    };

    std::vector<std::thread> helpers;
    helpers.reserve(workers - 1);
    for (u32 w = 1; w < workers; ++w) {
        try {
            helpers.emplace_back(work, w);
        } catch (const std::system_error &) {
            // No thread to be had: the workers already running (the
            // caller at least) cover every index.
            break;
        }
    }
    work(0);
    for (auto &helper : helpers)
        helper.join();

    if (failure)
        std::rethrow_exception(failure);
    SONIC_ASSERT(!emit || emitted == n, "parallelFor lost an index");
}

} // namespace sonic::util
