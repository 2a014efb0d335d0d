/**
 * @file
 * The one ordered parallel executor. Every fan-out in the simulator —
 * the sweep engine's runs, the fleet's device lifetimes, GENESIS' knob
 * grid, a compression's per-layer factorizations and a dataset's
 * teacher labels — runs through util::parallelFor:
 *
 *     util::parallelFor(n, workers,
 *                       [&](u64 i, u32 worker) { slot[i] = work(i); },
 *                       [&](u64 i) { sink.add(slot[i]); });
 *
 * - The caller is worker 0; workers - 1 helper threads join it.
 * - Indices are handed out in ascending order by an atomic cursor, so
 *   uneven tasks load-balance.
 * - The optional emit(i) sees 0..n-1 in order: whichever worker
 *   completes the contiguous finished prefix flushes it under one
 *   lock.
 * - If a task (or emit) throws, no new index is handed out; once every
 *   worker has stopped, the exception of the lowest index is rethrown
 *   in the caller. Every index below it has run, so that is the
 *   exception a serial loop would have thrown. Emit stops before it.
 * - A loop started from inside a worker (a zoo build inside a fleet
 *   worker, the per-layer fan inside a GENESIS knob point) runs inline
 *   on that worker, so nested fans neither deadlock nor oversubscribe.
 */

#ifndef SONIC_UTIL_PARALLEL_HH
#define SONIC_UTIL_PARALLEL_HH

#include <functional>

#include "util/types.hh"

namespace sonic::util
{

/** The cores of the host: std::thread::hardware_concurrency, >= 1. */
u32 hardwareWorkers();

/**
 * Workers for a cold-start fan (per-layer compression, dataset
 * labels): the caller plus one helper, capped by the cores. The paper
 * models' factorizations and labels come from the build-time table
 * (tensor/eigen_table.hh, dnn/label_table.hh), so this fan matters on
 * a miss: another seed, a loaded or synthetic model. There a teacher
 * has two dominant factorizations, so a second worker takes almost all
 * of the gain, and every further thread would keep its own malloc
 * arena of freed factorization temporaries resident.
 */
u32 coldStartWorkers();

/**
 * Run fn(i, worker) exactly once for every i in [0, n), on
 * min(workers, n) workers (at least one; the caller is worker 0, and
 * worker < that count), then return. With emit, also call emit(i) for
 * every i in ascending order, each after fn(i) returned. See the file
 * comment for exceptions and nesting.
 */
void parallelFor(u64 n, u32 workers,
                 const std::function<void(u64 index, u32 worker)> &fn,
                 const std::function<void(u64 index)> &emit = {});

} // namespace sonic::util

#endif // SONIC_UTIL_PARALLEL_HH
