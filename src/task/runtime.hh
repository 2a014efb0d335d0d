/**
 * @file
 * The task-based intermittent runtime substrate.
 *
 * A Program is a set of named tasks; a Scheduler executes them on a
 * Device, restarting the current task from its top after every power
 * failure (volatile locals reinitialize naturally because the task
 * function is re-entered). The Runtime object handed to each task
 * provides:
 *
 *  - Alpaca-style redo-logged writes to task-shared data, committed
 *    atomically at task transition under a non-volatile commit flag
 *    with replay-on-reboot (crash-consistent at every operation);
 *  - a progress beacon, used to distinguish tasks that are making
 *    non-volatile forward progress across failures (SONIC's loop
 *    continuation, TAILS' calibration) from genuinely non-terminating
 *    tasks (the paper's Base and over-sized tilings, Fig. 9b).
 */

#ifndef SONIC_TASK_RUNTIME_HH
#define SONIC_TASK_RUNTIME_HH

#include <functional>
#include <string>
#include <vector>

#include "arch/device.hh"
#include "arch/memory.hh"
#include "util/types.hh"

namespace sonic::task
{

/** Index of a task within a Program. kDone ends the program. */
using TaskId = i32;
constexpr TaskId kDone = -1;

class Runtime;

/** A task body: performs charged work, names its successor. */
using TaskFn = std::function<TaskId(Runtime &)>;

/** An ordered collection of tasks forming an intermittent program. */
class Program
{
  public:
    /** Register a task; returns its id. */
    TaskId
    addTask(std::string name, TaskFn fn)
    {
        tasks_.push_back({std::move(name), std::move(fn)});
        return static_cast<TaskId>(tasks_.size() - 1);
    }

    u32 numTasks() const { return static_cast<u32>(tasks_.size()); }

    const std::string &
    taskName(TaskId id) const
    {
        return tasks_[static_cast<u32>(id)].name;
    }

    const TaskFn &
    taskFn(TaskId id) const
    {
        return tasks_[static_cast<u32>(id)].fn;
    }

  private:
    struct TaskDef
    {
        std::string name;
        TaskFn fn;
    };

    std::vector<TaskDef> tasks_;
};

/**
 * Per-execution services available to task bodies. Owned by the
 * Scheduler; the redo log conceptually lives in FRAM (it survives
 * failures; uncommitted entries are discarded at reboot, exactly as in
 * Alpaca).
 */
class Runtime
{
  public:
    explicit Runtime(arch::Device &dev) : dev_(dev) {}

    arch::Device &dev() { return dev_; }

    /**
     * Report non-volatile forward progress (e.g., a loop-continuation
     * index value). The scheduler resets its failure counter whenever
     * the reported value changes, so a task may fail arbitrarily many
     * times without being declared non-terminating as long as it keeps
     * advancing.
     */
    void
    progress(u64 value)
    {
        if (value != lastProgress_) {
            lastProgress_ = value;
            progressed_ = true;
        }
    }

    /** @name Alpaca-style redo-logged task-shared accesses */
    /// @{

    /** Privatized write of arr[idx]; visible to logRead immediately,
     * applied to the home location only at commit. */
    void logWrite(arch::NvArray<i16> &arr, u32 idx, i16 value);

    /** Read of arr[idx] honoring earlier logged writes in this task. */
    i16 logRead(const arch::NvArray<i16> &arr, u32 idx);

    /** Privatized write of a task-shared scalar. */
    void logWrite(arch::NvVar<i32> &var, i32 value);
    void logWrite(arch::NvVar<i16> &var, i16 value);

    /** Read of a task-shared scalar honoring earlier logged writes. */
    i32 logRead(const arch::NvVar<i32> &var);
    i16 logRead(const arch::NvVar<i16> &var);

    /** Number of uncommitted log entries (diagnostics/tests). */
    u64 logSize() const { return log_.size(); }

    /** Slots in the host-side read index (diagnostics/tests). */
    u64 logIndexCapacity() const { return logIndex_.capacity(); }
    /// @}

  private:
    friend class Scheduler;

    struct LogEntry
    {
        enum Kind : u8 { Arr16, Var32, Var16 };
        Kind kind;
        void *target;
        u32 idx;
        i32 value;
    };

    /**
     * Host-side read index over log_: a flat open-addressed table
     * (linear probing) mapping each logged location (target, index,
     * kind) to its latest uncommitted value, so logRead is O(1)
     * instead of a reverse scan (Tile-128 carries hundred-entry logs
     * and pays a logRead per task-shared load). Host bookkeeping only;
     * the charged device costs in logRead/logWrite are unchanged.
     *
     * A slot is live only if its stamp equals the current generation,
     * so clear() is one increment. The table doubles when half full
     * and never shrinks, so once warm no insert allocates. The stamp
     * is a u64 bumped once per clear: even at one clear per nanosecond
     * it would take ~584 years to wrap, so a stale slot can never be
     * mistaken for a live one.
     */
    class LogIndex
    {
      public:
        LogIndex();

        /** Record value as the latest write to (target, idx, kind). */
        void
        put(const void *target, u32 idx, u8 kind, i32 value)
        {
            if (2 * (live_ + 1) > slots_.size())
                grow();
            Slot &slot = slots_[locate(target, idx, kind)];
            if (slot.stamp != generation_) {
                slot = {target, generation_, idx, kind, value};
                ++live_;
            } else {
                slot.value = value;
            }
        }

        /** The latest logged value of (target, idx, kind), if any. */
        const i32 *
        find(const void *target, u32 idx, u8 kind) const
        {
            const Slot &slot = slots_[locate(target, idx, kind)];
            return slot.stamp == generation_ ? &slot.value : nullptr;
        }

        /** Forget every entry (one generation bump). */
        void
        clear()
        {
            ++generation_;
            live_ = 0;
        }

        /** Slots allocated (diagnostics/tests). */
        u64 capacity() const { return slots_.size(); }

      private:
        struct Slot
        {
            const void *target;
            u64 stamp; ///< live iff == generation_
            u32 idx;
            u8 kind;
            i32 value;
        };

        /**
         * Position of the slot holding the key, or of the empty slot
         * where it would go. Home is the *top* bits of a
         * multiplicative hash: the key mixes idx << 8, so its low
         * product bits are the same for every index of one array.
         */
        u64
        locate(const void *target, u32 idx, u8 kind) const
        {
            u64 h = static_cast<u64>(
                reinterpret_cast<std::uintptr_t>(target));
            h ^= (h >> 33) ^ (static_cast<u64>(idx) << 8)
               ^ static_cast<u64>(kind);
            const u64 mask = slots_.size() - 1;
            for (u64 pos = (h * 0x9e3779b97f4a7c15ull) >> shift_;;
                 pos = (pos + 1) & mask) {
                const Slot &slot = slots_[pos];
                if (slot.stamp != generation_
                    || (slot.target == target && slot.idx == idx
                        && slot.kind == kind))
                    return pos;
            }
        }

        /** Double the table and re-insert the live slots. */
        void grow();

        std::vector<Slot> slots_;
        u64 generation_ = 1;
        u64 live_ = 0;
        u32 shift_ = 64; ///< 64 - log2(slots_.size())
    };

    static void applyEntry(const LogEntry &entry);

    /** Append an entry and index it (latest write wins on reads). */
    void pushLog(const LogEntry &entry);

    /** Discard the uncommitted log and its read index. */
    void clearLog();

    arch::Device &dev_;
    std::vector<LogEntry> log_;
    LogIndex logIndex_;

    u64 lastProgress_ = ~u64{0};
    bool progressed_ = false;
};

/** How task transitions are charged. */
enum class TransitionStyle : u8
{
    Alpaca, ///< full task-based-runtime dispatch (Op::AlpacaTransition)
    Light   ///< SONIC's streamlined transition (Op::TaskTransition)
};

/** Scheduler configuration. */
struct SchedulerConfig
{
    TransitionStyle transitionStyle = TransitionStyle::Alpaca;

    /**
     * Declare non-termination after this many consecutive power
     * failures with no task completion and no progress-beacon change.
     */
    u64 maxFailuresWithoutProgress = 48;

    /** Hard safety valve on total reboots per run. */
    u64 maxTotalReboots = 50'000'000;
};

/** Outcome of running a program. */
struct RunResult
{
    bool completed = false;
    bool nonTerminating = false;
    u64 reboots = 0;
    u64 tasksExecuted = 0;
};

/**
 * Executes a Program on a Device under the intermittent execution
 * model: the current-task pointer lives in FRAM; a power failure
 * restarts the current task; the redo log commits two-phase at each
 * transition and is replayed if the failure struck mid-commit.
 */
class Scheduler
{
  public:
    Scheduler(arch::Device &dev, const Program &program,
              SchedulerConfig config = {});

    /** Run from entry until kDone, a DNF verdict, or the safety valve. */
    RunResult run(TaskId entry);

    Runtime &runtime() { return runtime_; }

  private:
    /** Commit the redo log and switch to next (two-phase). */
    void commitAndTransition(TaskId next);

    /** Finish a commit interrupted by a power failure. */
    void replayCommit();

    arch::Device &dev_;
    const Program &program_;
    SchedulerConfig config_;
    Runtime runtime_;

    // Non-volatile scheduler state (conceptually FRAM).
    arch::NvVar<i32> currentTask_;
    arch::NvVar<i32> committedNext_;
    arch::NvVar<i16> commitFlag_;
};

} // namespace sonic::task

#endif // SONIC_TASK_RUNTIME_HH
