/**
 * @file
 * Tests for the task runtime: scheduling, redo-log semantics
 * (read-own-writes, commit atomicity, replay), non-termination
 * detection, and — crucially — crash consistency at *every* operation
 * via exhaustive fail-at-N sweeps.
 */

#include <map>
#include <utility>

#include <gtest/gtest.h>

#include "arch/memory.hh"
#include "task/runtime.hh"
#include "util/rng.hh"

namespace sonic::task
{
namespace
{

using arch::ContinuousPower;
using arch::Device;
using arch::EnergyProfile;
using arch::FailEveryOps;
using arch::FailOnceAfterOps;
using arch::NvArray;
using arch::NvVar;
using arch::Op;

Device
continuousDevice()
{
    return Device(EnergyProfile::msp430fr5994(),
                  std::make_unique<ContinuousPower>());
}

TEST(Scheduler, RunsAChainOfTasks)
{
    auto dev = continuousDevice();
    Program prog;
    NvVar<i16> counter(dev, "c", 0);
    const TaskId t2 = prog.addTask("t2", [&](Runtime &rt) {
        rt.logWrite(counter, static_cast<i16>(counter.peek() + 10));
        return kDone;
    });
    const TaskId t1 = prog.addTask("t1", [&](Runtime &rt) {
        rt.logWrite(counter, static_cast<i16>(counter.peek() + 1));
        return t2;
    });
    Scheduler sched(dev, prog);
    const auto res = sched.run(t1);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.tasksExecuted, 2u);
    EXPECT_EQ(counter.peek(), 11);
}

TEST(Scheduler, TaskRestartsAfterFailure)
{
    Device dev(EnergyProfile::msp430fr5994(),
               std::make_unique<FailOnceAfterOps>(20));
    Program prog;
    NvVar<i16> attempts(dev, "attempts", 0);
    const TaskId t = prog.addTask("t", [&](Runtime &rt) {
        attempts.poke(static_cast<i16>(attempts.peek() + 1));
        for (int k = 0; k < 50; ++k)
            rt.dev().consume(Op::Nop); // 50 draws: hits the injector
        return kDone;
    });
    Scheduler sched(dev, prog);
    const auto res = sched.run(t);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.reboots, 1u);
    EXPECT_EQ(attempts.peek(), 2); // executed twice
}

TEST(Runtime, LogReadSeesOwnWrites)
{
    auto dev = continuousDevice();
    Program prog;
    NvArray<i16> arr(dev, 4, "a");
    arr.poke(2, 5);
    bool saw_own = false, saw_home = false;
    const TaskId t = prog.addTask("t", [&](Runtime &rt) {
        saw_home = rt.logRead(arr, 2) == 5;
        rt.logWrite(arr, 2, 9);
        saw_own = rt.logRead(arr, 2) == 9;
        return kDone;
    });
    Scheduler sched(dev, prog);
    EXPECT_TRUE(sched.run(t).completed);
    EXPECT_TRUE(saw_home);
    EXPECT_TRUE(saw_own);
    EXPECT_EQ(arr.peek(2), 9); // committed
}

TEST(Runtime, UncommittedWritesDiscardedOnFailure)
{
    // Fail after the log write but before the transition commit: the
    // home location must keep its old value on restart.
    Device dev(EnergyProfile::msp430fr5994(),
               std::make_unique<FailOnceAfterOps>(8));
    Program prog;
    NvArray<i16> arr(dev, 1, "a");
    arr.poke(0, 1);
    int attempt = 0;
    std::vector<i16> seen;
    const TaskId t = prog.addTask("t", [&](Runtime &rt) {
        seen.push_back(arr.peek(0));
        ++attempt;
        rt.logWrite(arr, 0, static_cast<i16>(100 + attempt));
        rt.dev().consume(Op::Nop, 20);
        return kDone;
    });
    Scheduler sched(dev, prog);
    const auto res = sched.run(t);
    EXPECT_TRUE(res.completed);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], 1);
    EXPECT_EQ(seen[1], 1);       // first attempt's write discarded
    EXPECT_EQ(arr.peek(0), 102); // second attempt committed
}

TEST(Runtime, LogIndexResolvesLargeLogsLatestWins)
{
    // The O(1) read index must agree with what the old reverse scan
    // computed: the latest uncommitted write to each location wins,
    // unlogged locations fall through to home, and the log itself
    // still records every entry (commit order is unchanged).
    auto dev = continuousDevice();
    Program prog;
    NvArray<i16> arr(dev, 256, "a");
    NvVar<i32> big(dev, "big", -7);
    for (u32 k = 0; k < 256; ++k)
        arr.poke(k, static_cast<i16>(k));
    bool ok = true;
    u64 entries = 0;
    const TaskId t = prog.addTask("t", [&](Runtime &rt) {
        // Three overwrite rounds across half the array.
        for (int round = 0; round < 3; ++round)
            for (u32 k = 0; k < 256; k += 2)
                rt.logWrite(arr, k,
                            static_cast<i16>(1000 * round + k));
        rt.logWrite(big, 41);
        rt.logWrite(big, 42);
        for (u32 k = 0; k < 256; ++k) {
            const i16 expect = (k % 2 == 0)
                ? static_cast<i16>(2000 + k)
                : static_cast<i16>(k); // unlogged -> home value
            ok = ok && rt.logRead(arr, k) == expect;
        }
        ok = ok && rt.logRead(big) == 42;
        entries = rt.logSize();
        return kDone;
    });
    Scheduler sched(dev, prog);
    EXPECT_TRUE(sched.run(t).completed);
    EXPECT_TRUE(ok);
    EXPECT_EQ(entries, 3u * 128u + 2u); // entries, not locations
    EXPECT_EQ(arr.peek(2), 2002);       // committed latest value
    EXPECT_EQ(big.peek(), 42);
}

/**
 * Model check of the redo log's read index: a seeded program of
 * thousands of tasks makes random logWrite/logRead sequences over
 * three NvArray<i16>s (dense, strided and random indices) and four
 * NvVar<i32/i16>s, and every logRead is checked against a std::map of
 * the attempt's own writes over a model of the committed home values.
 * Power fails at random draws, so tasks are cut short mid-body and
 * mid-commit (before the commit flag, where the task re-runs, and
 * after it, where the commit is replayed). Every ~40th task writes
 * over a thousand distinct locations and reads them back, so the
 * index grows far past its initial size with reads that span each
 * growth, and every clear reuses slots of stale generations.
 * The stamps are u64 and never wrap (see Runtime::LogIndex), so there
 * is no wrap path to test.
 */
TEST(Runtime, LogReadsMatchMapModelUnderRandomFailures)
{
    constexpr u64 kSeed = 0x10ca11;
    constexpr i32 kTasks = 4000;
    Rng failures(kSeed);
    std::vector<u64> schedule;
    for (u64 draw = 0; schedule.size() < 6000;) {
        // Mostly short gaps (tasks die often), sometimes long ones (so
        // the long tasks eventually get through).
        draw += 1 + (failures.below(10) == 0 ? failures.below(16000)
                                              : failures.below(150));
        schedule.push_back(draw);
    }
    Device dev(EnergyProfile::msp430fr5994(),
               std::make_unique<arch::SchedulePower>(schedule));

    NvArray<i16> dense(dev, 4096, "dense");
    NvArray<i16> mid(dev, 1024, "mid");
    NvArray<i16> tiny(dev, 37, "tiny");
    NvVar<i32> var32a(dev, "var32a", 11);
    NvVar<i32> var32b(dev, "var32b", -5);
    NvVar<i16> var16a(dev, "var16a", 3);
    NvVar<i16> var16b(dev, "var16b", -9);
    NvVar<i32> seq(dev, "seq", 0);
    NvArray<i16> *const arrays[] = {&dense, &mid, &tiny};

    // The reference: committed home values, and the current attempt's
    // own writes keyed by (object, index). Objects 0-2 are the arrays,
    // 3-4 the i32 vars, 5-6 the i16 vars.
    using Key = std::pair<u32, u32>;
    std::vector<std::vector<i32>> home(7);
    Rng init(kSeed ^ 0xfeed);
    for (u32 a = 0; a < 3; ++a) {
        for (u32 i = 0; i < arrays[a]->size(); ++i) {
            const auto v = static_cast<i16>(init.between(-30000, 30000));
            arrays[a]->poke(i, v);
            home[a].push_back(v);
        }
    }
    home[3] = {var32a.peek()};
    home[4] = {var32b.peek()};
    home[5] = {var16a.peek()};
    home[6] = {var16b.peek()};
    std::map<Key, i32> pending;
    std::map<Key, i32> lastReturned;

    i32 model_seq = 0;
    bool returned = false;
    u64 reboots_at_return = 0;
    // Failures cut short: a task body, a commit (body returned, no
    // transition yet), and of those the ones after the commit flag was
    // raised (replayed at boot) or after it completed.
    u64 mid_task = 0, mid_commit = 0, sealed_then_cut = 0;
    u64 reads = 0, mismatches = 0, initial_capacity = 0;

    Program prog;
    TaskId self = 0;
    self = prog.addTask("random", [&](Runtime &rt) -> TaskId {
        if (initial_capacity == 0)
            initial_capacity = rt.logIndexCapacity();
        // Uncharged, so the bookkeeping below runs before any draw can
        // cut this attempt short (the log is empty: home is current).
        const i32 s = seq.peek();
        const bool commit_cut =
            returned && dev.rebootCount() > reboots_at_return;
        if (s != model_seq) {
            // The last attempt that returned has committed.
            EXPECT_EQ(s, model_seq + 1);
            for (const auto &[key, value] : lastReturned)
                home[key.first][key.second] = value;
            model_seq = s;
            sealed_then_cut += commit_cut ? 1 : 0;
        } else if (!returned && dev.rebootCount() > 0) {
            ++mid_task;
        }
        mid_commit += commit_cut ? 1 : 0;
        returned = false;
        pending.clear();

        const auto expect = [&](u32 obj, u32 idx) {
            const auto it = pending.find({obj, idx});
            return it != pending.end() ? it->second : home[obj][idx];
        };
        const auto read = [&](u32 obj, u32 idx) {
            i32 got = 0;
            switch (obj) {
              case 0: case 1: case 2:
                got = rt.logRead(*arrays[obj], idx); break;
              case 3: got = rt.logRead(var32a); break;
              case 4: got = rt.logRead(var32b); break;
              case 5: got = rt.logRead(var16a); break;
              default: got = rt.logRead(var16b); break;
            }
            ++reads;
            mismatches += got != expect(obj, idx) ? 1 : 0;
            return got;
        };
        const auto write = [&](u32 obj, u32 idx, i32 value) {
            switch (obj) {
              case 0: case 1: case 2:
                value = static_cast<i16>(value);
                rt.logWrite(*arrays[obj], idx, static_cast<i16>(value));
                break;
              case 3: rt.logWrite(var32a, value); break;
              case 4: rt.logWrite(var32b, value); break;
              case 5:
                value = static_cast<i16>(value);
                rt.logWrite(var16a, static_cast<i16>(value));
                break;
              default:
                value = static_cast<i16>(value);
                rt.logWrite(var16b, static_cast<i16>(value));
                break;
            }
            pending[{obj, idx}] = value;
        };

        // Every attempt of task s makes the same accesses.
        Rng rng(kSeed + static_cast<u64>(s));
        const bool long_task = rng.below(40) == 0;
        const u32 obj = static_cast<u32>(rng.below(3));
        const u32 size = static_cast<u32>(arrays[obj]->size());
        const u32 ops = long_task ? 2000 + static_cast<u32>(rng.below(2000))
                                  : 1 + static_cast<u32>(rng.below(40));
        const u32 stride = 1 + static_cast<u32>(rng.below(7));
        const u32 base = static_cast<u32>(rng.below(size));
        for (u32 k = 0; k < ops; ++k) {
            // A long task hits random indices all over the dense array
            // (so reads after a growth revisit entries logged before
            // it); short tasks pick a dense, strided or random index,
            // or a scalar.
            u32 o = obj;
            u32 idx = 0;
            if (long_task) {
                o = 0;
                idx = static_cast<u32>(rng.below(4096));
            } else {
                switch (rng.below(4)) {
                  case 0: idx = (base + k) % size; break;
                  case 1: idx = (base + k * stride) % size; break;
                  case 2: idx = static_cast<u32>(rng.below(size)); break;
                  default: o = 3 + static_cast<u32>(rng.below(4)); break;
                }
            }
            const u64 action = rng.below(3);
            if (action == 0) {
                read(o, idx);
            } else {
                // Values depend on what the task reads, so a wrong
                // read also corrupts the committed state.
                const i32 v = action == 1 ? read(o, idx) + 1
                                          : rng.between(-30000, 30000);
                write(o, idx, v);
                if (rng.below(4) == 0)
                    write(o, idx, v ^ 0x55); // latest write wins
            }
        }
        rt.logWrite(seq, s + 1);
        lastReturned = pending;
        returned = true;
        reboots_at_return = dev.rebootCount();
        return s + 1 < kTasks ? self : kDone;
    });

    SchedulerConfig config;
    // Long tasks can die many times in a row; the schedule is finite,
    // so the run always ends.
    config.maxFailuresWithoutProgress = 1u << 20;
    Scheduler sched(dev, prog, config);
    const auto res = sched.run(self);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(seq.peek(), kTasks);
    EXPECT_EQ(mismatches, 0u) << "of " << reads << " reads";
    EXPECT_GT(reads, 100000u);
    EXPECT_GT(mid_task, 500u);
    EXPECT_GT(mid_commit, 60u);
    EXPECT_GT(sealed_then_cut, 20u);
    EXPECT_GT(mid_commit - sealed_then_cut, 5u); // before the flag
    EXPECT_GE(sched.runtime().logIndexCapacity(), 8 * initial_capacity);

    // The final commit is folded in, then FRAM must equal the model.
    for (const auto &[key, value] : lastReturned)
        home[key.first][key.second] = value;
    for (u32 a = 0; a < 3; ++a)
        for (u32 i = 0; i < arrays[a]->size(); ++i)
            ASSERT_EQ(arrays[a]->peek(i), home[a][i])
                << "array " << a << " index " << i;
    EXPECT_EQ(var32a.peek(), home[3][0]);
    EXPECT_EQ(var32b.peek(), home[4][0]);
    EXPECT_EQ(var16a.peek(), home[5][0]);
    EXPECT_EQ(var16b.peek(), home[6][0]);
}

TEST(Runtime, LastLoggedWriteWins)
{
    auto dev = continuousDevice();
    Program prog;
    NvArray<i16> arr(dev, 1, "a");
    const TaskId t = prog.addTask("t", [&](Runtime &rt) {
        rt.logWrite(arr, 0, 1);
        rt.logWrite(arr, 0, 2);
        rt.logWrite(arr, 0, 3);
        return kDone;
    });
    Scheduler sched(dev, prog);
    EXPECT_TRUE(sched.run(t).completed);
    EXPECT_EQ(arr.peek(0), 3);
}

TEST(Runtime, ScalarVarsLogged)
{
    auto dev = continuousDevice();
    Program prog;
    NvVar<i32> big(dev, "big", 7);
    NvVar<i16> small(dev, "small", -2);
    const TaskId t = prog.addTask("t", [&](Runtime &rt) {
        EXPECT_EQ(rt.logRead(big), 7);
        EXPECT_EQ(rt.logRead(small), -2);
        rt.logWrite(big, 100000);
        rt.logWrite(small, static_cast<i16>(123));
        EXPECT_EQ(rt.logRead(big), 100000);
        EXPECT_EQ(rt.logRead(small), 123);
        return kDone;
    });
    Scheduler sched(dev, prog);
    EXPECT_TRUE(sched.run(t).completed);
    EXPECT_EQ(big.peek(), 100000);
    EXPECT_EQ(small.peek(), 123);
}

TEST(Scheduler, DetectsNonTermination)
{
    // A task that always needs more energy than one charge cycle and
    // makes no non-volatile progress.
    Device dev(EnergyProfile::msp430fr5994(),
               std::make_unique<FailEveryOps>(10));
    Program prog;
    const TaskId t = prog.addTask("hog", [&](Runtime &rt) {
        for (int k = 0; k < 1000; ++k)
            rt.dev().consume(Op::Nop);
        return kDone;
    });
    SchedulerConfig config;
    config.maxFailuresWithoutProgress = 16;
    Scheduler sched(dev, prog, config);
    const auto res = sched.run(t);
    EXPECT_FALSE(res.completed);
    EXPECT_TRUE(res.nonTerminating);
}

TEST(Scheduler, ProgressBeaconPreventsDnfVerdict)
{
    // Same energy starvation, but the task advances a loop-continuation
    // index each attempt — it must finish eventually.
    Device dev(EnergyProfile::msp430fr5994(),
               std::make_unique<FailEveryOps>(40));
    Program prog;
    NvVar<i16> i(dev, "i", 0);
    const TaskId t = prog.addTask("loop", [&](Runtime &rt) {
        i16 cur = i.read();
        while (cur < 200) {
            rt.dev().consume(Op::FixedMul);
            i.write(static_cast<i16>(cur + 1));
            rt.progress(static_cast<u64>(cur));
            ++cur;
        }
        return kDone;
    });
    SchedulerConfig config;
    config.maxFailuresWithoutProgress = 4;
    Scheduler sched(dev, prog, config);
    const auto res = sched.run(t);
    EXPECT_TRUE(res.completed);
    EXPECT_GT(res.reboots, 10u);
    EXPECT_EQ(i.peek(), 200);
}

/**
 * The central crash-consistency property: a multi-task program with
 * logged writes, interrupted by exactly one power failure at operation
 * N, must produce the same final state as an uninterrupted run — for
 * every N up to the program's length. This covers failures inside
 * tasks, during commit phase 1, during entry application, and during
 * the commit-flag clear.
 */
TEST(Scheduler, CommitAtomicityAtEveryOperation)
{
    // First measure the uninterrupted op count and golden state.
    auto golden_run = [](arch::PowerSupply *psu_raw,
                         std::vector<i16> &out, u64 &ops) {
        std::unique_ptr<arch::PowerSupply> psu(psu_raw);
        Device dev(EnergyProfile::msp430fr5994(), std::move(psu));
        Program prog;
        NvArray<i16> arr(dev, 8, "a");
        NvVar<i16> sum(dev, "sum", 0);
        const TaskId t2 = prog.addTask("t2", [&](Runtime &rt) {
            i16 s = rt.logRead(sum);
            for (u32 k = 0; k < 8; ++k)
                s = static_cast<i16>(s + rt.logRead(arr, k));
            rt.logWrite(sum, s);
            return kDone;
        });
        const TaskId t1 = prog.addTask("t1", [&](Runtime &rt) {
            for (u32 k = 0; k < 8; ++k)
                rt.logWrite(arr, k, static_cast<i16>(k * k + 1));
            return t2;
        });
        Scheduler sched(dev, prog);
        const auto res = sched.run(t1);
        ASSERT_TRUE(res.completed);
        out.clear();
        for (u32 k = 0; k < 8; ++k)
            out.push_back(arr.peek(k));
        out.push_back(sum.peek());
        ops = dev.stats().totalCycles(); // proxy; we sweep ops below
    };

    std::vector<i16> golden;
    u64 unused = 0;
    golden_run(new arch::ContinuousPower(), golden, unused);

    // Count draws with a huge injector (never fires).
    u64 total_draws = 0;
    {
        Device dev(EnergyProfile::msp430fr5994(),
                   std::make_unique<FailOnceAfterOps>(1u << 30));
        Program prog;
        NvArray<i16> arr(dev, 8, "a");
        NvVar<i16> sum(dev, "sum", 0);
        const TaskId t2 = prog.addTask("t2", [&](Runtime &rt) {
            i16 s = rt.logRead(sum);
            for (u32 k = 0; k < 8; ++k)
                s = static_cast<i16>(s + rt.logRead(arr, k));
            rt.logWrite(sum, s);
            return kDone;
        });
        const TaskId t1 = prog.addTask("t1", [&](Runtime &rt) {
            for (u32 k = 0; k < 8; ++k)
                rt.logWrite(arr, k, static_cast<i16>(k * k + 1));
            return t2;
        });
        Scheduler sched(dev, prog);
        ASSERT_TRUE(sched.run(t1).completed);
        // Each consume() is one draw; ask the supply.
        total_draws = static_cast<u64>(
            dev.power().harvestedNj() > 0 ? 0 : 0);
        // The injector counts ops internally; recover via describe().
        // Simpler: re-run and count consume calls through stats counts.
        u64 count = 0;
        const auto &stats = dev.stats();
        for (u32 o = 0; o < arch::kNumOps; ++o)
            count += stats.opCount(static_cast<arch::Op>(o));
        total_draws = count;
    }
    ASSERT_GT(total_draws, 50u);

    for (u64 n = 0; n < total_draws + 5; ++n) {
        Device dev(EnergyProfile::msp430fr5994(),
                   std::make_unique<FailOnceAfterOps>(n));
        Program prog;
        NvArray<i16> arr(dev, 8, "a");
        NvVar<i16> sum(dev, "sum", 0);
        const TaskId t2 = prog.addTask("t2", [&](Runtime &rt) {
            i16 s = rt.logRead(sum);
            for (u32 k = 0; k < 8; ++k)
                s = static_cast<i16>(s + rt.logRead(arr, k));
            rt.logWrite(sum, s);
            return kDone;
        });
        const TaskId t1 = prog.addTask("t1", [&](Runtime &rt) {
            for (u32 k = 0; k < 8; ++k)
                rt.logWrite(arr, k, static_cast<i16>(k * k + 1));
            return t2;
        });
        Scheduler sched(dev, prog);
        const auto res = sched.run(t1);
        ASSERT_TRUE(res.completed) << "failed at op " << n;
        std::vector<i16> state;
        for (u32 k = 0; k < 8; ++k)
            state.push_back(arr.peek(k));
        state.push_back(sum.peek());
        EXPECT_EQ(state, golden) << "divergence with failure at op "
                                 << n;
    }
}

/** Repeated periodic failures must also preserve the final state. */
class PeriodicFailureSweep : public ::testing::TestWithParam<u64>
{
};

TEST_P(PeriodicFailureSweep, StateMatchesGolden)
{
    const u64 period = GetParam();
    auto build_and_run = [&](std::unique_ptr<arch::PowerSupply> psu,
                             std::vector<i16> &out, bool &completed) {
        Device dev(EnergyProfile::msp430fr5994(), std::move(psu));
        Program prog;
        NvArray<i16> arr(dev, 6, "a");
        const TaskId t = prog.addTask("t", [&](Runtime &rt) {
            for (u32 k = 0; k < 6; ++k)
                rt.logWrite(arr, k,
                            static_cast<i16>(3 * k + 7));
            return kDone;
        });
        Scheduler sched(dev, prog);
        completed = sched.run(t).completed;
        out.clear();
        for (u32 k = 0; k < 6; ++k)
            out.push_back(arr.peek(k));
    };

    std::vector<i16> golden, state;
    bool ok = false;
    build_and_run(std::make_unique<ContinuousPower>(), golden, ok);
    ASSERT_TRUE(ok);
    build_and_run(std::make_unique<FailEveryOps>(period), state, ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(state, golden);
}

INSTANTIATE_TEST_SUITE_P(Periods, PeriodicFailureSweep,
                         ::testing::Values(29u, 37u, 53u, 71u, 97u,
                                           131u, 211u));

} // namespace
} // namespace sonic::task
