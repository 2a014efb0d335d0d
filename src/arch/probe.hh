/**
 * @file
 * The device trace probe: the Device's one observation channel. Every
 * observer of a simulated run implements TraceProbe — the event trace
 * recorder (src/trace), the oracle's commit and delivery-boundary
 * cursors (src/verify), and the per-reboot NVM digest chain below —
 * and receives the simulation's events through it: lease
 * grant/settle, power failure, recharge dead-time, reboot, attribution
 * (layer/part) switches, and the structural spans/instants the higher
 * layers (pipeline rounds and stages, kernel dispatch, task commits,
 * delivery boundaries) report through the same device.
 *
 * The probe is a plain nullable pointer on the Device, one per
 * device. Tracing off costs exactly one predictable branch at each
 * (already cold or moderate-rate) call site and NOTHING on the
 * Device::consume fast path, which is untouched — the hard constraint
 * the trace-overhead bench gates. All methods take a const Device:
 * probes observe clocks, stats and FRAM, they never steer the
 * simulation. A probe is declared before the Device it observes, so it
 * outlives the lease settle ~Device reports.
 */

#ifndef SONIC_ARCH_PROBE_HH
#define SONIC_ARCH_PROBE_HH

#include <vector>

#include "arch/stats.hh"
#include "util/types.hh"

namespace sonic::arch
{

class Device;

/** Structural span kinds reported by the pipeline and kernel layers. */
enum class ProbeSpan : u8
{
    Round = 0,   ///< one pipeline round (arg = round index)
    Sense = 1,   ///< sense stage
    Infer = 2,   ///< one kernels::runInference dispatch
    Transmit = 3 ///< transmit stage (all attempts)
};

/** Instantaneous events reported by the task and pipeline layers. */
enum class ProbeInstant : u8
{
    /** Two-phase task commit (arg = next task id), before the
     * transition is charged: the next draw the device performs is the
     * first operation of the commit sequence. */
    TaskCommit = 0,
    /** Delivery boundary (arg = pipeline::TxBoundary), just before its
     * journal NvVar write. */
    TxBoundary = 1,
    AckDelivered = 2 ///< the round's result was acknowledged
};

/**
 * Event sink for one traced Device. Default implementations are empty
 * so probes override only what they record.
 */
class TraceProbe
{
  public:
    virtual ~TraceProbe() = default;

    /** @name Device-internal events (arch/device.cc) */
    /// @{
    virtual void
    onLeaseGrant(const Device &, f64 grantedNj, u64 grantedOps)
    {
        (void)grantedNj;
        (void)grantedOps;
    }

    virtual void
    onLeaseSettle(const Device &, f64 usedNj)
    {
        (void)usedNj;
    }

    virtual void onPowerFailure(const Device &) {}

    /** Recharge dead-time just booked (deadSeconds already includes
     * it, so the span is [now - deadSeconds, now]). */
    virtual void
    onRecharge(const Device &, f64 deadSeconds)
    {
        (void)deadSeconds;
    }

    /** End of Device::reboot (volatile state cleared, buffer full). */
    virtual void
    onReboot(const Device &, u64 rebootIndex)
    {
        (void)rebootIndex;
    }

    /** Attribution switches (every kernel's ScopedLayer/ScopedPart). */
    virtual void
    onLayer(const Device &, u16 layer)
    {
        (void)layer;
    }

    virtual void
    onPart(const Device &, Part part)
    {
        (void)part;
    }
    /// @}

    /** @name Structural events from the pipeline/kernel/task layers */
    /// @{
    virtual void
    onSpanBegin(const Device &, ProbeSpan span, u32 arg)
    {
        (void)span;
        (void)arg;
    }

    /** `value` is span-specific (Round: consumed joules so far). */
    virtual void
    onSpanEnd(const Device &, ProbeSpan span, u32 arg, f64 value)
    {
        (void)span;
        (void)arg;
        (void)value;
    }

    virtual void
    onInstant(const Device &, ProbeInstant instant, u32 arg)
    {
        (void)instant;
        (void)arg;
    }
    /// @}
};

/**
 * Snapshots Device::nvmDigest() at every reboot: the per-reboot FRAM
 * digest chain the oracle compares, so a state divergence is pinned
 * to the reboot boundary where it first appears. Costs nothing per
 * operation; one digest of the registered FRAM region per reboot.
 */
class NvmDigestChain : public TraceProbe
{
  public:
    void onReboot(const Device &dev, u64) override;

    std::vector<u64> digests; ///< digests[i] taken at reboot i + 1
};

} // namespace sonic::arch

#endif // SONIC_ARCH_PROBE_HH
