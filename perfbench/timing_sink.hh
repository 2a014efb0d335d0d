/**
 * @file
 * The benchmark's traced-run probe into the fleet layer: a FleetSink
 * that forwards every call unchanged to an optional wrapped sink and
 * records host time at runFleet's phase boundaries. It sees the fleet
 * only through the public sink interface, so it measures the program
 * from the outside:
 *
 *   begin() .. end() called   -> simulation (the worker pool, with the
 *                                ordered-emit path a sink switches on)
 *   end() returned .. return  -> the serial device-order reduction
 *   inside the wrapped add()/end() -> telemetry encoding
 *
 * It also keeps copies of a chosen set of devices' telemetry, so the
 * benchmark can compare them against the unmemoized reference.
 */

#ifndef PERFBENCH_TIMING_SINK_HH
#define PERFBENCH_TIMING_SINK_HH

#include <chrono>
#include <utility>
#include <vector>

#include "fleet/fleet.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

class TimingFleetSink : public sonic::fleet::FleetSink
{
  public:
    /** `keep` lists device indices, ascending, whose telemetry is
     * copied as it streams past. */
    explicit TimingFleetSink(sonic::fleet::FleetSink *inner = nullptr,
                             std::vector<sonic::u32> keep = {})
        : inner_(inner), keep_(std::move(keep))
    {
    }

    void
    begin(sonic::u64 totalDevices) override
    {
        begin_ = Clock::now();
        if (inner_ != nullptr)
            inner_->begin(totalDevices);
    }

    void
    add(const sonic::fleet::DeviceTelemetry &device) override
    {
        if (next_ < keep_.size()
            && keep_[next_] == device.assignment.deviceIndex) {
            kept_.push_back(device);
            ++next_;
        }
        if (inner_ != nullptr) {
            const auto t0 = Clock::now();
            inner_->add(device);
            encodeSeconds_ += secondsBetween(t0, Clock::now());
        }
    }

    void
    end() override
    {
        endCalled_ = Clock::now();
        if (inner_ != nullptr)
            inner_->end();
        endReturned_ = Clock::now();
        if (inner_ != nullptr)
            encodeSeconds_ += secondsBetween(endCalled_, endReturned_);
    }

    /** begin() to end() being called. */
    double simulateSeconds() const
    {
        return secondsBetween(begin_, endCalled_);
    }

    /** end() returning to `returned` (when runFleet gave back). */
    double reduceSeconds(Clock::time_point returned) const
    {
        return secondsBetween(endReturned_, returned);
    }

    /** Host time inside the wrapped sink's add() and end(). */
    double encodeSeconds() const { return encodeSeconds_; }

    const std::vector<sonic::fleet::DeviceTelemetry> &kept() const
    {
        return kept_;
    }

  private:
    sonic::fleet::FleetSink *inner_;
    std::vector<sonic::u32> keep_;
    std::size_t next_ = 0;
    std::vector<sonic::fleet::DeviceTelemetry> kept_;
    Clock::time_point begin_{};
    Clock::time_point endCalled_{};
    Clock::time_point endReturned_{};
    double encodeSeconds_ = 0.0;
};

} // namespace perfbench

#endif // PERFBENCH_TIMING_SINK_HH
