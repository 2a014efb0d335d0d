/**
 * @file
 * Harvested-energy environments: the deployment conditions a device
 * runs under, as data behind a string-keyed registry (mirroring
 * kernels::ImplRegistry and dnn::ModelZoo).
 *
 * An environment names a power world — the paper's bench RF harvester,
 * a solar diurnal cycle, bursty ambient RF, a periodic duty-cycled
 * source, constant wall power, or the playback of a measured power
 * trace (src/env/traces.hh) — and builds a deterministic, seedable
 * arch::PowerSupply for it:
 *
 *     auto psu = env::EnvRegistry::instance().make(
 *         env::EnvRef{"solar", 1e-3}, seed);
 *
 * The harvesting environments share one physical core: a
 * piecewise-linear, periodic harvest-rate model (HarvestModel) feeding
 * the capacitor charge equation of arch::CapacitorPower
 * (E = 1/2 C (Vmax^2 - Vmin^2) usable buffer, brown-out on empty,
 * recharge by integrating the harvest rate forward in simulated time).
 * The resulting HarvestSupply honors the energy-lease protocol
 * (grant hands out the whole remaining charge, settle returns the
 * remainder) exactly like CapacitorPower, so the Device fast path
 * stays devirtualized and a leased run brown-outs on the
 * bit-identical operation a per-op-draw run would.
 *
 * Seeds perturb only deployment phase (where in the environment cycle
 * the device boots), so two devices with the same seed replay the
 * identical supply behavior — the determinism the fleet simulator and
 * the verification oracle rely on.
 */

#ifndef SONIC_ENV_ENVIRONMENT_HH
#define SONIC_ENV_ENVIRONMENT_HH

#include <cmath>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "arch/power.hh"
#include "util/types.hh"

namespace sonic::env
{

/**
 * One environment-axis point: a registered environment name plus an
 * optional capacitor-size override (0 = the environment's default).
 * Carried by app::RunSpec and fleet::FleetPlan; an empty name means
 * "no environment" (the legacy PowerKind axis selects the supply).
 */
struct EnvRef
{
    std::string env;
    f64 capacitanceFarads = 0.0;

    bool empty() const { return env.empty(); }

    /** Display/CSV form: "solar" or "solar@50mF". */
    std::string label() const;

    bool
    operator==(const EnvRef &other) const
    {
        return env == other.env
            && capacitanceFarads == other.capacitanceFarads;
    }
};

/**
 * Parse an environment label of the form "name" or "name@<cap>" where
 * <cap> is a capacitance with unit suffix (e.g. "100uF", "1mF",
 * "0.05F"). Returns false with a diagnostic in *error on bad syntax;
 * the name itself is validated against the registry by the caller.
 */
bool parseEnvRef(const std::string &text, EnvRef *out,
                 std::string *error);

/**
 * A periodic piecewise-linear harvest-rate model: income power as a
 * function of simulated time, wrapping every periodSeconds. The model
 * is the integrable core every harvesting environment shares — the
 * capacitor charge equation integrates it forward to find recharge
 * dead time.
 *
 * The per-segment table (bounds, rates, slope numerator, width and the
 * rate read exactly at each segment end) is built once per model and
 * shared immutably, so copying a model — one per fleet device — is a
 * reference-count bump, not an allocation.
 */
class HarvestModel
{
  public:
    /** One control point: harvest power at a time offset. */
    struct Point
    {
        f64 seconds = 0.0;
        f64 watts = 0.0;
    };

    /** A zero-rate model over a 1 s period (a placeholder to assign
     * a parsed trace into; it cannot recharge anything). */
    HarvestModel();

    // Copy-only (a move copies too): the hot segment pointer aliases
    // the shared table, which a moved-from model must keep owning.
    HarvestModel(const HarvestModel &) = default;
    HarvestModel &operator=(const HarvestModel &) = default;

    /**
     * Build from control points over [0, period). Points must start at
     * 0, be strictly increasing, stay below the period and carry
     * non-negative power; the rate interpolates linearly between
     * points and wraps from the last point back to the first. The
     * model must harvest strictly positive energy per period (a
     * dead-forever environment cannot recharge anything). Violations
     * are fatal configuration errors.
     */
    HarvestModel(std::vector<Point> points, f64 period_seconds);

    /** A constant-rate model (the paper's bench RF harvester). */
    static HarvestModel constant(f64 watts);

    /** Instantaneous harvest power at simulated time t (wraps). */
    f64 watts(f64 t) const;

    /** Energy harvested over [t0, t0 + dt], in joules. */
    f64 energyJoules(f64 t0, f64 dt) const;

    /**
     * Time needed from t0 to harvest `joules` (the recharge
     * integral's inverse). Exact within each linear segment.
     *
     * `cursor`, when given, is a segment-index hint carried between
     * calls (HarvestSupply keeps one: its clock only moves forward,
     * modulo the period). A hint is always checked against the
     * segment bounds before use, so the result does not depend on
     * it; it only spares the backward scan over the control points.
     */
    f64 secondsToHarvest(f64 t0, f64 joules,
                         u32 *cursor = nullptr) const;

    /**
     * std::fmod(t, periodSeconds()), bit for bit. In-range inputs
     * come back unchanged and [period, 2 period) subtracts one period
     * (exact by Sterbenz' lemma, as fmod is exact); only the rest
     * pays for the library call.
     */
    f64
    wrap(f64 t) const
    {
        if (t >= 0.0 && t < period_)
            return t;
        if (t >= period_ && t < 2.0 * period_)
            return t - period_;
        return std::fmod(t, period_);
    }

    f64 periodSeconds() const { return period_; }
    f64 energyJoulesPerPeriod() const { return periodJoules_; }
    const std::vector<Point> &points() const { return table_->points; }

  private:
    /** One linear segment: point i to point i + 1, the last one
     * wrapping to points[0]'s rate at t = period. */
    struct Segment
    {
        f64 t0 = 0.0;   ///< start offset (points[i].seconds)
        f64 t1 = 0.0;   ///< end offset (next point, or the period)
        f64 w0 = 0.0;   ///< rate at t0
        f64 dw = 0.0;   ///< end rate minus w0 (0 on a flat segment)
        f64 dt = 0.0;   ///< t1 - t0
        f64 wEnd = 0.0; ///< watts(t1): the rate a step landing on t1 reads
    };

    struct Table
    {
        std::vector<Point> points;
        std::vector<Segment> segments;
    };

    void buildTable(std::vector<Point> points);

    /** t reduced into [0, period) the way the rate lookup sees it. */
    f64
    localTime(f64 t) const
    {
        f64 local = wrap(t);
        if (local < 0.0)
            local += period_;
        return local;
    }

    /** Index of the last control point at or before `local`: the hint
     * and its successor are tried first, then a backward scan. */
    u32 segmentAt(f64 local, u32 hint) const;

    /** The interpolated rate at `local` inside segment s. */
    static f64
    rateIn(const Segment &s, f64 local)
    {
        // On a flat segment the product is a signed zero whose sign
        // is that of (local - t0), which is the quotient's sign, so
        // the division can be skipped. Below t0 the quotient could
        // overflow to infinity (0 * inf is NaN), so that case divides.
        if (s.dw == 0.0 && local >= s.t0)
            return s.w0 + s.dw * (local - s.t0);
        return s.w0 + s.dw * ((local - s.t0) / s.dt);
    }

    std::shared_ptr<const Table> table_;
    /** table_->segments, for the hot lookups. */
    const Segment *segments_ = nullptr;
    u32 segmentCount_ = 0;
    f64 period_ = 1.0;
    f64 periodJoules_ = 0.0;
};

/**
 * A capacitor-buffered harvester in a time-varying environment: the
 * generalization of arch::CapacitorPower from constant income to a
 * HarvestModel. Identical lease protocol (the whole remaining charge
 * is granted; the remainder settles back), identical brown-out
 * semantics (residual charge below the regulator window is lost), but
 * recharge integrates the model forward from the current simulated
 * time, and Device::reboot's elapse() notifications keep that clock
 * aligned with device uptime.
 *
 * Optionally records the draw-call coordinate of every brown-out
 * (`recordFailures`), which is how the verification oracle converts a
 * realistic environment into an explicit failure-index schedule.
 *
 * Final: the fleet round cache replays its exact semantics (see
 * setLevelNjForReplay), and calls through a HarvestSupply reference
 * bind statically.
 */
class HarvestSupply final : public arch::PowerSupply
{
  public:
    HarvestSupply(std::string label, HarvestModel model,
                  f64 capacitance_farads, f64 phase_seconds = 0.0,
                  f64 v_max = arch::kRegulatorVMax,
                  f64 v_min = arch::kRegulatorVMin);

    bool draw(f64 nj) override;

    /** Hand the whole remaining charge out (see CapacitorPower). */
    arch::EnergyLease
    grant(f64 /*max_nj*/, u64 max_ops) override
    {
        const f64 nj = levelNj_;
        levelNj_ = 0.0;
        return {nj, max_ops};
    }

    void
    settle(f64 unused_nj, f64 /*used_nj*/, u64 used_ops) override
    {
        levelNj_ += unused_nj;
        draws_ += used_ops;
    }

    f64 recharge() override;

    /**
     * Advance the environment clock by device uptime. The clock wraps
     * into [0, period): the harvest model is periodic (watts() and
     * secondsToHarvest() reduce their argument by the period with
     * HarvestModel::wrap(), so wrapping here first is exactly
     * behavior-preserving), and an unwrapped accumulator loses f64
     * precision once uptime dwarfs the period — at extreme uptimes
     * small increments would be absorbed entirely and the phase would
     * drift. Zero and negative increments are no-ops.
     */
    void
    elapse(f64 live_seconds) override
    {
        if (live_seconds <= 0.0)
            return;
        simSeconds_ += live_seconds;
        wrapClock();
    }

    void reset() override;
    bool intermittent() const override { return true; }
    f64 capacityNj() const override { return capacityNj_; }
    f64 harvestedNj() const override { return harvestedNj_; }
    std::string describe() const override;

    /** @name Diagnostics and oracle instrumentation */
    /// @{
    f64 levelNj() const { return levelNj_; }
    f64 simSeconds() const { return simSeconds_; }
    const HarvestModel &model() const { return model_; }

    /** Record the draw coordinate of every brown-out (off by
     * default; the oracle's environment mode turns it on). */
    void setRecordFailures(bool enabled) { recordFailures_ = enabled; }

    /** Draw-call (== Device::consume call) cursor. */
    u64 drawsSoFar() const { return draws_; }

    /** Brown-out draw coordinates (when recording was enabled). */
    const std::vector<u64> &failureIndices() const
    {
        return failureIndices_;
    }

    /**
     * Round-replay hook for the fleet round cache
     * (src/fleet/round_cache.hh). A memoized round replays a device's
     * kernel trace arithmetically instead of re-running the simulator,
     * but the supply's clock walk must stay real: the replayer calls
     * elapse() with the recorded uptime deltas, forces the level a
     * brown-out would have left (0 before each recharge(), the
     * recorded end-of-round level after the last elapse), and lets
     * recharge() integrate the harvest model from the true simulated
     * time. Level, clock and harvested-energy evolution are then
     * bit-identical to the un-memoized run. Not for use outside
     * replay: it bypasses the draw/settle accounting.
     */
    void setLevelNjForReplay(f64 nj) { levelNj_ = nj; }
    /// @}

  private:
    /** Reduce the clock into [0, period) (see elapse()). */
    void
    wrapClock()
    {
        if (simSeconds_ >= model_.periodSeconds())
            simSeconds_ = model_.wrap(simSeconds_);
    }

    std::string label_;
    HarvestModel model_;
    f64 capacitanceFarads_;
    f64 phaseSeconds_;
    f64 capacityNj_;
    f64 levelNj_;
    f64 harvestedNj_;
    f64 simSeconds_;
    u64 draws_ = 0;
    /** Segment hint for recharge()'s harvest inversion. */
    u32 cursor_ = 0;
    bool recordFailures_ = false;
    std::vector<u64> failureIndices_;
};

/**
 * A non-owning view of another supply: forwards every PowerSupply
 * entry point to the borrowed instance. arch::Device takes ownership
 * of its supply, but a fleet device's environment must outlive the
 * sequence of Devices that run its inferences (the capacitor level
 * and the environment clock persist across them) — each inference
 * hands the Device a fresh BorrowedSupply over the long-lived one.
 */
class BorrowedSupply : public arch::PowerSupply
{
  public:
    explicit BorrowedSupply(arch::PowerSupply *inner) : inner_(inner) {}

    bool draw(f64 nj) override { return inner_->draw(nj); }

    arch::EnergyLease
    grant(f64 max_nj, u64 max_ops) override
    {
        return inner_->grant(max_nj, max_ops);
    }

    void
    settle(f64 unused_nj, f64 used_nj, u64 used_ops) override
    {
        inner_->settle(unused_nj, used_nj, used_ops);
    }

    f64 recharge() override { return inner_->recharge(); }
    void elapse(f64 live_seconds) override { inner_->elapse(live_seconds); }
    void reset() override { inner_->reset(); }
    bool intermittent() const override { return inner_->intermittent(); }
    f64 capacityNj() const override { return inner_->capacityNj(); }
    f64 harvestedNj() const override { return inner_->harvestedNj(); }
    std::string describe() const override { return inner_->describe(); }

  private:
    arch::PowerSupply *inner_;
};

/** Registered environment metadata (no supply is built to read it). */
struct EnvMeta
{
    /** Provenance bucket: "bench", "deployment", "trace", "custom". */
    std::string family = "custom";
    std::string description;

    /** Capacitor size when the EnvRef does not override it. */
    f64 defaultCapacitanceFarads = 100e-6;

    /** True for supplies that can never brown out ("continuous"). */
    bool alwaysOn = false;
};

/** Resolved build parameters handed to an environment builder. */
struct EnvInstance
{
    f64 capacitanceFarads = 100e-6;
    /** Deployment seed; perturbs phase only (see file comment). */
    u64 seed = 0;
};

/** Builds the supply for one resolved instance. */
using EnvBuilder = std::function<std::unique_ptr<arch::PowerSupply>(
    const EnvInstance &)>;

/**
 * The process-wide environment registry. Thread-safe; registration
 * mirrors ModelZoo (unique names, fatal on duplicates). Built-ins:
 *
 *   continuous   — wall power, never fails (family "bench")
 *   rf-paper     — the paper's Powercast RF deployment: constant
 *                  0.5 mW income into the capacitor (family "bench")
 *   rf-bursty    — ambient RF arriving in short high-power bursts
 *                  over a weak floor (family "deployment")
 *   solar        — a parametric diurnal cycle: zero at night, linear
 *                  ramps to a midday peak (family "deployment")
 *   duty-cycle   — a periodically keyed transmitter: full power for a
 *                  fixed on-window, dead otherwise ("deployment")
 *   trace-rf-office, trace-solar-cloudy
 *                — embedded measured-style traces played back through
 *                  the trace pipeline (family "trace")
 */
class EnvRegistry
{
  public:
    static EnvRegistry &instance();

    /** Register an environment; duplicate names are fatal. */
    void add(std::string name, EnvMeta meta, EnvBuilder build);

    /**
     * Register a harvest-model environment (the common case): the
     * builder wires the model into a HarvestSupply with the seeded
     * deployment phase.
     */
    void addHarvest(std::string name, EnvMeta meta, HarvestModel model);

    /**
     * Parse a CSV/JSON power trace file (env/traces.hh) and register
     * it as a playback environment. False with a diagnostic in *error
     * on parse failure or duplicate name; nothing is registered.
     */
    bool addTraceFile(const std::string &name, const std::string &path,
                      std::string *error = nullptr);

    bool contains(std::string_view name) const;

    /** Registered metadata; nullptr if unknown. Pointer stays valid
     * for the life of the process. */
    const EnvMeta *meta(std::string_view name) const;

    /** Registered names, in registration order. */
    std::vector<std::string> names() const;

    /** Comma-separated names(), for error messages. */
    std::string availableList() const;

    /**
     * Build the supply for an environment reference. The ref's
     * capacitance override (or the registered default) and the seed
     * resolve the instance; an unknown name is a fatal configuration
     * error reporting the registered environments.
     */
    std::unique_ptr<arch::PowerSupply> make(const EnvRef &ref,
                                            u64 seed) const;

  private:
    EnvRegistry();

    struct Row
    {
        std::string name;
        EnvMeta meta;
        EnvBuilder build;
    };

    const Row *rowFor(std::string_view name) const;

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Row>> rows_;
};

/** Format a capacitance for labels ("100uF", "50mF", "1.5F"). */
std::string formatCapacitance(f64 farads);

} // namespace sonic::env

#endif // SONIC_ENV_ENVIRONMENT_HH
