#include "env/environment.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "env/traces.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace sonic::env
{

// --- EnvRef ---------------------------------------------------------

std::string
formatCapacitance(f64 farads)
{
    std::ostringstream os;
    if (farads >= 1.0)
        os << farads << "F";
    else if (farads >= 1e-3)
        os << farads * 1e3 << "mF";
    else if (farads >= 1e-6)
        os << farads * 1e6 << "uF";
    else
        os << farads * 1e9 << "nF";
    return os.str();
}

std::string
EnvRef::label() const
{
    if (capacitanceFarads <= 0.0)
        return env;
    return env + "@" + formatCapacitance(capacitanceFarads);
}

bool
parseEnvRef(const std::string &text, EnvRef *out, std::string *error)
{
    const auto at = text.find('@');
    out->env = text.substr(0, at);
    out->capacitanceFarads = 0.0;
    if (out->env.empty()) {
        *error = "environment reference '" + text
               + "' has an empty name";
        return false;
    }
    if (at == std::string::npos)
        return true;

    const std::string cap = text.substr(at + 1);
    std::size_t used = 0;
    f64 value = 0.0;
    try {
        value = std::stod(cap, &used);
    } catch (const std::exception &) {
        *error = "environment reference '" + text
               + "': unparsable capacitance '" + cap + "'";
        return false;
    }
    const std::string unit = cap.substr(used);
    f64 scale = 0.0;
    if (unit == "F")
        scale = 1.0;
    else if (unit == "mF")
        scale = 1e-3;
    else if (unit == "uF")
        scale = 1e-6;
    else if (unit == "nF")
        scale = 1e-9;
    if (scale == 0.0) {
        *error = "environment reference '" + text
               + "': capacitance unit must be F, mF, uF or nF (got '"
               + unit + "')";
        return false;
    }
    // NaN, infinity and a product that underflows (to a subnormal, or
    // to 0.0, which would silently mean "the environment's default")
    // are all rejected.
    const f64 farads = value * scale;
    if (!(std::isnormal(farads) && farads > 0.0)) {
        *error = "environment reference '" + text
               + "': capacitance must be positive and finite";
        return false;
    }
    out->capacitanceFarads = farads;
    return true;
}

// --- HarvestModel ---------------------------------------------------

HarvestModel::HarvestModel()
{
    buildTable({{0.0, 0.0}});
}

HarvestModel::HarvestModel(std::vector<Point> points, f64 period_seconds)
    : period_(period_seconds)
{
    SONIC_ASSERT(!points.empty(), "harvest model needs control points");
    SONIC_ASSERT(period_ > 0.0, "harvest model period must be positive");
    SONIC_ASSERT(points.front().seconds == 0.0,
                 "harvest model must start at t = 0");
    for (u64 i = 0; i < points.size(); ++i) {
        SONIC_ASSERT(points[i].watts >= 0.0,
                     "harvest power cannot be negative");
        SONIC_ASSERT(points[i].seconds < period_,
                     "harvest control point beyond the period");
        if (i > 0)
            SONIC_ASSERT(points[i].seconds > points[i - 1].seconds,
                         "harvest control points must be increasing");
    }
    buildTable(std::move(points));
    SONIC_ASSERT(periodJoules_ > 0.0,
                 "harvest model must deliver positive energy per "
                 "period — an always-dead environment cannot recharge");
}

void
HarvestModel::buildTable(std::vector<Point> points)
{
    auto table = std::make_shared<Table>();
    table->points = std::move(points);
    const auto &pts = table->points;
    const u64 n = pts.size();
    table->segments.resize(n);
    periodJoules_ = 0.0;
    for (u64 i = 0; i < n; ++i) {
        // The final segment wraps to the first point's rate at
        // t = period.
        Segment &s = table->segments[i];
        const f64 w1 = i + 1 < n ? pts[i + 1].watts : pts[0].watts;
        s.t0 = pts[i].seconds;
        s.t1 = i + 1 < n ? pts[i + 1].seconds : period_;
        s.w0 = pts[i].watts;
        s.dw = w1 - s.w0;
        s.dt = s.t1 - s.t0;
        periodJoules_ += 0.5 * (s.w0 + w1) * s.dt;
    }
    segments_ = table->segments.data();
    segmentCount_ = static_cast<u32>(n);
    // Each segment's end rate goes through the same lookup a step
    // landing exactly on t1 takes, so the cached value is that read.
    for (u64 i = 0; i < n; ++i)
        table->segments[i].wEnd = watts(table->segments[i].t1);
    table_ = std::move(table);
}

HarvestModel
HarvestModel::constant(f64 watts)
{
    SONIC_ASSERT(watts > 0.0, "constant harvest power must be positive");
    return HarvestModel({{0.0, watts}}, 1.0);
}

u32
HarvestModel::segmentAt(f64 local, u32 hint) const
{
    const auto brackets = [&](u32 i) {
        return segments_[i].t0 <= local && local < segments_[i].t1;
    };
    if (hint < segmentCount_ && brackets(hint))
        return hint;
    const u32 next = hint + 1 < segmentCount_ ? hint + 1 : 0;
    if (brackets(next))
        return next;
    u32 i = segmentCount_ - 1;
    while (i > 0 && segments_[i].t0 > local)
        --i;
    return i;
}

f64
HarvestModel::watts(f64 t) const
{
    const f64 local = localTime(t);
    return rateIn(segments_[segmentAt(local, 0)], local);
}

f64
HarvestModel::energyJoules(f64 t0, f64 dt) const
{
    SONIC_ASSERT(dt >= 0.0);
    // Whole periods first, then march the partial span segment by
    // segment with trapezoids (the rate is linear inside a segment).
    f64 joules = std::floor(dt / period_) * periodJoules_;
    f64 t = t0;
    f64 left = wrap(dt);
    u32 i = 0;
    while (left > 0.0) {
        const f64 local = localTime(t);
        i = segmentAt(local, i);
        const f64 step = std::min(left, segments_[i].t1 - local);
        if (step <= 0.0)
            break; // numeric guard at a segment boundary
        joules += 0.5 * (watts(t) + watts(t + step)) * step;
        // A step below the clock's ulp cannot move t, and the walk
        // would repeat it indefinitely: move t to the next double.
        t = t + step != t ? t + step
                          : std::nextafter(
                                t, std::numeric_limits<f64>::infinity());
        left -= step;
    }
    return joules;
}

f64
HarvestModel::secondsToHarvest(f64 t0, f64 joules, u32 *cursor) const
{
    if (joules <= 0.0)
        return 0.0;
    // Reduce by whole periods so the segment walk below is bounded.
    f64 seconds = 0.0;
    if (joules > periodJoules_) {
        const f64 periods = std::floor(joules / periodJoules_);
        seconds += periods * period_;
        joules -= periods * periodJoules_;
        if (joules <= 0.0)
            return seconds;
    }
    f64 t = t0 + seconds;
    // Each step's start state (local time, segment, rate) is the
    // previous step's end state whenever the walk moved: both are the
    // lookup of the same t, so they are carried, not recomputed.
    f64 local = localTime(t);
    u32 i = segmentAt(local, cursor != nullptr ? *cursor : 0);
    f64 w0 = rateIn(segments_[i], local);
    // At most two extra periods of segments cover the remainder (the
    // guard protects against pathological rounding at boundaries).
    const u64 max_steps = 2 * (u64{segmentCount_} + 1) + 4;
    for (u64 step = 0; step < max_steps; ++step) {
        const Segment &seg = segments_[i];
        f64 span = seg.t1 - local;
        if (span <= 0.0)
            span = 0.0;
        // The rate at the step's end. A step that lands exactly on
        // the segment end reads the rate cached for that input; at
        // the period the wrapped time is +0 in segment 0.
        const f64 t_end = t + span;
        f64 local_end = 0.0;
        u32 i_end = 0;
        f64 w1 = seg.wEnd;
        if (t_end == seg.t1) {
            if (i + 1 < segmentCount_) {
                local_end = seg.t1;
                i_end = i + 1;
            }
        } else {
            local_end = localTime(t_end);
            i_end = segmentAt(local_end, i + 1);
            w1 = rateIn(segments_[i_end], local_end);
        }
        const f64 seg_joules = 0.5 * (w0 + w1) * span;
        if (seg_joules >= joules && seg_joules > 0.0) {
            // Solve p0*τ + m*τ²/2 = joules inside this segment. Equal
            // end rates make the slope's numerator +0 exactly.
            const f64 m = w1 != w0 && span > 0.0 ? (w1 - w0) / span
                                                   : 0.0;
            f64 tau;
            if (std::fabs(m) < 1e-18) {
                tau = joules / w0;
            } else {
                const f64 disc = w0 * w0 + 2.0 * m * joules;
                tau = (std::sqrt(std::max(disc, 0.0)) - w0) / m;
            }
            tau = std::clamp(tau, 0.0, span);
            if (cursor != nullptr)
                *cursor = i;
            return seconds + tau;
        }
        joules -= seg_joules;
        seconds += span;
        t = t_end;
        if (span == 0.0) {
            // Step over zero-width remainders at period boundaries.
            const f64 nudge = period_ * 1e-12;
            seconds += nudge;
            t += nudge;
            local = localTime(t);
            i = segmentAt(local, i);
            w0 = rateIn(segments_[i], local);
        } else {
            local = local_end;
            i = i_end;
            w0 = w1;
        }
    }
    if (cursor != nullptr)
        *cursor = i;
    // Rounding starved the walk: fall back to the mean rate.
    return seconds + joules / (periodJoules_ / period_);
}

// --- HarvestSupply --------------------------------------------------

HarvestSupply::HarvestSupply(std::string label, HarvestModel model,
                             f64 capacitance_farads, f64 phase_seconds,
                             f64 v_max, f64 v_min)
    : label_(std::move(label)), model_(std::move(model)),
      capacitanceFarads_(capacitance_farads),
      phaseSeconds_(phase_seconds),
      capacityNj_(0.5 * capacitance_farads
                  * (v_max * v_max - v_min * v_min) * 1e9),
      levelNj_(capacityNj_), harvestedNj_(capacityNj_),
      simSeconds_(phase_seconds)
{
    SONIC_ASSERT(capacitance_farads > 0.0);
    SONIC_ASSERT(v_max > v_min && v_min > 0.0);
    SONIC_ASSERT(phase_seconds >= 0.0);
}

bool
HarvestSupply::draw(f64 nj)
{
    SONIC_ASSERT(nj >= 0.0);
    if (levelNj_ >= nj) {
        levelNj_ -= nj;
        ++draws_;
        return true;
    }
    // Brown-out: the residual charge is below the regulator window
    // and is lost (same physics as CapacitorPower).
    levelNj_ = 0.0;
    if (recordFailures_)
        failureIndices_.push_back(draws_);
    ++draws_;
    return false;
}

f64
HarvestSupply::recharge()
{
    const f64 deficit_nj = capacityNj_ - levelNj_;
    const f64 dead = model_.secondsToHarvest(
        simSeconds_, deficit_nj * 1e-9, &cursor_);
    simSeconds_ += dead;
    wrapClock();
    harvestedNj_ += deficit_nj;
    levelNj_ = capacityNj_;
    return dead;
}

void
HarvestSupply::reset()
{
    levelNj_ = capacityNj_;
    harvestedNj_ = capacityNj_;
    simSeconds_ = phaseSeconds_;
    draws_ = 0;
    cursor_ = 0;
    failureIndices_.clear();
}

std::string
HarvestSupply::describe() const
{
    return label_ + " (" + formatCapacitance(capacitanceFarads_)
         + " capacitor)";
}

// --- EnvRegistry ----------------------------------------------------

EnvRegistry &
EnvRegistry::instance()
{
    static EnvRegistry registry;
    return registry;
}

namespace
{

/** Deterministic deployment phase: where in the environment cycle the
 * device boots. The only thing a seed perturbs. */
f64
seededPhase(const HarvestModel &model, u64 seed)
{
    return Rng(seed).uniform(0.0, model.periodSeconds());
}

} // namespace

EnvRegistry::EnvRegistry()
{
    {
        EnvMeta meta;
        meta.family = "bench";
        meta.description = "wall power, never fails";
        meta.alwaysOn = true;
        add("continuous", meta, [](const EnvInstance &) {
            return std::make_unique<arch::ContinuousPower>();
        });
    }
    {
        EnvMeta meta;
        meta.family = "bench";
        meta.description = "the paper's Powercast RF deployment: "
                           "constant 0.5 mW harvest into the capacitor";
        addHarvest("rf-paper", meta, HarvestModel::constant(0.5e-3));
    }
    {
        EnvMeta meta;
        meta.family = "deployment";
        meta.description =
            "ambient RF bursts: 2 s at 5 mW every minute over a "
            "0.05 mW floor";
        addHarvest("rf-bursty", meta,
                   HarvestModel({{0.0, 5e-3},
                                 {2.0, 5e-3},
                                 {2.5, 0.05e-3},
                                 {59.5, 0.05e-3}},
                                60.0));
    }
    {
        EnvMeta meta;
        meta.family = "deployment";
        meta.description =
            "solar diurnal cycle: dark nights, linear ramps to a "
            "12 mW midday peak";
        addHarvest("solar", meta,
                   HarvestModel({{0.0, 0.0},
                                 {21600.0, 0.0},
                                 {43200.0, 12e-3},
                                 {64800.0, 0.0}},
                                86400.0));
    }
    {
        EnvMeta meta;
        meta.family = "deployment";
        meta.description = "duty-cycled source: 1 s at 10 mW every "
                           "10 s, dead otherwise";
        addHarvest("duty-cycle", meta,
                   HarvestModel({{0.0, 10e-3},
                                 {1.0, 10e-3},
                                 {1.01, 0.0},
                                 {9.99, 0.0}},
                                10.0));
    }
    // Embedded measured-style traces: the playback pipeline is the
    // same one user trace files go through (addTraceFile), so these
    // double as its always-available smoke coverage.
    {
        std::string error;
        HarvestModel office;
        if (!parseTraceCsv(kTraceRfOfficeCsv, &office, &error))
            fatal("embedded trace trace-rf-office is invalid: ", error);
        EnvMeta meta;
        meta.family = "trace";
        meta.description = "embedded office RF power trace (CSV "
                           "playback)";
        addHarvest("trace-rf-office", meta, std::move(office));
    }
    {
        std::string error;
        HarvestModel cloudy;
        if (!parseTraceJson(kTraceSolarCloudyJson, &cloudy, &error))
            fatal("embedded trace trace-solar-cloudy is invalid: ",
                  error);
        EnvMeta meta;
        meta.family = "trace";
        meta.description = "embedded cloudy-day solar power trace "
                           "(JSON playback)";
        addHarvest("trace-solar-cloudy", meta, std::move(cloudy));
    }
}

void
EnvRegistry::add(std::string name, EnvMeta meta, EnvBuilder build)
{
    SONIC_ASSERT(!name.empty(), "environment name must be non-empty");
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &row : rows_)
        SONIC_ASSERT(row->name != name, "environment '", name,
                     "' registered twice");
    auto row = std::make_unique<Row>();
    row->name = std::move(name);
    row->meta = std::move(meta);
    row->build = std::move(build);
    rows_.push_back(std::move(row));
}

void
EnvRegistry::addHarvest(std::string name, EnvMeta meta,
                        HarvestModel model)
{
    const std::string label = name;
    add(std::move(name), std::move(meta),
        [label, model = std::move(model)](const EnvInstance &inst) {
            return std::make_unique<HarvestSupply>(
                label, model, inst.capacitanceFarads,
                seededPhase(model, inst.seed));
        });
}

bool
EnvRegistry::addTraceFile(const std::string &name,
                          const std::string &path, std::string *error)
{
    std::string scratch;
    std::string &err = error != nullptr ? *error : scratch;
    HarvestModel model;
    if (!loadTraceFile(path, &model, &err))
        return false;
    if (contains(name)) {
        err = "environment '" + name + "' is already registered";
        return false;
    }
    EnvMeta meta;
    meta.family = "trace";
    meta.description = "power trace playback from " + path;
    addHarvest(name, meta, std::move(model));
    return true;
}

bool
EnvRegistry::contains(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rowFor(name) != nullptr;
}

const EnvMeta *
EnvRegistry::meta(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const Row *row = rowFor(name);
    return row != nullptr ? &row->meta : nullptr;
}

std::vector<std::string>
EnvRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(rows_.size());
    for (const auto &row : rows_)
        out.push_back(row->name);
    return out;
}

std::string
EnvRegistry::availableList() const
{
    std::string out;
    for (const auto &name : names()) {
        if (!out.empty())
            out += ", ";
        out += name;
    }
    return out;
}

const EnvRegistry::Row *
EnvRegistry::rowFor(std::string_view name) const
{
    for (const auto &row : rows_)
        if (row->name == name)
            return row.get();
    return nullptr;
}

std::unique_ptr<arch::PowerSupply>
EnvRegistry::make(const EnvRef &ref, u64 seed) const
{
    // Rows are heap-pinned and never removed or modified once added,
    // so the builder runs outside the lock without being copied.
    const Row *row = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        row = rowFor(ref.env);
    }
    if (row == nullptr)
        fatal("unknown environment '", ref.env,
              "'; registered environments: ", availableList());
    EnvInstance inst;
    inst.seed = seed;
    inst.capacitanceFarads = ref.capacitanceFarads > 0.0
        ? ref.capacitanceFarads
        : row->meta.defaultCapacitanceFarads;
    return row->build(inst);
}

} // namespace sonic::env
