#include "fault/fault.hh"

#include <algorithm>
#include <charconv>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace unet::fault {

bool
ModelSpec::inert() const
{
    return drop == 0.0 && !gilbert && corrupt == 0.0 &&
        duplicate == 0.0 && reorder == 0.0 && jitterMax == 0 &&
        dropEvery == 0 && dropUnits.empty();
}

namespace {

/** FNV-1a: mix the site name into the plan seed so injector streams
 *  are independent of arming order. */
std::uint64_t
hashSite(std::string_view site)
{
    std::uint64_t h = 14695981039346656037ull;
    for (char c : site) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

Injector::Injector(sim::Simulation &sim, std::string site,
                   ModelSpec spec, std::uint64_t seed)
    : _sim(sim), _site(std::move(site)), _spec(std::move(spec)),
      _rng(seed ^ hashSite(_site)),
      _metrics(sim.metrics(),
               sim.metrics().uniquePrefix("fault." + _site))
{
    std::sort(_spec.dropUnits.begin(), _spec.dropUnits.end());
    _metrics.counter("units", _units);
    _metrics.counter("dropped", _dropped);
    _metrics.counter("corrupted", _corrupted);
    _metrics.counter("duplicated", _duplicated);
    _metrics.counter("delayed", _delayed);
}

Decision
Injector::decide(std::size_t unit_bits)
{
    Decision d;
    std::uint64_t n = _unitIndex++;
    ++_units;

    // Deterministic drops consume no randomness.
    bool doomed = _spec.dropEvery && (n + 1) % _spec.dropEvery == 0;
    while (_dropUnitsNext < _spec.dropUnits.size() &&
           _spec.dropUnits[_dropUnitsNext] < n)
        ++_dropUnitsNext;
    if (_dropUnitsNext < _spec.dropUnits.size() &&
        _spec.dropUnits[_dropUnitsNext] == n)
        doomed = true;

    // Every active random model consumes its draws for every unit,
    // independent of the unit's fate: surgically dropping unit k (or
    // losing it to another model) must not shift the random stream the
    // remaining units see.
    bool lost = false;
    if (_spec.gilbert) {
        // Advance the two-state channel once per unit, then lose with
        // the state's probability.
        if (_geBad) {
            if (_spec.badToGood > 0 && _rng.chance(_spec.badToGood))
                _geBad = false;
        } else if (_spec.goodToBad > 0 &&
                   _rng.chance(_spec.goodToBad)) {
            _geBad = true;
        }
        double p = _geBad ? _spec.badLoss : _spec.goodLoss;
        if (p > 0 && _rng.chance(p))
            lost = true;
    }
    if (_spec.drop > 0 && _rng.chance(_spec.drop))
        lost = true;

    bool corrupt = _spec.corrupt > 0 && _rng.chance(_spec.corrupt);
    std::uint32_t corrupt_bit = 0;
    if (corrupt)
        corrupt_bit = unit_bits
            ? static_cast<std::uint32_t>(
                  _rng.uniform(0, static_cast<std::int64_t>(unit_bits) -
                                      1))
            : 0;
    bool duplicate =
        _spec.duplicate > 0 && _rng.chance(_spec.duplicate);
    sim::Tick delay = 0;
    if (_spec.reorder > 0 && _rng.chance(_spec.reorder))
        delay = _spec.reorderDelay;
    if (_spec.jitterMax > 0)
        delay += _rng.uniform(0, _spec.jitterMax);

    if (doomed || lost) {
        d.drop = true;
        ++_dropped;
        return d; // a lost unit can suffer nothing else
    }
    if (corrupt) {
        d.corrupt = true;
        d.corruptBit = corrupt_bit;
        ++_corrupted;
    }
    if (duplicate) {
        d.duplicate = true;
        ++_duplicated;
    }
    d.delay = delay;
    if (d.delay != 0)
        ++_delayed;
    return d;
}

void
Injector::stamp(const obs::TraceContext &ctx, const Decision &d)
{
    if (!ctx)
        return;
    if (auto *tr = _sim.trace()) {
        const char *what = d.drop ? "drop"
            : d.corrupt            ? "corrupt"
            : d.duplicate          ? "duplicate"
                                   : "delay";
        tr->record(ctx.id, obs::SpanKind::Fault, "fault." + _site,
                   _sim.now(), _sim.now(), what);
    }
}

void
flipBit(std::span<std::uint8_t> bytes, std::uint32_t bit)
{
    if (bytes.empty())
        return;
    std::size_t byte = (bit / 8) % bytes.size();
    bytes[byte] ^= static_cast<std::uint8_t>(1u << (bit % 8));
}

ModelSpec &
Plan::model(const std::string &site_pattern)
{
    for (auto &[pat, spec] : _models)
        if (pat == site_pattern)
            return spec;
    _models.emplace_back(site_pattern, ModelSpec{});
    return _models.back().second;
}

bool
Plan::empty() const
{
    for (const auto &[pat, spec] : _models)
        if (!spec.inert())
            return false;
    return true;
}

namespace {

/** True if @p pattern (exact, or prefix ending in '*') covers @p site. */
bool
patternMatches(std::string_view pattern, std::string_view site)
{
    if (!pattern.empty() && pattern.back() == '*') {
        pattern.remove_suffix(1);
        return site.substr(0, pattern.size()) == pattern;
    }
    return pattern == site;
}

} // namespace

Injector *
Plan::arm(sim::Simulation &sim, std::string_view site)
{
    // Longest matching pattern wins; exact beats a wildcard of equal
    // length. Later definitions win ties (">=" below).
    const ModelSpec *best = nullptr;
    std::size_t best_len = 0;
    bool best_exact = false;
    for (const auto &[pat, spec] : _models) {
        if (!patternMatches(pat, site))
            continue;
        bool exact = pat.empty() || pat.back() != '*';
        if (best && (pat.size() < best_len ||
                     (pat.size() == best_len && best_exact && !exact)))
            continue;
        best = &spec;
        best_len = pat.size();
        best_exact = exact;
    }
    if (!best || best->inert())
        return nullptr;
    _injectors.push_back(std::make_unique<Injector>(
        sim, std::string(site), *best, _seed));
    return _injectors.back().get();
}

namespace {

double
parseDouble(std::string_view clause, std::string_view v)
{
    double out = 0;
    auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc{} || p != v.data() + v.size())
        UNET_FATAL("fault plan: bad number in '", std::string(clause),
                   "'");
    return out;
}

std::uint64_t
parseU64(std::string_view clause, std::string_view v)
{
    std::uint64_t out = 0;
    auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc{} || p != v.data() + v.size())
        UNET_FATAL("fault plan: bad integer in '", std::string(clause),
                   "'");
    return out;
}

/** Parse "a/b/c[/d]" Gilbert-Elliott shorthand. */
void
parseGe(ModelSpec &m, std::string_view clause, std::string_view v)
{
    std::vector<double> parts;
    while (!v.empty()) {
        std::size_t slash = v.find('/');
        parts.push_back(parseDouble(clause, v.substr(0, slash)));
        v = slash == std::string_view::npos ? std::string_view{}
                                           : v.substr(slash + 1);
    }
    if (parts.size() < 3 || parts.size() > 4)
        UNET_FATAL("fault plan: ge= wants Pgb/Pbg/PlossBad[/PlossGood] "
                   "in '", std::string(clause), "'");
    m.gilbert = true;
    m.goodToBad = parts[0];
    m.badToGood = parts[1];
    m.badLoss = parts[2];
    m.goodLoss = parts.size() == 4 ? parts[3] : 0.0;
}

} // namespace

Plan
Plan::parse(std::string_view scenario)
{
    Plan plan;
    std::string_view rest = scenario;
    auto is_sep = [](char c) {
        return c == ' ' || c == '\t' || c == '\n' || c == ',' ||
            c == ';';
    };
    while (!rest.empty()) {
        while (!rest.empty() && is_sep(rest.front()))
            rest.remove_prefix(1);
        if (rest.empty())
            break;
        std::size_t end = 0;
        while (end < rest.size() && !is_sep(rest[end]))
            ++end;
        std::string_view clause = rest.substr(0, end);
        rest.remove_prefix(end);

        std::size_t eq = clause.find('=');
        if (eq == std::string_view::npos)
            UNET_FATAL("fault plan: clause '", std::string(clause),
                       "' is not key=value");
        std::string_view key = clause.substr(0, eq);
        std::string_view val = clause.substr(eq + 1);

        if (key == "seed") {
            plan.setSeed(parseU64(clause, val));
            continue;
        }

        // <site>.<knob>=<value>: the knob is the last dotted component.
        std::size_t dot = key.rfind('.');
        if (dot == std::string_view::npos)
            UNET_FATAL("fault plan: unknown key '", std::string(key),
                       "' (want seed= or <site>.<knob>=)");
        std::string site(key.substr(0, dot));
        std::string_view knob = key.substr(dot + 1);
        ModelSpec &m = plan.model(site);
        if (knob == "drop")
            m.drop = parseDouble(clause, val);
        else if (knob == "corrupt")
            m.corrupt = parseDouble(clause, val);
        else if (knob == "dup")
            m.duplicate = parseDouble(clause, val);
        else if (knob == "reorder")
            m.reorder = parseDouble(clause, val);
        else if (knob == "reorder_delay_us")
            m.reorderDelay =
                sim::microsecondsF(parseDouble(clause, val));
        else if (knob == "jitter_us")
            m.jitterMax = sim::microsecondsF(parseDouble(clause, val));
        else if (knob == "drop_every")
            m.dropEvery = parseU64(clause, val);
        else if (knob == "ge")
            parseGe(m, clause, val);
        else
            UNET_FATAL("fault plan: unknown knob '", std::string(knob),
                       "' in '", std::string(clause), "'");
    }
    return plan;
}

} // namespace unet::fault
