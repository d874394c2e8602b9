/**
 * @file
 * The shared suite driver of the registry benches (bench/suite.hh):
 * every gate band trips outside its band and on one-sided absence,
 * every invariant trips on a violating value and on a missing series,
 * cell ownership partitions the registry, and each committed
 * BENCH_*.json names exactly the cells its suite runs by default.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "harness/json.hh"
#include "scenario/registry.hh"
#include "suite.hh"

namespace llcf {
namespace {

const std::string kRepoRoot = LLCF_REPO_ROOT;

constexpr ScenarioSuite kAllSuites[] = {
    ScenarioSuite::Matrix,  ScenarioSuite::E2e,
    ScenarioSuite::FullScale, ScenarioSuite::Calib,
    ScenarioSuite::Defense, ScenarioSuite::Traffic};

/** The suites gated against a committed baseline at the repo root. */
constexpr ScenarioSuite kGatedSuites[] = {
    ScenarioSuite::Calib, ScenarioSuite::Defense, ScenarioSuite::Traffic,
    ScenarioSuite::E2e, ScenarioSuite::FullScale};

std::string
baselinePath(const SuiteDomain &d)
{
    return kRepoRoot + "/BENCH_" + d.id + ".json";
}

JsonValue
loadBaseline(const SuiteDomain &d)
{
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(loadJsonFile(baselinePath(d), doc, &err)) << err;
    return doc;
}

/** The entry named @p cell in a suite document, or nullptr. */
const JsonValue *
entryOf(const JsonValue &doc, const std::string &cell)
{
    for (const JsonValue &e : doc.find("benchmarks")->items()) {
        if (e.find("name")->asString() == cell)
            return &e;
    }
    return nullptr;
}

/** The number at @p path in @p cell's entry, or nullptr. */
const JsonValue *
numberAt(const JsonValue &doc, const std::string &cell,
         const SuitePath &path)
{
    const JsonValue *v = entryOf(doc, cell);
    for (const std::string &key : path) {
        if (!v || !v->isObject())
            return nullptr;
        v = v->find(key);
    }
    return v && v->isNumber() ? v : nullptr;
}

std::string
joinedPath(const SuitePath &path)
{
    std::string out;
    for (const std::string &key : path)
        out += (out.empty() ? "" : ".") + key;
    return out;
}

/** One change to a suite document: the series at @p path of @p cell
 *  set to @p value, or to null (an unrecorded series). */
struct Edit
{
    std::string cell;
    SuitePath path;
    std::optional<double> value;
};

void
copyValue(JsonWriter &w, const JsonValue &v, const Edit *e,
          std::size_t depth)
{
    switch (v.kind()) {
      case JsonValue::Kind::Null:
        w.null();
        return;
      case JsonValue::Kind::Bool:
        w.value(v.asBool());
        return;
      case JsonValue::Kind::Number:
        w.value(v.asNumber());
        return;
      case JsonValue::Kind::String:
        w.value(v.asString());
        return;
      case JsonValue::Kind::Array:
        w.beginArray();
        for (const JsonValue &item : v.items()) {
            const JsonValue *name = item.isObject() ? item.find("name")
                                                    : nullptr;
            const bool target = e && depth == 0 && name &&
                                name->asString() == e->cell;
            copyValue(w, item, target ? e : nullptr, 1);
        }
        w.endArray();
        return;
      case JsonValue::Kind::Object:
        w.beginObject();
        for (const auto &[key, member] : v.members()) {
            w.key(key);
            const std::size_t at = depth - 1; // depth 1 = entry level
            const bool on = e && depth >= 1 && at < e->path.size() &&
                            key == e->path[at];
            if (on && at + 1 == e->path.size()) {
                if (e->value)
                    w.value(*e->value);
                else
                    w.null();
            } else {
                copyValue(w, member, on ? e : nullptr, depth + 1);
            }
        }
        w.endObject();
        return;
    }
}

/** @p doc with @p edit applied (depth 0 is the document itself; the
 *  "benchmarks" array's entries sit at depth 1). */
JsonValue
edited(const JsonValue &doc, const Edit &edit)
{
    JsonWriter w;
    w.beginObject();
    for (const auto &[key, member] : doc.members()) {
        w.key(key);
        copyValue(w, member, key == "benchmarks" ? &edit : nullptr, 0);
    }
    w.endObject();
    JsonValue out;
    std::string err;
    EXPECT_TRUE(parseJson(w.str(), out, &err)) << err;
    const JsonValue *v = numberAt(out, edit.cell, edit.path);
    EXPECT_EQ(v != nullptr, edit.value.has_value())
        << edit.cell << " has no such series";
    return out;
}

/** Write @p doc as a baseline file and return its path. */
std::string
writeBaseline(const JsonValue &doc, const std::string &name)
{
    JsonWriter w;
    w.beginObject();
    for (const auto &[key, member] : doc.members()) {
        w.key(key);
        copyValue(w, member, nullptr, 0);
    }
    w.endObject();
    const std::string path = ::testing::TempDir() + name;
    std::ofstream(path) << w.str() << "\n";
    return path;
}

/** The first baseline cell recording a number at @p band's series,
 *  and that series. */
std::pair<std::string, SuitePath>
bandedCell(const JsonValue &doc, const SuiteBand &band)
{
    for (const JsonValue &e : doc.find("benchmarks")->items()) {
        const std::string &name = e.find("name")->asString();
        const ScenarioSpec *spec = builtinScenarios().find(name);
        if (!spec)
            continue;
        SuitePath series = suiteSeries(band.path, spec->stage);
        if (numberAt(doc, name, series))
            return {name, series};
    }
    return {};
}

// ------------------------------------------------------ ownership

TEST(SuiteOwnership, EveryCellHasExactlyOneOwner)
{
    const ScenarioRegistry &reg = builtinScenarios();
    std::size_t owned = 0;
    for (ScenarioSuite suite : kAllSuites)
        owned += reg.owned(suite).size();
    EXPECT_EQ(owned, reg.all().size());
    for (const ScenarioSpec &s : reg.all()) {
        unsigned owners = 0;
        for (ScenarioSuite suite : kAllSuites) {
            for (const ScenarioSpec *c : reg.owned(suite))
                owners += c == &s;
        }
        EXPECT_EQ(owners, 1u) << s.name;
    }
}

TEST(SuiteOwnership, CommittedBaselinesNameExactlyTheDefaultCells)
{
    // A new cell silently falling out of (or into) a gated suite shows
    // up here, before its baseline goes stale.
    for (ScenarioSuite suite : kGatedSuites) {
        const SuiteDomain &d = suiteDomain(suite);
        const JsonValue doc = loadBaseline(d);
        std::vector<std::string> committed, owned;
        for (const JsonValue &e : doc.find("benchmarks")->items())
            committed.push_back(e.find("name")->asString());
        for (const ScenarioSpec *s : builtinScenarios().owned(suite))
            owned.push_back(s->name);
        EXPECT_EQ(committed, owned) << d.id;
    }
}

TEST(SuiteOwnership, BudgetSweepClonesTheRotationCampaign)
{
    const auto &all = builtinScenarios().all();
    const ScenarioSpec *rotate =
        builtinScenarios().find("traffic-rotate-tiny-campaign-2");
    ASSERT_NE(rotate, nullptr);
    const std::size_t at = static_cast<std::size_t>(rotate - all.data());
    const char *names[] = {"traffic-budget-5ms", "traffic-budget-20ms",
                           "traffic-budget-1000ms"};
    const double budgets[] = {0.005, 0.02, 1.0};
    ASSERT_GE(all.size(), at + 4);
    for (std::size_t i = 0; i < 3; ++i) {
        const ScenarioSpec &s = all[at + 1 + i];
        EXPECT_EQ(s.name, names[i]);
        EXPECT_EQ(s.scanTimeoutSec, budgets[i]);
        EXPECT_EQ(s.stage, rotate->stage);
        EXPECT_EQ(s.fleetSize, rotate->fleetSize);
        EXPECT_EQ(s.defaultTrials, rotate->defaultTrials);
        EXPECT_EQ(s.rotateKeys, rotate->rotateKeys);
        EXPECT_EQ(s.tracesPerVictim, rotate->tracesPerVictim);
        EXPECT_EQ(scenarioSuite(s), ScenarioSuite::Traffic);
    }
}

TEST(SuiteOwnership, SmokeCaps)
{
    const ScenarioSpec *calib =
        builtinScenarios().find("calib-tiny-lru-silent");
    ASSERT_NE(calib, nullptr);
    ASSERT_GT(calib->defaultTrials, 2u);
    EXPECT_EQ(suiteTrials(suiteDomain(ScenarioSuite::Matrix), *calib,
                          true),
              1u);
    EXPECT_EQ(suiteTrials(suiteDomain(ScenarioSuite::Calib), *calib,
                          true),
              2u);
}

// ---------------------------------------------------------- gates

TEST(SuiteGate, CommittedBaselinesPassTheirOwnGate)
{
    for (ScenarioSuite suite : kGatedSuites) {
        const SuiteDomain &d = suiteDomain(suite);
        EXPECT_EQ(gateSuite(d, loadBaseline(d), baselinePath(d)), 0u)
            << d.id;
    }
}

TEST(SuiteGate, UnreadableBaselineAndMissingCellsFail)
{
    const SuiteDomain &calib = suiteDomain(ScenarioSuite::Calib);
    const SuiteDomain &traffic = suiteDomain(ScenarioSuite::Traffic);
    EXPECT_GT(gateSuite(calib, loadBaseline(calib),
                        kRepoRoot + "/no-such-baseline.json"),
              0u);
    // Every traffic cell is missing from the calibration baseline.
    EXPECT_GT(gateSuite(traffic, loadBaseline(traffic),
                        baselinePath(calib)),
              0u);
}

TEST(SuiteGate, EveryBandTripsOutsideAndHoldsInside)
{
    for (ScenarioSuite suite : {ScenarioSuite::Calib,
                                ScenarioSuite::Defense,
                                ScenarioSuite::Traffic,
                                ScenarioSuite::E2e}) {
        // Bands alone: an edited series must not trip an invariant.
        SuiteDomain d = suiteDomain(suite);
        d.invariants.clear();
        const JsonValue run = loadBaseline(d);
        for (const SuiteBand &band : d.bands) {
            const auto found = bandedCell(run, band);
            const std::string &cell = found.first;
            const SuitePath &series = found.second;
            ASSERT_FALSE(cell.empty()) << d.id;
            SCOPED_TRACE(std::string(d.id) + " " + cell);
            const double v = numberAt(run, cell, series)->asNumber();
            const double tol =
                band.relative ? d.cyclesTolerance : d.rateTolerance;
            auto gate = [&](const JsonValue &r, const JsonValue &b) {
                return gateSuite(d, r, writeBaseline(b, "band.json"));
            };
            auto at = [&](const JsonValue &doc, std::optional<double> x) {
                return edited(doc, {cell, series, x});
            };

            // The baseline moved so the run sits outside / inside.
            const double outside =
                band.relative ? (v + 1.0) * 4.0 : v + 2.0 * tol;
            const double inside =
                band.relative ? v / (1.0 + tol / 2.0) : v + tol / 2.0;
            EXPECT_EQ(gate(run, at(run, outside)), 1u);
            EXPECT_EQ(gate(run, at(run, inside)), 0u);

            // One-sided absence always fails; absence on both sides
            // follows the suite's rule for this band.
            EXPECT_EQ(gate(at(run, std::nullopt), run), 1u);
            EXPECT_EQ(gate(run, at(run, std::nullopt)), 1u);
            EXPECT_EQ(gate(at(run, std::nullopt), at(run, std::nullopt)),
                      band.bothAbsentPasses ? 0u : 1u);
        }
    }
}

TEST(SuiteGate, BandKindsAndAbsenceRulesPerSuite)
{
    // Rates sit in absolute bands and cycle means in relative ones.
    // calib: any absence fails; e2e: a missing fleet success rate
    // fails but total_cycles absent on both sides passes; defense and
    // traffic: absent on both sides passes for both bands.
    auto rules = [](ScenarioSuite suite) {
        std::vector<std::string> out;
        for (const SuiteBand &b : suiteDomain(suite).bands) {
            out.push_back(joinedPath(b.path) +
                          (b.relative ? " rel" : " abs") +
                          (b.bothAbsentPasses ? " pass" : " fail"));
        }
        return out;
    };
    const std::vector<std::string> calib = {
        "outcomes.calibrated.rate abs fail",
        "outcomes.w_llc_match.rate abs fail",
        "outcomes.w_sf_match.rate abs fail",
        "outcomes.slices_match.rate abs fail",
        "outcomes.topology_match.rate abs fail",
        "metrics.calib_cycles.mean rel fail"};
    const std::vector<std::string> e2e = {
        "campaign.fleet_success_rate abs fail",
        "metrics.total_cycles.mean rel pass"};
    const std::vector<std::string> stage = {
        "outcomes.$outcome.rate abs pass",
        "metrics.$cycles.mean rel pass"};
    EXPECT_EQ(rules(ScenarioSuite::Calib), calib);
    EXPECT_EQ(rules(ScenarioSuite::E2e), e2e);
    EXPECT_EQ(rules(ScenarioSuite::FullScale), e2e);
    EXPECT_EQ(rules(ScenarioSuite::Defense), stage);
    EXPECT_EQ(rules(ScenarioSuite::Traffic), stage);
    EXPECT_TRUE(rules(ScenarioSuite::Matrix).empty());
}

TEST(SuiteGate, EveryInvariantTripsOnViolationAndMissingSeries)
{
    // Each invariant at its boundary: the first value violates it,
    // the second just holds.
    const struct
    {
        ScenarioSuite suite;
        Edit violating;
        double holding;
    } cases[] = {
        {ScenarioSuite::Defense,
         {"defense-rekey-fast-tiny-build", {"outcomes", "success", "rate"},
          0.10},
         0.09},
        {ScenarioSuite::Defense,
         {"defense-none-tiny-e2e", {"outcomes", "target_correct", "rate"},
          0.49},
         0.50},
        {ScenarioSuite::Traffic,
         {"traffic-aes-tiny-e2e", {"metrics", "aes_nibbles_correct", "mean"},
          0.99},
         1.0},
        {ScenarioSuite::Traffic,
         {"traffic-sparse-tiny-scan", {"outcomes", "target_found", "rate"},
          0.51},
         0.50},
        {ScenarioSuite::Traffic,
         {"traffic-rotate-tiny-campaign-2",
          {"metrics", "traffic_epochs", "mean"}, 1.0},
         1.01},
    };
    std::size_t invariants = 0;
    for (ScenarioSuite suite : kAllSuites)
        invariants += suiteDomain(suite).invariants.size();
    EXPECT_EQ(invariants, std::size(cases));

    for (const auto &c : cases) {
        const SuiteDomain &d = suiteDomain(c.suite);
        const Edit &bad = c.violating;
        SCOPED_TRACE(bad.cell);
        const JsonValue run = loadBaseline(d);
        EXPECT_EQ(gateSuite(d, run, ""), 0u);
        EXPECT_EQ(gateSuite(d, edited(run, bad), ""), 1u);
        EXPECT_EQ(gateSuite(d, edited(run, {bad.cell, bad.path, c.holding}),
                            ""),
                  0u);
        EXPECT_EQ(gateSuite(d, edited(run, {bad.cell, bad.path,
                                            std::nullopt}),
                            ""),
                  1u);
    }
}

} // namespace
} // namespace llcf
