#include "suite.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "bench_common.hh"
#include "common/log.hh"

namespace llcf {
namespace {

/** "--flag=value" -> value; false when @p arg is another flag. */
bool
flagValue(const std::string &arg, const char *flag, std::string &out)
{
    const std::string prefix = std::string(flag) + "=";
    if (arg.compare(0, prefix.size(), prefix) != 0)
        return false;
    out = arg.substr(prefix.size());
    return true;
}

/** A positive decimal count; false on anything else (sign, junk,
 *  zero, overflow). */
bool
parseCount(const std::string &text, std::size_t &out)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
    if (errno == ERANGE || v == 0)
        return false;
    out = static_cast<std::size_t>(v);
    return true;
}

void
printFlags(const SuiteDomain &d)
{
    std::fprintf(stderr,
                 "%s flags: --list --smoke --scenario=<name[,name...]> "
                 "(prefix globs ok)",
                 d.binary);
    if (!d.bands.empty())
        std::fprintf(stderr, " --baseline=BENCH_%s.json", d.id);
    if (d.runner) {
        std::fprintf(stderr, " --checkpoint=<path> --resume "
                             "--stop-after-shards=<n>");
    }
    std::fprintf(stderr, "\n");
}

/** Parse the suite flags; false (after printing why) on a usage
 *  error. */
bool
parseSuiteArgs(const SuiteDomain &d, int argc, char **argv,
               SuiteArgs &args)
{
    std::vector<std::string> unknown;
    std::string value;
    for (const std::string &arg : benchParseArgs(argc, argv)) {
        if (arg == "--list") {
            args.list = true;
        } else if (arg == "--smoke") {
            args.smoke = true;
        } else if (flagValue(arg, "--scenario", value)) {
            args.scenarioGiven = true;
            if (!args.selection.empty())
                args.selection += ',';
            args.selection += value;
        } else if (!d.bands.empty() &&
                   flagValue(arg, "--baseline", value)) {
            args.baseline = value;
        } else if (d.runner && flagValue(arg, "--checkpoint", value)) {
            args.checkpoint = value;
        } else if (d.runner && arg == "--resume") {
            args.resume = true;
        } else if (d.runner &&
                   flagValue(arg, "--stop-after-shards", value)) {
            if (!parseCount(value, args.stopAfterShards)) {
                std::fprintf(stderr,
                             "%s: --stop-after-shards needs a positive "
                             "shard count, got '%s'\n",
                             d.binary, value.c_str());
                return false;
            }
        } else {
            unknown.push_back(arg);
        }
    }
    if ((args.resume || args.stopAfterShards) &&
        args.checkpoint.empty()) {
        std::fprintf(stderr,
                     "%s: --resume / --stop-after-shards require "
                     "--checkpoint=<path>\n",
                     d.binary);
        return false;
    }
    if (!benchRejectExtraArgs(unknown)) {
        printFlags(d);
        return false;
    }
    return true;
}

/** The cells a run takes: the suite's own, or the --scenario=
 *  selection (a cell the suite cannot run is a usage error). */
std::vector<const ScenarioSpec *>
selectCells(const SuiteDomain &d, const SuiteArgs &args)
{
    const ScenarioRegistry &reg = builtinScenarios();
    if (!args.scenarioGiven)
        return reg.owned(d.suite);
    if (args.selection.empty())
        return {};
    const auto cells = reg.select(args.selection);
    for (const ScenarioSpec *s : cells) {
        if (d.accepts && !d.accepts(*s)) {
            std::fprintf(stderr,
                         "%s: '%s' is not %s (%s runs it)\n",
                         d.binary, s->name.c_str(), d.acceptsWhat,
                         suiteDomain(scenarioSuite(*s)).binary);
            std::exit(2);
        }
    }
    return cells;
}

/** A stage's headline attack outcome. */
const char *
stageOutcome(ScenarioStage stage)
{
    switch (stage) {
      case ScenarioStage::EvsetBuild:
        return "success";
      case ScenarioStage::Scan:
      case ScenarioStage::EndToEnd:
        return "target_correct";
      case ScenarioStage::Campaign:
        return "key_recovered";
      case ScenarioStage::Calibrate:
        return "topology_match";
    }
    return "success";
}

/** A stage's attack-cost metric. */
const char *
stageCycles(ScenarioStage stage)
{
    switch (stage) {
      case ScenarioStage::EvsetBuild:
        return "build_cycles";
      case ScenarioStage::Scan:
        return "scan_cycles";
      case ScenarioStage::EndToEnd:
      case ScenarioStage::Campaign:
        return "total_cycles";
      case ScenarioStage::Calibrate:
        return "calib_cycles";
    }
    return "build_cycles";
}

void
listCells(const SuiteDomain &d,
          const std::vector<const ScenarioSpec *> &cells)
{
    std::printf("%-32s %-11s %-34s %s\n", "name", "stage", "cell",
                "description");
    for (const ScenarioSpec *s : cells) {
        std::printf("%-32s %-11s %-34s %s\n", s->name.c_str(),
                    scenarioStageName(s->stage), d.label(*s).c_str(),
                    s->description.c_str());
    }
}

void
printCellRow(const SuiteDomain &d, const ScenarioSpec &spec,
             const ExperimentResult &r)
{
    const SuccessRate *sr = r.outcome(stageOutcome(spec.stage));
    const SampleStats *cycles = r.metric(stageCycles(spec.stage));
    std::printf("  %-32s %-34s succ %5.1f%%  cost %10s\n",
                r.name().c_str(), d.label(spec).c_str(),
                sr ? sr->rate() * 100.0 : 0.0,
                cycles && !cycles->empty()
                    ? formatDuration(cycles->mean()).c_str()
                    : "-");
}

/** Run every cell through runScenario() into one suite document. */
std::string
runScenarioCells(const SuiteDomain &d,
                 const std::vector<const ScenarioSpec *> &cells,
                 bool smoke)
{
    ExperimentSuite suite(d.id);
    recordTolerances(d, suite);
    for (const ScenarioSpec *spec : cells) {
        ExperimentResult result = runScenario(
            *spec, suiteTrials(d, *spec, smoke), 0, baseSeed());
        printCellRow(d, *spec, result);
        suite.add(std::move(result));
    }
    return suite.toJson();
}

/** The value at @p path below @p entry, if it is a number. */
const JsonValue *
numberAt(const JsonValue &entry, const SuitePath &path)
{
    const JsonValue *v = &entry;
    for (const std::string &key : path) {
        if (!v->isObject() || !(v = v->find(key)))
            return nullptr;
    }
    return v->isNumber() ? v : nullptr;
}

std::string
joinPath(const SuitePath &path)
{
    std::string out;
    for (const std::string &key : path)
        out += (out.empty() ? "" : ".") + key;
    return out;
}

const std::string &
entryName(const JsonValue &entry)
{
    return entry.find("name")->asString();
}

bool
holds(SuiteCmp cmp, double v, double bound)
{
    switch (cmp) {
      case SuiteCmp::Below:
        return v < bound;
      case SuiteCmp::AtMost:
        return v <= bound;
      case SuiteCmp::AtLeast:
        return v >= bound;
      case SuiteCmp::Above:
        return v > bound;
    }
    return false;
}

const char *
cmpName(SuiteCmp cmp)
{
    switch (cmp) {
      case SuiteCmp::Below:
        return "<";
      case SuiteCmp::AtMost:
        return "<=";
      case SuiteCmp::AtLeast:
        return ">=";
      case SuiteCmp::Above:
        return ">";
    }
    return "?";
}

unsigned
gateInvariants(const SuiteDomain &d, const JsonValue &run)
{
    unsigned violations = 0;
    for (const JsonValue &entry : run.find("benchmarks")->items()) {
        for (const SuiteInvariant &inv : d.invariants) {
            if (entryName(entry) != inv.cell)
                continue;
            const JsonValue *v = numberAt(entry, inv.series);
            if (v && holds(inv.cmp, v->asNumber(), inv.bound))
                continue;
            if (v) {
                std::fprintf(stderr, "FAIL %s: %s = %.4g, want %s %.4g",
                             inv.cell, joinPath(inv.series).c_str(),
                             v->asNumber(), cmpName(inv.cmp),
                             inv.bound);
            } else {
                std::fprintf(stderr, "FAIL %s: no %s series", inv.cell,
                             joinPath(inv.series).c_str());
            }
            std::fprintf(stderr, " — %s\n", inv.why);
            ++violations;
        }
    }
    return violations;
}

unsigned
gateBaseline(const SuiteDomain &d, const JsonValue &run,
             const std::string &path)
{
    JsonValue base;
    if (!benchLoadBaseline(path, base))
        return 1;
    const double rate_tol = benchBaselineTolerance(
        base, "rate_tolerance", d.rateTolerance);
    const double cyc_tol = benchBaselineTolerance(
        base, "cycles_tolerance", d.cyclesTolerance);

    unsigned violations = 0;
    for (const JsonValue &entry : run.find("benchmarks")->items()) {
        const std::string &name = entryName(entry);
        const JsonValue *want = benchBaselineEntry(base, name);
        if (!want) {
            std::fprintf(stderr,
                         "FAIL %s: cell missing from baseline "
                         "(regenerate %s)\n",
                         name.c_str(), path.c_str());
            ++violations;
            continue;
        }
        const ScenarioSpec *spec = builtinScenarios().find(name);
        if (!spec)
            fatal("%s gate: '%s' is not a registered cell", d.id,
                  name.c_str());
        for (const SuiteBand &band : d.bands) {
            const SuitePath series = suiteSeries(band.path, spec->stage);
            const std::string label = joinPath(series);
            const JsonValue *w = numberAt(*want, series);
            const JsonValue *g = numberAt(entry, series);
            if (!w && !g && band.bothAbsentPasses)
                continue;
            if (!w || !g) {
                std::fprintf(stderr,
                             "FAIL %s: %s %s in the run but %s in the "
                             "baseline (regenerate %s)\n",
                             name.c_str(), label.c_str(),
                             g ? "present" : "absent",
                             w ? "present" : "absent", path.c_str());
                ++violations;
                continue;
            }
            const double ref = w->asNumber();
            const double got = g->asNumber();
            const double lo =
                band.relative ? ref * (1.0 - cyc_tol) : ref - rate_tol;
            const double hi =
                band.relative ? ref * (1.0 + cyc_tol) : ref + rate_tol;
            if (got < lo || got > hi) {
                std::fprintf(stderr,
                             "FAIL %s/%s: %.4g outside [%.4g, %.4g] "
                             "(baseline %.4g)\n",
                             name.c_str(), label.c_str(), got, lo, hi,
                             ref);
                ++violations;
            }
        }
    }
    if (violations == 0)
        std::printf("%s gate: all cells within band of %s\n", d.id,
                    path.c_str());
    return violations;
}

} // namespace

SuitePath
suiteSeries(const SuitePath &path, ScenarioStage stage)
{
    SuitePath out = path;
    for (std::string &key : out) {
        if (key == "$outcome")
            key = stageOutcome(stage);
        else if (key == "$cycles")
            key = stageCycles(stage);
    }
    return out;
}

std::size_t
suiteTrials(const SuiteDomain &d, const ScenarioSpec &spec, bool smoke)
{
    return smoke ? std::min(spec.defaultTrials, d.smokeTrials)
                 : trialCount(spec.defaultTrials);
}

unsigned
gateSuite(const SuiteDomain &d, const JsonValue &run,
          const std::string &baseline_path)
{
    unsigned violations = gateInvariants(d, run);
    if (!baseline_path.empty())
        violations += gateBaseline(d, run, baseline_path);
    return violations;
}

int
runSuite(const SuiteDomain &domain, int argc, char **argv)
{
    SuiteArgs args;
    if (!parseSuiteArgs(domain, argc, argv, args))
        return 2;
    const SuiteDomain &d = fullScale() && domain.fullScaleTier
                               ? *domain.fullScaleTier
                               : domain;
    auto cells = selectCells(d, args);
    if (args.list) {
        // The matrix runs any cell by name, so it lists them all.
        if (!args.scenarioGiven && !d.accepts) {
            cells.clear();
            for (const ScenarioSpec &s : builtinScenarios().all())
                cells.push_back(&s);
        }
        listCells(d, cells);
        return 0;
    }
    if (cells.empty()) {
        // A selection naming nothing (empty value, bare commas, ...)
        // must fail loudly rather than write an empty suite that
        // looks like a passing run.
        std::fprintf(stderr, "%s: no cells matched '%s' (try --list)\n",
                     d.binary, args.selection.c_str());
        return 1;
    }
    if (!args.checkpoint.empty() && cells.size() > 1) {
        std::fprintf(stderr,
                     "%s: --checkpoint drives exactly one cell; narrow "
                     "the run with --scenario= (%zu selected)\n",
                     d.binary, cells.size());
        return 2;
    }

    benchPrintHeader(d.title);
    std::string json;
    if (!d.runner)
        json = runScenarioCells(d, cells, args.smoke);
    else if (!d.runner(d, cells, args, json))
        return 3;

    // Gate before writing: when the output path and the baseline are
    // the same file, writing first would clobber the baseline and
    // gate the run against itself.
    JsonValue run;
    std::string err;
    if (!parseJson(json, run, &err))
        panic("%s: unparsable suite document: %s", d.id, err.c_str());
    const unsigned violations = gateSuite(d, run, args.baseline);
    const std::string out = writeBenchDocument(d.id, json);
    if (out.empty()) {
        std::fprintf(stderr, "failed to write JSON output\n");
        return 1;
    }
    std::printf("wrote %s\n", out.c_str());
    return violations == 0 ? 0 : 1;
}

} // namespace llcf
