#include "bench_common.hh"

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/options.hh"
#include "harness/thread_pool.hh"

namespace llcf {
namespace {

[[noreturn]] void
printUsageAndExit(const char *prog, int code)
{
    std::FILE *out = code == 0 ? stdout : stderr;
    std::fprintf(out,
                 "usage: %s [--seed=N] [--trials=N] [--threads=N]\n"
                 "          [--json-out=PATH] [--full-scale] "
                 "[--counters]\n"
                 "          [bench-specific flags]\n",
                 prog);
    std::exit(code);
}

/** A decimal uint64: digits only, no overflow. */
bool
parseDecimal(const std::string &text, std::uint64_t &out)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    out = std::strtoull(text.c_str(), nullptr, 10);
    return errno != ERANGE;
}

bool
validSeed(const std::string &v)
{
    std::uint64_t seed;
    return parseDecimal(v, seed);
}

bool
validCount(const std::string &v)
{
    std::size_t n;
    return parseCount(v, n);
}

bool
validThreads(const std::string &v)
{
    std::size_t n;
    return parseCount(v, n) && n <= std::numeric_limits<unsigned>::max();
}

/** "--flag=value" -> setenv(env, value); true if consumed.  Exits 2
 *  on an empty value or one @p valid rejects. */
bool
consumeEnvFlag(const std::string &arg, const char *flag,
               const char *env, const char *prog,
               bool (*valid)(const std::string &) = nullptr)
{
    const std::size_t n = std::strlen(flag);
    if (arg.compare(0, n, flag) != 0 || arg.size() == n || arg[n] != '=')
        return false;
    const std::string value = arg.substr(n + 1);
    if (value.empty() || (valid && !valid(value))) {
        std::fprintf(stderr, "%s: bad %s value '%s'\n", prog, flag,
                     value.c_str());
        printUsageAndExit(prog, 2);
    }
    setenv(env, value.c_str(), 1);
    return true;
}

} // namespace

bool
parseCount(const std::string &text, std::size_t &out)
{
    std::uint64_t v;
    if (!parseDecimal(text, v) || v == 0)
        return false;
    out = static_cast<std::size_t>(v);
    return true;
}

std::vector<std::string>
benchParseArgs(int argc, char **argv)
{
    const char *prog = argc > 0 ? argv[0] : "bench";
    std::vector<std::string> extra;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            printUsageAndExit(prog, 0);
        if (arg == "--full-scale") {
            setenv("LLCF_FULL_SCALE", "1", 1);
            continue;
        }
        if (arg == "--counters") {
            setenv("LLCF_COUNTERS", "1", 1);
            continue;
        }
        if (consumeEnvFlag(arg, "--seed", "LLCF_SEED", prog, validSeed) ||
            consumeEnvFlag(arg, "--trials", "LLCF_TRIALS", prog,
                           validCount) ||
            consumeEnvFlag(arg, "--threads", "LLCF_THREADS", prog,
                           validThreads) ||
            consumeEnvFlag(arg, "--json-out", "LLCF_JSON_OUT", prog)) {
            continue;
        }
        extra.push_back(arg);
    }
    return extra;
}

bool
benchRejectExtraArgs(const std::vector<std::string> &extra)
{
    if (extra.empty())
        return true;
    for (const auto &arg : extra)
        std::fprintf(stderr, "unrecognised argument: %s\n", arg.c_str());
    return false;
}

void
benchPrintHeader(const char *title)
{
    std::printf("%s (harness: %u threads, seed %llu)\n", title,
                resolveThreadCount(),
                static_cast<unsigned long long>(baseSeed()));
}

int
benchWriteSuite(const ExperimentSuite &suite)
{
    const std::string path = suite.writeFile();
    if (path.empty()) {
        std::fprintf(stderr, "failed to write JSON output\n");
        return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    return 0;
}

bool
benchLoadBaseline(const std::string &path, JsonValue &doc)
{
    std::string err;
    if (!loadJsonFile(path, doc, &err)) {
        std::fprintf(stderr, "baseline: %s\n", err.c_str());
        return false;
    }
    const JsonValue *list = doc.find("benchmarks");
    if (!list || !list->isArray()) {
        std::fprintf(stderr, "baseline %s: no benchmarks array\n",
                     path.c_str());
        return false;
    }
    return true;
}

double
benchBaselineTolerance(const JsonValue &doc, const char *key,
                       double def)
{
    const JsonValue *t = doc.find("context", key);
    return t && t->isNumber() ? t->asNumber() : def;
}

const JsonValue *
benchBaselineEntry(const JsonValue &doc, const std::string &name)
{
    const JsonValue *list = doc.find("benchmarks");
    if (!list || !list->isArray())
        return nullptr;
    for (const JsonValue &b : list->items()) {
        const JsonValue *bn = b.find("name");
        if (bn && bn->kind() == JsonValue::Kind::String &&
            bn->asString() == name) {
            return &b;
        }
    }
    return nullptr;
}

} // namespace llcf
