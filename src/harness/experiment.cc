#include "experiment.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

#include "common/log.hh"
#include "common/options.hh"
#include "harness/thread_pool.hh"

namespace llcf {

void
TrialRecorder::metric(std::string_view name, double v)
{
    metrics_.emplace_back(std::string(name), v);
}

void
TrialRecorder::outcome(std::string_view name, bool success)
{
    outcomes_.emplace_back(std::string(name), success);
}

const SampleStats *
ExperimentResult::metric(std::string_view name) const
{
    for (const auto &[n, stats] : metrics_) {
        if (n == name)
            return &stats;
    }
    return nullptr;
}

const SuccessRate *
ExperimentResult::outcome(std::string_view name) const
{
    for (const auto &[n, sr] : outcomes_) {
        if (n == name)
            return &sr;
    }
    return nullptr;
}

void
ExperimentResult::writeJson(JsonWriter &w) const
{
    w.beginObject();
    writeJsonMembers(w);
    w.endObject();
}

void
ExperimentResult::writeJsonMembers(JsonWriter &w) const
{
    w.member("name", name_);
    w.member("trials", static_cast<std::uint64_t>(trials_));
    w.member("seed", masterSeed_);
    w.key("metrics").beginObject();
    for (const auto &[name, stats] : metrics_) {
        w.key(name);
        writeStatsObject(w, stats);
    }
    w.endObject();
    w.key("outcomes").beginObject();
    for (const auto &[name, sr] : outcomes_) {
        w.key(name).beginObject();
        w.member("trials", static_cast<std::uint64_t>(sr.trials()));
        w.member("successes", static_cast<std::uint64_t>(sr.successes()));
        w.member("rate", sr.rate());
        w.endObject();
    }
    w.endObject();
}

ExperimentRunner::ExperimentRunner(ExperimentConfig cfg)
    : cfg_(std::move(cfg))
{
}

ExperimentResult
ExperimentRunner::run(const TrialFn &fn) const
{
    return runAll({cfg_}, {fn}, cfg_.threads).front();
}

std::vector<ExperimentResult>
ExperimentRunner::runAll(const std::vector<ExperimentConfig> &cfgs,
                         const std::vector<TrialFn> &fns, unsigned threads)
{
    if (cfgs.size() != fns.size())
        panic("runAll: %zu configs for %zu trial functions", cfgs.size(),
              fns.size());
    threads = resolveThreadCount(threads);

    // Trial k of the whole batch is trial k - first[e] of experiment e.
    // One slot per trial; workers never touch shared aggregates.  The
    // worker finishing an experiment's last trial merges its slots and
    // frees them, so only the experiments in flight hold samples.
    std::vector<std::size_t> first;
    std::vector<std::vector<TrialRecorder>> slots;
    std::vector<std::atomic<std::size_t>> pending(cfgs.size());
    std::vector<ExperimentResult> results(cfgs.size());
    std::size_t total = 0;
    for (std::size_t e = 0; e < cfgs.size(); ++e) {
        first.push_back(total);
        slots.emplace_back(cfgs[e].trials);
        pending[e].store(cfgs[e].trials, std::memory_order_relaxed);
        if (cfgs[e].trials == 0)
            results[e] = merge(cfgs[e], threads, slots[e]);
        total += cfgs[e].trials;
    }

    ThreadPool pool(threads);
    pool.parallelFor(total, [&](std::size_t k) {
        const std::size_t e = static_cast<std::size_t>(
            std::upper_bound(first.begin(), first.end(), k) -
            first.begin() - 1);
        const std::size_t i = k - first[e];
        const std::uint64_t seed = cfgs[e].masterSeed;
        TrialContext ctx{i, streamSeed(seed, i),
                         Rng::forStream(seed, i)};
        fns[e](ctx, slots[e][i]);
        // acq_rel: the last finisher sees every other trial's slot.
        if (pending[e].fetch_sub(1, std::memory_order_acq_rel) == 1) {
            results[e] = merge(cfgs[e], threads, slots[e]);
            std::vector<TrialRecorder>().swap(slots[e]);
        }
    });
    return results;
}

ExperimentResult
ExperimentRunner::merge(const ExperimentConfig &cfg, unsigned threads,
                        const std::vector<TrialRecorder> &slots)
{
    ExperimentResult result;
    result.name_ = cfg.name;
    result.trials_ = cfg.trials;
    result.threadsUsed_ = threads;
    result.masterSeed_ = cfg.masterSeed;

    // Merge in trial order: aggregate content and key order are then
    // functions of (seed, trials) alone, independent of scheduling.
    auto statsFor = [&result](const std::string &name) -> SampleStats & {
        for (auto &[n, stats] : result.metrics_) {
            if (n == name)
                return stats;
        }
        result.metrics_.emplace_back(name, SampleStats{});
        return result.metrics_.back().second;
    };
    auto rateFor = [&result](const std::string &name) -> SuccessRate & {
        for (auto &[n, sr] : result.outcomes_) {
            if (n == name)
                return sr;
        }
        result.outcomes_.emplace_back(name, SuccessRate{});
        return result.outcomes_.back().second;
    };
    for (const auto &slot : slots) {
        for (const auto &[name, v] : slot.metrics_)
            statsFor(name).add(v);
        for (const auto &[name, ok] : slot.outcomes_)
            rateFor(name).add(ok);
    }
    return result;
}

ExperimentSuite::ExperimentSuite(std::string bench)
    : bench_(std::move(bench))
{
}

void
ExperimentSuite::contextValue(std::string key, double v)
{
    contextValues_.emplace_back(std::move(key), v);
}

void
ExperimentSuite::add(ExperimentResult result)
{
    results_.push_back(std::move(result));
}

std::string
ExperimentSuite::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.key("context").beginObject();
    w.member("bench", bench_);
    w.member("base_seed", baseSeed());
    w.member("full_scale", fullScale());
    for (const auto &[key, v] : contextValues_)
        w.member(key, v);
    w.endObject();
    w.key("benchmarks").beginArray();
    for (const auto &r : results_)
        r.writeJson(w);
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
ExperimentSuite::writeFile(const std::string &path) const
{
    return writeBenchDocument(bench_, toJson(), path);
}

std::string
writeBenchDocument(const std::string &bench, const std::string &doc,
                   const std::string &path)
{
    std::string target = path;
    if (target.empty())
        target = envString("LLCF_JSON_OUT", "BENCH_" + bench + ".json");
    std::FILE *f = std::fopen(target.c_str(), "w");
    if (!f)
        return "";
    const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) ==
                        doc.size() &&
                    std::fputc('\n', f) != EOF;
    std::fclose(f);
    return ok ? target : "";
}

} // namespace llcf
