/**
 * @file
 * Benchmark runner: runs one workload for a given seed and prints one
 * JSON line with every metric by name and unit, the output digests,
 * the deterministic work counters and the result of every check.
 *
 *   perfbench_runner --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> --workdir <dir> [--spans <file>]
 *                    [--smoke]
 *
 * perfbench/run.py builds this binary and wraps its output in the
 * benchmark's result format; see perfbench/README.md.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "workloads.hh"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> names{
        {"request_ms_p50", "ms"}, {"request_ms_p95", "ms"},
        {"requests_per_s", "1/s"}, {"peak_rss_mb", "MiB"},
        {"setup_s", "s"},
    };
    return names;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> names{
        {"core.parse_s", "s"},
        {"core.solve_s", "s"},
        {"core.certificate_s", "s"},
        {"core.rounding_s", "s"},
        {"core.outside_loop_share", "ratio"},
        {"core.ns_per_bid_round", "ns"},
        {"core.rounds", "count"},
        {"core.kernel_reuses", "count"},
        {"core.kernel_rebuilds", "count"},
        {"core.kernel_patched_users", "count"},
        {"online.delta.warm_epochs", "count"},
        {"online.delta.meanfield_epochs", "count"},
        {"solver.wf_solves", "count"},
        {"exec.tasks", "count"},
        {"alloc.allocate_ms_p50", "ms"},
        {"alloc.non_primary_serves", "count"},
        {"eval.epoch_self_ms", "ms"},
        {"durability.encode_ms", "ms"},
        {"durability.commit_ms", "ms"},
        {"durability.state_bytes_final", "bytes"},
        {"durability.snapshot_bytes", "bytes"},
        {"durability.journal_commits", "count"},
        {"durability.snapshots_written", "count"},
        {"net.msgs_sent", "count"},
        {"net.msgs_delivered", "count"},
        {"net.retransmits", "count"},
        {"net.degraded_rounds", "count"},
        {"net.stale_bid_rounds", "count"},
        {"net.msgs_per_round", "count"},
        {"bench.self_ms", "ms"},
        {"core.self_ms", "ms"},
        {"alloc.self_ms", "ms"},
        {"eval.self_ms", "ms"},
        {"durability.self_ms", "ms"},
        {"trace.overhead_frac", "ratio"},
        {"trace.spans", "count"},
    };
    return names;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "clear-1e5", "online-durable", "online-sharded"};
    return names;
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t purpose)
{
    // SplitMix64 finalizer over (seed, purpose).
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + purpose;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Budget::Budget(double seconds, double nominal, int least)
    : seconds_(seconds), start_(nowSeconds()),
      planned_(std::max(least,
                        static_cast<int>(std::lround(seconds / nominal)))),
      least_(least)
{}

bool
Budget::more(int done) const
{
    return done < planned_ &&
           (done < least_ || nowSeconds() - start_ <= 1.5 * seconds_);
}

namespace {

int
usage(const std::string &why)
{
    std::cerr << "perfbench_runner: " << why << "\n"
              << "usage: perfbench_runner --workload <name> --seed <n>"
                 " --seconds <s> --trace <0|1> --workdir <dir>"
                 " [--spans <file>] [--smoke]\n";
    return 2;
}

/** Keep exactly the metrics of the run's mode; a metric that does not
 *  apply to this workload reads 0. */
void
selectMetrics(Report &report)
{
    const auto &names =
        report.traced ? perLayerMetrics() : endToEndMetrics();
    std::map<std::string, Metric> selected;
    for (const auto &[name, unit] : names) {
        const auto it = report.metrics.find(name);
        selected[name] =
            it != report.metrics.end() ? it->second : Metric{0.0, unit};
        selected[name].unit = unit;
    }
    report.metrics = std::move(selected);
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunOptions opts;
    bool have_trace = false;
    try {
        for (int a = 1; a < argc; ++a) {
            const std::string arg = argv[a];
            const bool has_value = a + 1 < argc;
            if (arg == "--workload" && has_value) {
                opts.workload = argv[++a];
            } else if (arg == "--seed" && has_value) {
                opts.seed = std::stoull(argv[++a]);
            } else if (arg == "--seconds" && has_value) {
                opts.seconds = std::stod(argv[++a]);
            } else if (arg == "--trace" && has_value) {
                const std::string v = argv[++a];
                if (v != "0" && v != "1")
                    return usage("--trace takes 0 or 1");
                opts.trace = v == "1";
                have_trace = true;
            } else if (arg == "--workdir" && has_value) {
                opts.workdir = argv[++a];
            } else if (arg == "--spans" && has_value) {
                opts.spansPath = argv[++a];
            } else if (arg == "--smoke") {
                opts.smoke = true;
            } else {
                return usage("unknown argument '" + arg + "'");
            }
        }
    } catch (const std::exception &e) {
        return usage(std::string("bad number: ") + e.what());
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), opts.workload) == names.end())
        return usage("unknown workload '" + opts.workload + "'");
    if (!have_trace || opts.workdir.empty() || opts.seconds <= 0)
        return usage("--trace, --workdir and a positive --seconds are "
                     "required");
    std::filesystem::create_directories(opts.workdir);

    Report report;
    report.workload = opts.workload;
    report.seed = opts.seed;
    report.traced = opts.trace;
    try {
        if (opts.workload == "clear-1e5")
            runClear(opts, report);
        else
            runOnline(opts, report);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_runner: " << opts.workload
                  << " aborted: " << e.what() << "\n";
        return 1;
    }
    selectMetrics(report);
    report.print();
    return 0;
}
