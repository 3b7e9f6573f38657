/**
 * @file
 * What one benchmark run collects and prints: named metrics with
 * units, output digests, deterministic work counters, named checks,
 * and the benchmark's own span recorder.
 *
 * Nothing here reaches into the library: spans are recorded around
 * calls into public functions, and counters are deltas of the
 * process-wide obs::metrics() registry read before and after a call.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** @return Seconds on the steady clock since an arbitrary epoch. */
double nowSeconds();

/** Counter name -> value. */
using Counters = std::map<std::string, std::uint64_t>;

/** @return Every counter of obs::metrics() except exec.steal, whose
 *  value depends on thread timing. */
Counters counterSnapshot();

/** @return after - before, per counter (names missing before count
 *  from zero); counters that did not move are omitted. */
Counters counterDelta(const Counters &before, const Counters &after);

/**
 * In-memory span recorder. A span has a name, a start, an end and the
 * span that caused it; ids are indices + 1 (0 = no parent). Spans are
 * only written out when the run ends.
 */
class Spans
{
  public:
    struct Span
    {
        std::string name;
        std::size_t parent = 0;
        double start = 0.0;
        double end = 0.0;
    };

    /** Open a span now. @return Its id. */
    std::size_t begin(std::string name, std::size_t parent = 0);

    /** Close span @p id now. */
    void end(std::size_t id);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time of every span named @p name: its duration minus the
     * time its direct children cover. @return One value per span, in
     * seconds, in recording order.
     */
    std::vector<double> selfSeconds(const std::string &name) const;

    /** @return Durations of every span named @p name, in seconds. */
    std::vector<double> durations(const std::string &name) const;

    /**
     * Self time summed per layer, where a span's layer is its name up
     * to the first '.' ("core.solve" -> "core").
     */
    std::map<std::string, double> selfSecondsByLayer() const;

    /** Write every span as one JSON document to @p path. */
    bool writeJson(const std::string &path) const;

  private:
    /** @return Per span, the time its direct children cover. */
    std::vector<double> childSeconds() const;

    std::vector<Span> spans_;
};

/** One metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/**
 * One input of a run (a market, or an online scenario) and what it
 * produced. A run cycles through a few inputs derived from its seed so
 * that no single input's difficulty decides the run's figures.
 */
struct Variant
{
    /** Output digests; every repetition of this input must agree. */
    std::map<std::string, std::string> digests;
    /** Deterministic work counters of one repetition. */
    Counters counters;
};

/** Everything one run reports. */
struct Report
{
    std::string workload;
    std::uint64_t seed = 0;
    bool traced = false;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    std::map<std::string, Metric> metrics;
    std::vector<Variant> variants;
    /** Named output checks and whether each held. */
    std::map<std::string, bool> checks;
    /** Human-readable reasons for every failed check. */
    std::vector<std::string> problems;
    /** Every timed request, in ms, in run order (for inspection). */
    std::vector<double> samplesMs;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /** Record check @p name; a failing check stays failed. */
    void check(const std::string &name, bool ok,
               const std::string &why = "");

    /** Print the whole report as one line of JSON. */
    void print() const;
};

/** @return @p v as eight lower-case hex digits. */
std::string hex32(std::uint32_t v);

/** @return Peak resident set size of this process, in MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
