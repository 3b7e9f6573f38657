#include "report.hh"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/json.hh"
#include "obs/metrics.hh"

namespace perfbench {

using amdahl::jsonEscape;
using amdahl::jsonNumber;

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Counters
counterSnapshot()
{
    Counters out;
    for (const auto &c : amdahl::obs::metrics().snapshot().counters) {
        if (c.name != "exec.steal")
            out[c.name] = c.value;
    }
    return out;
}

Counters
counterDelta(const Counters &before, const Counters &after)
{
    Counters out;
    for (const auto &[name, value] : after) {
        const auto it = before.find(name);
        const std::uint64_t base = it == before.end() ? 0 : it->second;
        if (value != base)
            out[name] = value - base;
    }
    return out;
}

std::size_t
Spans::begin(std::string name, std::size_t parent)
{
    spans_.push_back(Span{std::move(name), parent, nowSeconds(), 0.0});
    return spans_.size();
}

void
Spans::end(std::size_t id)
{
    spans_[id - 1].end = nowSeconds();
}

std::vector<double>
Spans::childSeconds() const
{
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent != 0)
            child[s.parent - 1] += s.end - s.start;
    }
    return child;
}

std::vector<double>
Spans::selfSeconds(const std::string &name) const
{
    const std::vector<double> child = childSeconds();
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].name == name)
            out.push_back(spans_[i].end - spans_[i].start - child[i]);
    }
    return out;
}

std::vector<double>
Spans::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (s.name == name)
            out.push_back(s.end - s.start);
    }
    return out;
}

std::map<std::string, double>
Spans::selfSecondsByLayer() const
{
    const std::vector<double> child = childSeconds();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out[s.name.substr(0, s.name.find('.'))] +=
            s.end - s.start - child[i];
    }
    return out;
}

bool
Spans::writeJson(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    out << "{\"unit\":\"s\",\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"id\":" << i + 1
            << ",\"name\":" << jsonEscape(s.name)
            << ",\"parent\":" << s.parent
            << ",\"start\":" << jsonNumber(s.start - t0)
            << ",\"end\":" << jsonNumber(s.end - t0) << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out.flush());
}

void
Report::check(const std::string &name, bool ok, const std::string &why)
{
    auto [it, inserted] = checks.emplace(name, ok);
    if (!inserted)
        it->second = it->second && ok;
    if (!ok)
        problems.push_back(name + (why.empty() ? "" : ": " + why));
}

void
Report::print() const
{
    std::ostringstream out;
    out << "{\"workload\":" << jsonEscape(workload)
        << ",\"seed\":" << seed
        << ",\"traced\":" << (traced ? "true" : "false")
        << ",\"attempted\":" << attempted << ",\"failed\":" << failed
        << ",\"metrics\":{";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        out << (first ? "" : ",") << jsonEscape(name)
            << ":{\"value\":" << jsonNumber(m.value)
            << ",\"unit\":" << jsonEscape(m.unit) << "}";
        first = false;
    }
    out << "},\"variants\":[";
    for (std::size_t i = 0; i < variants.size(); ++i) {
        out << (i ? "," : "") << "{\"digests\":{";
        first = true;
        for (const auto &[name, d] : variants[i].digests) {
            out << (first ? "" : ",") << jsonEscape(name) << ":"
                << jsonEscape(d);
            first = false;
        }
        out << "},\"counters\":{";
        first = true;
        for (const auto &[name, v] : variants[i].counters) {
            out << (first ? "" : ",") << jsonEscape(name) << ":" << v;
            first = false;
        }
        out << "}}";
    }
    out << "],\"checks\":{";
    first = true;
    for (const auto &[name, ok] : checks) {
        out << (first ? "" : ",") << jsonEscape(name) << ":"
            << (ok ? "true" : "false");
        first = false;
    }
    out << "},\"problems\":[";
    for (std::size_t i = 0; i < problems.size(); ++i)
        out << (i ? "," : "") << jsonEscape(problems[i]);
    out << "],\"samples_ms\":[";
    for (std::size_t i = 0; i < samplesMs.size(); ++i)
        out << (i ? "," : "") << jsonNumber(samplesMs[i]);
    out << "]}";
    std::cout << out.str() << std::endl;
}

std::string
hex32(std::uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08x", v);
    return buf;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
