#include "helpers.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include <sched.h>
#include <sys/resource.h>

#include "metrics/exporters.hh"

namespace wgbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

Quantile
quantile(std::vector<double> samples, double q)
{
    Quantile out;
    out.samples = samples.size();
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    q = std::clamp(q, 0.0, 1.0);
    const double rank = q * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    out.value = samples[lo] + (samples[hi] - samples[lo]) * frac;
    out.beyond = static_cast<std::size_t>(
        samples.end() -
        std::upper_bound(samples.begin(), samples.end(), out.value));
    return out;
}

double
median(std::vector<double> samples)
{
    return quantile(std::move(samples), 0.5).value;
}

CountingStream::CountingStream() : std::ostream(nullptr)
{
    rdbuf(&buf_);
}

CountingStream::Buf::int_type
CountingStream::Buf::overflow(int_type ch)
{
    if (!traits_type::eq_int_type(ch, traits_type::eof()))
        ++bytes;
    return traits_type::not_eof(ch);
}

std::streamsize
CountingStream::Buf::xsputn(const char*, std::streamsize n)
{
    bytes += static_cast<std::uint64_t>(n);
    return n;
}

std::uint64_t
fnv1a(const std::string& bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
statDigest(const wg::StatSet& set)
{
    std::string lines;
    for (const auto& [name, value] : set.entries())
        lines += name + "=" + wg::metrics::formatMetricValue(value) + "\n";
    return fnv1a(lines);
}

std::string
digestHex(std::uint64_t digest)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, digest);
    return buf;
}

double
peakRssMb()
{
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KB on Linux
}

HostCalibration
hostCalibration()
{
    HostCalibration out;
    // CPU: formatting integers into text with snprintf, branchy
    // integer work like the trace and metrics sinks do, in a small
    // buffer, the same on every host.
    char buf[64];
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    auto start = Clock::now();
    for (std::uint32_t i = 0; i < kCalibrationSteps; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const int n = std::snprintf(buf, sizeof buf, "%" PRIu64 ",%u",
                                    x >> 20, i);
        x += static_cast<std::uint64_t>(n + buf[n / 2]);
    }
    out.cpuMs = secondsSince(start) * 1000.0;

    // Memory: a pointer chase through one random cycle (Sattolo's
    // shuffle) of a table larger than a typical last-level cache, so
    // every step is a dependent cache miss.
    std::vector<std::uint32_t> next(kChaseSlots);
    for (std::uint32_t i = 0; i < kChaseSlots; ++i)
        next[i] = i;
    for (std::uint32_t i = kChaseSlots - 1; i > 0; --i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::swap(next[i], next[x % i]);
    }
    std::uint32_t at = 0;
    start = Clock::now();
    for (std::uint32_t i = 0; i < kChaseSteps; ++i)
        at = next[at];
    out.memoryMs = secondsSince(start) * 1000.0;

    volatile std::uint64_t sink = x + at;
    (void)sink;
    return out;
}

double
medianSetupSeconds(int reps, const std::function<void()>& setup,
                   const std::function<void()>& teardown)
{
    cpu_set_t all;
    CPU_ZERO(&all);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof all, &all) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &all))
                cpus.push_back(c);
    std::vector<double> seconds;
    for (int r = 0; r < reps; ++r) {
        if (!cpus.empty()) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus[static_cast<std::size_t>(r) % cpus.size()], &one);
            sched_setaffinity(0, sizeof one, &one);
        }
        const auto start = Clock::now();
        setup();
        seconds.push_back(secondsSince(start));
        teardown();
    }
    if (!cpus.empty())
        sched_setaffinity(0, sizeof all, &all);
    return median(seconds);
}

unsigned
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

std::uint64_t
SpanLog::open(const std::string& name, std::uint64_t parent)
{
    const double start = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(Record{name, records_.size() + 1, parent, start});
    return records_.size();
}

void
SpanLog::close(std::uint64_t id)
{
    const double end = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mu_);
    records_[id - 1].end = end;
}

std::vector<double>
SpanLog::durations(const std::string& name) const
{
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const Record& r : records_)
        if (r.name == name && r.end >= 0.0)
            out.push_back(r.end - r.start);
    return out;
}

double
SpanLog::total(const std::string& name) const
{
    double sum = 0.0;
    for (double d : durations(name))
        sum += d;
    return sum;
}

void
SpanLog::write(std::ostream& os) const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const Record& r : records_)
        os << "{\"name\":\"" << r.name << "\",\"id\":" << r.id
           << ",\"parent\":" << r.parent
           << ",\"start\":" << wg::metrics::formatMetricValue(r.start)
           << ",\"end\":" << wg::metrics::formatMetricValue(r.end)
           << "}\n";
}

void
Report::add(const std::string& name, double value, const std::string& unit)
{
    metrics.push_back(Metric{name, value, unit});
}

void
Report::check(bool ok, const std::string& why)
{
    ++attempted;
    if (!ok) {
        ++failed;
        errors.push_back(why);
    }
}

std::string
Report::jsonLine() const
{
    bool finite = true;
    std::string m;
    for (const Metric& x : metrics) {
        finite = finite && std::isfinite(x.value);
        if (!m.empty())
            m += ',';
        m += "\"" + x.name + "\":{\"value\":" +
             wg::metrics::formatMetricValue(std::isfinite(x.value) ? x.value
                                                                   : 0.0) +
             ",\"unit\":\"" + x.unit + "\"}";
    }
    const bool correct = finite && failed == 0 && errors.empty() &&
                         attempted > 0;
    return std::string("{\"correct\":") + (correct ? "true" : "false") +
           ",\"attempted\":" + std::to_string(attempted) +
           ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{" + m +
           "}}";
}

std::string
digestKey(std::uint64_t seed, const std::string& bench,
          const std::string& technique)
{
    return std::to_string(seed) + " " + bench + " " + technique;
}

bool
loadDigests(const std::string& path, std::map<std::string, std::string>& out,
            std::string& error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read " + path;
        return false;
    }
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::uint64_t seed = 0;
        std::string bench, technique, digest;
        if (!(fields >> seed >> bench >> technique >> digest) ||
            digest.size() != 16) {
            error = path + ":" + std::to_string(lineno) + ": malformed line";
            return false;
        }
        out[digestKey(seed, bench, technique)] = digest;
    }
    return true;
}

} // namespace wgbench
