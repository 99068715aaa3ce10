#pragma once

/// \file bench.hpp
/// Shared pieces of the benchmark binary: the host clock, the outside-in span
/// recorder, the result record every workload fills, and small statistics.
///
/// Spans are recorded only by the benchmark, around its own calls into each
/// library layer. The library itself reads no host clock, so a span's self
/// time is the host time of that call minus the part covered by the benchmark's
/// spans nested inside it.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace kbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One closed span: host seconds since the recorder started.
struct SpanRecord {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1; ///< index of the enclosing span, -1 at top level
};

/// In-memory span recorder. When off, scopes cost one branch and read no
/// clock, so an untraced run measures the program alone.
class Tracer {
public:
    explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    class Scope {
    public:
        Scope(Tracer& t, const char* name) : t_(t.on_ ? &t : nullptr) {
            if (t_ != nullptr) index_ = t_->open(name);
        }
        ~Scope() {
            if (t_ != nullptr) t_->close(index_);
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer* t_;
        int index_ = -1;
    };

    [[nodiscard]] bool on() const noexcept { return on_; }
    [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

    /// Self seconds of every span with this name: duration minus the time
    /// its child spans cover. Scopes nest strictly on one thread, so the
    /// children of a span never overlap and cover the sum of their durations.
    [[nodiscard]] double self(const std::string& name) const;
    /// Durations (seconds) of every span with this name, in recording order.
    [[nodiscard]] std::vector<double> durations(const std::string& name) const;

    /// Write every span plus a per-name total/self table as JSON.
    void write_json(const std::string& path) const;

private:
    int open(const char* name);
    void close(int index);
    [[nodiscard]] std::vector<double> child_cover() const;

    bool on_;
    Clock::time_point origin_;
    std::vector<SpanRecord> spans_;
    std::vector<int> stack_;
};

/// One metric as printed: value, unit and a note shown in the log.
struct Metric {
    double value = 0.0;
    std::string unit;
    std::string note;
};

/// What a workload reports back to main().
struct Result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;      ///< failed correctness checks
    std::map<std::string, Metric> metrics;  ///< end-to-end and per-layer
    /// Virtual-clock outputs and counts that must repeat exactly between
    /// runs of the same code, workload and seed.
    std::map<std::string, double> fingerprint;

    void set(const std::string& name, double value, const std::string& unit,
             const std::string& note = "") {
        metrics[name] = Metric{value, unit, note};
    }
    void fail(const std::string& why) {
        correct = false;
        problems.push_back(why);
    }
};

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spans_path; ///< where a traced run writes its spans
};

[[nodiscard]] inline double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of a sample (the service report's convention).
[[nodiscard]] double nearest_rank(std::vector<double> v, double q);

/// The benchmark host (a 4-vCPU VM) shares its cores with other tenants,
/// whose load slows the whole process by up to 1.7x for seconds to minutes
/// at a time and never speeds it up. End-to-end host times are therefore
/// taken at the run's quiet pace: the fastest of many short pieces of the
/// same work spread over the run, each timed whole (best of N). A change in
/// the program's own cost moves every piece, so it moves this estimate too;
/// a stall that spares some pieces does not, and shows in the step
/// percentiles of the traced run instead.
[[nodiscard]] inline double quiet(const std::vector<double>& samples) {
    return samples.empty() ? 0.0 : *std::min_element(samples.begin(), samples.end());
}

/// Number of measured units for a run of `seconds`, given the nominal length
/// of one unit. Fixed by the arguments, never by how fast units finish, so
/// every build of the program does the same work (and peak memory compares).
[[nodiscard]] inline int units_for(double seconds, double nominal_unit_s, int at_least = 1) {
    return std::max(at_least, static_cast<int>(seconds / nominal_unit_s + 0.5));
}

/// Highest percentile of {99.9, 99, 95, 90, 50} that leaves at least ten
/// samples above it in a sample of `n`; 0 if none does.
[[nodiscard]] double top_percentile(std::size_t n);

/// Process peak resident set, MiB.
[[nodiscard]] double peak_rss_mib();

void run_functional_cg_2d(const Args& args, Tracer& tracer, Result& out);
void run_phantom_cg_256(const Args& args, Tracer& tracer, Result& out);
void run_service_stream(const Args& args, Tracer& tracer, Result& out);

} // namespace kbench

#define KBENCH_CAT2(a, b) a##b
#define KBENCH_CAT(a, b) KBENCH_CAT2(a, b)
/// Time the rest of the enclosing block as a span named `name`.
#define KBENCH_SPAN(tracer, name) \
    const ::kbench::Tracer::Scope KBENCH_CAT(kbench_span_, __LINE__)((tracer), (name))
