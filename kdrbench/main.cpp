/// Benchmark binary: runs one workload in this process and thread, prints
/// every metric it measured with its unit, and ends with one machine-readable
/// line (`KDRBENCH {...}`) that kdrbench/run.py turns into the result.
///
/// Usage: kdrbench --workload <functional_cg_2d|phantom_cg_256|service_stream>
///                 --seed <n> --seconds <s> --trace <0|1> [--spans <path>]

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace kbench {

int Tracer::open(const char* name) {
    SpanRecord r;
    r.name = name;
    r.parent = stack_.empty() ? -1 : stack_.back();
    r.start = std::chrono::duration<double>(Clock::now() - origin_).count();
    spans_.push_back(std::move(r));
    const int index = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(index);
    return index;
}

void Tracer::close(int index) {
    spans_[static_cast<std::size_t>(index)].end =
        std::chrono::duration<double>(Clock::now() - origin_).count();
    stack_.pop_back();
}

std::vector<double> Tracer::child_cover() const {
    std::vector<double> cover(spans_.size(), 0.0);
    for (const SpanRecord& s : spans_) {
        if (s.parent >= 0) cover[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    return cover;
}

double Tracer::self(const std::string& name) const {
    const std::vector<double> cover = child_cover();
    double t = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].name == name) t += spans_[i].end - spans_[i].start - cover[i];
    }
    return t;
}

std::vector<double> Tracer::durations(const std::string& name) const {
    std::vector<double> d;
    for (const SpanRecord& s : spans_) {
        if (s.name == name) d.push_back(s.end - s.start);
    }
    return d;
}

namespace {

std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out + "\"";
}

} // namespace

void Tracer::write_json(const std::string& path) const {
    std::ofstream f(path);
    if (!f) throw std::runtime_error("cannot write spans to " + path);
    const std::vector<double> cover = child_cover();
    f << "{\"clock\": \"host steady_clock, seconds since benchmark start\",\n\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& s = spans_[i];
        f << (i == 0 ? "" : ",\n") << "{\"id\": " << i << ", \"name\": " << quoted(s.name)
          << ", \"start\": " << num(s.start) << ", \"end\": " << num(s.end)
          << ", \"parent\": " << s.parent << ", \"self\": " << num(s.end - s.start - cover[i])
          << "}";
    }
    f << "\n],\n\"by_name\": {";
    std::map<std::string, std::pair<double, double>> agg;
    std::map<std::string, std::size_t> counts;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto& a = agg[spans_[i].name];
        a.first += spans_[i].end - spans_[i].start;
        a.second += spans_[i].end - spans_[i].start - cover[i];
        ++counts[spans_[i].name];
    }
    bool first = true;
    for (const auto& [name, a] : agg) {
        f << (first ? "\n" : ",\n") << quoted(name) << ": {\"count\": " << counts[name]
          << ", \"total_s\": " << num(a.first) << ", \"self_s\": " << num(a.second) << "}";
        first = false;
    }
    f << "\n}}\n";
    if (!f) throw std::runtime_error("write to " + path + " failed");
}

double nearest_rank(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto n = static_cast<double>(v.size());
    auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
    rank = std::min(rank, v.size());
    return v[rank - 1];
}

double top_percentile(std::size_t n) {
    for (const double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
        const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
        if (n >= rank + 10) return p;
    }
    return 0.0;
}

double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

} // namespace kbench

namespace {

kbench::Args parse(int argc, char** argv) {
    kbench::Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
        const std::string val = argv[++i];
        if (key == "--workload") {
            a.workload = val;
            have_workload = true;
        } else if (key == "--seed") {
            a.seed = std::stoull(val);
        } else if (key == "--seconds") {
            a.seconds = std::stod(val);
        } else if (key == "--trace") {
            if (val != "0" && val != "1") throw std::invalid_argument("--trace takes 0 or 1");
            a.trace = val == "1";
        } else if (key == "--spans") {
            a.spans_path = val;
        } else {
            throw std::invalid_argument("unknown flag " + key);
        }
    }
    if (!have_workload) throw std::invalid_argument("--workload is required");
    if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
    return a;
}

} // namespace

int main(int argc, char** argv) {
    kbench::Args args;
    try {
        args = parse(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "kdrbench: " << e.what() << "\n";
        return 2;
    }
    kbench::Tracer tracer(args.trace);
    kbench::Result out;
    try {
        if (args.workload == "functional_cg_2d") {
            kbench::run_functional_cg_2d(args, tracer, out);
        } else if (args.workload == "phantom_cg_256") {
            kbench::run_phantom_cg_256(args, tracer, out);
        } else if (args.workload == "service_stream") {
            kbench::run_service_stream(args, tracer, out);
        } else {
            std::cerr << "kdrbench: unknown workload '" << args.workload << "'\n";
            return 2;
        }
    } catch (const std::exception& e) {
        std::cerr << "kdrbench: workload " << args.workload << " threw: " << e.what() << "\n";
        return 1;
    }
    out.set("peak_rss_mb", kbench::peak_rss_mib(), "MB", "process maximum resident set (MiB)");
    if (tracer.on() && !args.spans_path.empty()) {
        try {
            tracer.write_json(args.spans_path);
        } catch (const std::exception& e) {
            std::cerr << "kdrbench: " << e.what() << "\n";
            return 1;
        }
        std::cout << "spans: " << tracer.spans().size() << " written to " << args.spans_path
                  << "\n";
    }

    for (const auto& [name, m] : out.metrics) {
        std::cout << "  " << name << " = " << kbench::num(m.value) << " " << m.unit;
        if (!m.note.empty()) std::cout << "   (" << m.note << ")";
        std::cout << "\n";
    }
    for (const std::string& p : out.problems) std::cout << "CHECK FAILED: " << p << "\n";

    std::ostringstream js;
    js << "KDRBENCH {\"correct\": " << (out.correct ? "true" : "false")
       << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
       << ", \"problems\": [";
    for (std::size_t i = 0; i < out.problems.size(); ++i)
        js << (i ? ", " : "") << kbench::quoted(out.problems[i]);
    js << "], \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : out.metrics) {
        js << (first ? "" : ", ") << kbench::quoted(name) << ": {\"value\": "
           << kbench::num(m.value) << ", \"unit\": " << kbench::quoted(m.unit) << "}";
        first = false;
    }
    js << "}, \"fingerprint\": {";
    first = true;
    for (const auto& [name, v] : out.fingerprint) {
        js << (first ? "" : ", ") << kbench::quoted(name) << ": " << kbench::num(v);
        first = false;
    }
    js << "}}";
    std::cout << js.str() << std::endl;
    return 0;
}
