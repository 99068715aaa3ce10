/// service_stream: service::ServiceEngine on a simulated lassen(2), 4 lanes x
/// 2 pieces, pooled (warm) shared-trace contexts, bounded admission queue,
/// tenants gold:bronze weighted 3:1. Small 2-D Poisson jobs on two grid
/// sizes in equal shares of cg, bicgstab, minres, ca_cg/4 and gmres/30, tol
/// 1e-8, at most 300 iterations each.
///
/// Open loop in virtual time: seeded Poisson arrivals at one fixed absolute
/// rate. Latency counts from each job's due arrival; arrivals are exact
/// virtual timestamps, so the generator is never late. Each unit is a fresh
/// engine serving the whole stream.

#include <chrono>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "runtime/mapper.hpp"
#include "service/service.hpp"
#include "support/rng.hpp"

namespace kbench {
namespace {

using kdr::gidx;

constexpr int kNodes = 2;
constexpr int kSlots = 4;
constexpr kdr::Color kPieces = 2;
constexpr std::size_t kQueue = 16;
constexpr double kTol = 1e-8;
constexpr int kMaxIterations = 300;
const std::vector<std::string> kSolvers = {"cg", "bicgstab", "minres", "ca_cg/4", "gmres/30"};
const std::vector<gidx> kSides = {24, 16};
/// Jobs per stream: a multiple of every (solver, grid) combination, and
/// enough that at least ten executed jobs lie beyond the p99 latency.
constexpr int kJobs = 1200;
/// The operating arrival rate, jobs per virtual second.
constexpr double kRate = 100.0;
constexpr double kNominalStreamS = 5.0; // one stream's host time on a 4-core Xeon VM
constexpr int kSetupsPerStream = 4;     // set-up samples taken before each stream
/// Latency limit of max_rate_at_slo: p99 arrival-to-finish, virtual seconds.
constexpr double kSloP99 = 0.050;

/// The request stream of one seed at unit rate: arrival times are scaled by
/// 1 / rate when submitted, so every rate sees the same jobs in the same
/// order and the same relative gaps.
std::vector<kdr::service::SolveRequest> make_stream(std::uint64_t seed) {
    kdr::Rng rng(seed);
    // Equal shares: every (solver, grid) pair appears equally often, in a
    // seeded order; tenants split evenly the same way.
    std::vector<std::pair<std::size_t, std::size_t>> kinds;
    for (int i = 0; i < kJobs; ++i) {
        kinds.emplace_back(static_cast<std::size_t>(i) % kSolvers.size(),
                           (static_cast<std::size_t>(i) / kSolvers.size()) % kSides.size());
    }
    std::vector<int> gold(kJobs);
    for (int i = 0; i < kJobs; ++i) gold[static_cast<std::size_t>(i)] = i % 2;
    for (std::size_t i = kinds.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(rng.next() % i);
        std::swap(kinds[i - 1], kinds[j]);
        const auto k = static_cast<std::size_t>(rng.next() % i);
        std::swap(gold[i - 1], gold[k]);
    }
    std::vector<kdr::service::SolveRequest> reqs;
    double t = 0.0;
    for (int i = 0; i < kJobs; ++i) {
        t += -std::log(1.0 - rng.uniform()); // unit-rate exponential gap
        kdr::service::SolveRequest req;
        req.id = static_cast<std::uint64_t>(i);
        req.tenant = gold[static_cast<std::size_t>(i)] != 0 ? "gold" : "bronze";
        req.arrival = t;
        req.spec.kind = kdr::stencil::Kind::D2P5;
        req.spec.nx = kSides[kinds[static_cast<std::size_t>(i)].second];
        req.spec.ny = req.spec.nx;
        req.solver = kSolvers[kinds[static_cast<std::size_t>(i)].first];
        req.rhs_seed = rng.next();
        req.tol = kTol;
        req.max_iterations = kMaxIterations;
        reqs.push_back(std::move(req));
    }
    return reqs;
}

/// The runtime's default round-robin mapper, plus a host-clock note each
/// time a job's admit task (the first launch of every executed job) is
/// mapped. Consecutive notes bound one job's host time, so a stream can be
/// timed job by job without changing what the engine runs or where.
class AdmitClock final : public kdr::rt::Mapper {
public:
    [[nodiscard]] kdr::sim::ProcId select_processor(const kdr::rt::TaskLaunch& launch,
                                                    const kdr::sim::MachineDesc& m) override {
        if (launch.name == "svc_admit") admits.push_back(Clock::now());
        return inner_.select_processor(launch, m);
    }

    std::vector<Clock::time_point> admits;

private:
    kdr::rt::RoundRobinMapper inner_;
};

struct Unit {
    std::unique_ptr<kdr::rt::Runtime> runtime;
    AdmitClock* admit_clock = nullptr; ///< owned by runtime
    std::unique_ptr<kdr::service::ServiceEngine> engine;
    std::vector<kdr::service::JobResult> jobs;
    kdr::obs::ServiceReport report;
    double setup_s = 0.0;
    double run_s = 0.0;
    std::vector<double> job_s; ///< host seconds of every executed job, in run order
};

void setup_unit(Unit& u, const std::vector<kdr::service::SolveRequest>& stream, double rate,
                Tracer& tracer) {
    using namespace kdr;
    const Clock::time_point t0 = Clock::now();
    {
        KBENCH_SPAN(tracer, "setup");
        u.runtime = std::make_unique<rt::Runtime>(sim::MachineDesc::lassen(kNodes));
        auto clock = std::make_unique<AdmitClock>();
        u.admit_clock = clock.get();
        u.runtime->set_mapper(std::move(clock));
        service::ServiceOptions opts;
        opts.slots = kSlots;
        opts.pieces = kPieces;
        opts.max_queue = kQueue;
        opts.share_contexts = true;
        opts.tenant_weights = {{"gold", 3.0}, {"bronze", 1.0}};
        u.engine = std::make_unique<service::ServiceEngine>(*u.runtime, opts);
        KBENCH_SPAN(tracer, "service.submit");
        for (service::SolveRequest req : stream) {
            req.arrival /= rate;
            u.engine->submit(std::move(req));
        }
    }
    u.setup_s = seconds_since(t0);
}

void run_unit(Unit& u, const std::vector<kdr::service::SolveRequest>& stream, double rate,
              Tracer& tracer, std::unique_ptr<Window>* window) {
    setup_unit(u, stream, rate, tracer);
    if (window != nullptr) *window = std::make_unique<Window>(*u.runtime);
    const Clock::time_point t1 = Clock::now();
    {
        KBENCH_SPAN(tracer, "service.run");
        u.jobs = u.engine->run();
    }
    const Clock::time_point t2 = Clock::now();
    u.run_s = std::chrono::duration<double>(t2 - t1).count();
    // A job runs from its admit to the next job's admit; the first from the
    // start of run(), the last to its end.
    const std::vector<Clock::time_point>& a = u.admit_clock->admits;
    std::vector<Clock::time_point> bounds = {t1};
    if (!a.empty()) bounds.insert(bounds.end(), a.begin() + 1, a.end());
    bounds.push_back(t2);
    for (std::size_t k = 0; k + 1 < bounds.size(); ++k)
        u.job_s.push_back(std::chrono::duration<double>(bounds[k + 1] - bounds[k]).count());
    KBENCH_SPAN(tracer, "service.report");
    u.report = u.engine->report();
}

/// Job accounting and the per-job correctness check. Returns the number of
/// failed jobs: rejected, aborted, deadline misses, and executed jobs that
/// did not converge to tol.
std::uint64_t check_unit(const Unit& u, Result& out) {
    std::uint64_t failed = 0;
    for (const kdr::service::JobResult& j : u.jobs) {
        const bool ok = (j.state == kdr::service::JobState::completed ||
                         j.state == kdr::service::JobState::recovered) &&
                        j.outcome.status == kdr::core::SolveStatus::converged &&
                        j.outcome.residual <= j.request.tol;
        if (!ok) ++failed;
    }
    const kdr::obs::ServiceReport& r = u.report;
    if (u.admit_clock->admits.size() != r.submitted - r.rejected)
        out.fail("saw " + std::to_string(u.admit_clock->admits.size()) +
                 " svc_admit launches for " + std::to_string(r.submitted - r.rejected) +
                 " executed jobs: the stream can no longer be timed job by job");
    std::cout << "  unit: setup " << u.setup_s << " s, run " << u.run_s << " s host, "
              << r.submitted << " jobs (" << r.completed << " completed, " << r.recovered
              << " recovered, " << r.deadline_misses << " deadline misses, " << r.aborted
              << " aborted, " << r.rejected << " rejected), p50 " << r.latency_p50 * 1e3
              << " ms, p99 " << r.latency_p99 * 1e3 << " ms virtual\n";
    if (failed > 0)
        out.fail(std::to_string(failed) + " of " + std::to_string(u.jobs.size()) +
                 " jobs rejected, aborted, late or not converged to tol");
    return failed;
}

void fingerprint(const Unit& u, Result& out) {
    double iterations = 0.0;
    double hits = 0.0;
    for (const kdr::service::JobResult& j : u.jobs) {
        iterations += j.outcome.iterations;
        hits += j.trace_cache_hit ? 1.0 : 0.0;
    }
    const std::map<std::string, double> fp = {
        {"latency_p50_ms", u.report.latency_p50 * 1e3},
        {"latency_p99_ms", u.report.latency_p99 * 1e3},
        {"service.makespan_s", u.report.makespan},
        {"service.trace_hits", hits},
        {"core.iterations", iterations}};
    for (const auto& [k, v] : fp) {
        const auto it = out.fingerprint.find(k);
        if (it != out.fingerprint.end() && it->second != v)
            out.fail(k + " differs between units of one run");
        out.fingerprint[k] = v;
    }
}

/// True when the stream at `rate` keeps p99 within the limit with no job
/// rejected.
bool meets_slo(const std::vector<kdr::service::SolveRequest>& stream, double rate,
               Tracer& off) {
    Unit u;
    run_unit(u, stream, rate, off, nullptr);
    const bool ok = u.report.rejected == 0 && u.report.latency_p99 <= kSloP99;
    std::cout << "  slo probe: " << rate << " jobs/s -> p99 " << u.report.latency_p99 * 1e3
              << " ms, " << u.report.rejected << " rejected: " << (ok ? "meets" : "misses")
              << "\n";
    return ok;
}

} // namespace

void run_service_stream(const Args& args, Tracer& tracer, Result& out) {
    const std::vector<kdr::service::SolveRequest> stream = make_stream(args.seed);
    std::cout << "service_stream: " << kJobs << " jobs at " << kRate
              << " jobs per virtual second on lassen(" << kNodes << "), " << kSlots
              << " lanes x " << kPieces << " pieces, queue " << kQueue << ", seed "
              << args.seed << "\n";
    Tracer off(false);
    const auto record = [&](const Unit& u) {
        out.attempted += u.jobs.size();
        out.failed += check_unit(u, out);
        fingerprint(u, out);
    };

    if (!args.trace) {
        // Set-up samples are taken between the streams, so both spread over
        // the whole run and see the same machine load.
        std::vector<double> setups;
        std::vector<std::vector<double>> jobs; // [repetition][job]
        const int units = units_for(args.seconds, kNominalStreamS);
        for (int i = 0; i < units; ++i) {
            for (int k = 0; k < kSetupsPerStream; ++k) {
                Unit extra;
                setup_unit(extra, stream, kRate, off);
                setups.push_back(extra.setup_s);
            }
            Unit u;
            run_unit(u, stream, kRate, off, nullptr);
            record(u);
            jobs.push_back(u.job_s);
        }
        // Every repetition serves the same jobs in the same order, so job k
        // is the same work each time: take each job at its fastest
        // repetition and add them up.
        double quiet_stream_s = 0.0;
        for (std::size_t k = 0; k < jobs.front().size(); ++k) {
            std::vector<double> reps;
            for (const std::vector<double>& r : jobs) reps.push_back(r.at(k));
            quiet_stream_s += quiet(reps);
        }
        out.set("setup_s", quiet(setups), "s",
                "fastest of " + std::to_string(setups.size()) + " set-ups");
        out.set("solve_s", quiet_stream_s, "s",
                "host time of the stream at " + std::to_string(static_cast<int>(kRate)) +
                    " jobs/s, each of its " + std::to_string(jobs.front().size()) +
                    " jobs at its fastest of " + std::to_string(units) + " repetitions");
        return;
    }

    std::vector<double> traced_jobs;
    {
        Unit u;
        run_unit(u, stream, kRate, tracer, nullptr);
        record(u);
        traced_jobs = u.job_s;
    }
    Unit u;
    std::unique_ptr<Window> w;
    run_unit(u, stream, kRate, off, &w);
    record(u);

    double iterations = 0.0, steps = 0.0;
    std::map<std::string, std::pair<int, int>> hits_by_solver;
    for (const kdr::service::JobResult& j : u.jobs) {
        if (j.state == kdr::service::JobState::rejected) continue;
        iterations += j.outcome.iterations;
        if (!j.outcome.history.empty())
            steps += static_cast<double>(j.outcome.history.size() - 1);
        auto& h = hits_by_solver[j.request.solver];
        h.first += j.trace_cache_hit ? 1 : 0;
        h.second += 1;
    }
    std::string hit_note = "of " + std::to_string(u.jobs.size() - u.report.rejected) +
                           " executed jobs:";
    for (const auto& [solver, h] : hits_by_solver)
        hit_note += " " + solver + " " + std::to_string(h.first) + "/" + std::to_string(h.second);
    const auto jobs = static_cast<double>(u.jobs.size());
    w->report(u.run_s, iterations, out);
    out.set("core.steps", steps, "count", "solver steps summed over jobs");
    out.set("core.iterations", iterations, "count", "iterations summed over jobs");
    out.set("service.host_ms_per_job", u.run_s / jobs * 1e3, "ms",
            "untraced run() host time / " + std::to_string(u.jobs.size()) + " jobs");
    out.set("service.trace_hit_frac", u.report.trace_cache_hit_rate, "ratio", hit_note);
    out.set("service.analysis_us_per_job", u.report.analysis_seconds_per_job * 1e6, "us",
            "virtual analysis stall per executed job");
    out.set("service.utilization", u.report.utilization, "ratio",
            "busy share of all processors over the virtual makespan");
    const std::string lat_note = "virtual, nearest rank of " +
                                 std::to_string(u.jobs.size() - u.report.rejected) +
                                 " executed jobs";
    out.set("latency_p50_ms", u.report.latency_p50 * 1e3, "ms", lat_note);
    out.set("latency_p99_ms", u.report.latency_p99 * 1e3, "ms", lat_note);
    // Job by job, so a load episode on the host skews few of the ratios.
    std::vector<double> ratios;
    for (std::size_t k = 0; k < traced_jobs.size() && k < u.job_s.size(); ++k)
        ratios.push_back(traced_jobs[k] / u.job_s[k]);
    out.set("obs.span_overhead_frac", median(ratios) - 1.0, "ratio",
            "median over " + std::to_string(ratios.size()) +
                " jobs of traced / untraced host time");
    {
        KBENCH_SPAN(tracer, "probe.launch");
        gidx n = 0;
        for (const gidx s : kSides) n = std::max(n, s * s);
        out.set("runtime.launch_us", probe_launch_us(*u.runtime, n, kPieces, tracer), "us",
                "median of 20 rounds x " + std::to_string(kPieces) + " launches");
    }

    // max_rate_at_slo: geometric bisection between a rate that meets the
    // limit and one that misses it; the bracket and step count are fixed, so
    // the result is a deterministic function of the seed.
    double lo = kRate / 2.0;
    double hi = kRate * 4.0;
    double rate_at_slo = 0.0;
    {
        KBENCH_SPAN(tracer, "service.slo_search");
        if (meets_slo(stream, lo, off)) {
            for (int i = 0; i < 6; ++i) {
                const double mid = std::sqrt(lo * hi);
                (meets_slo(stream, mid, off) ? lo : hi) = mid;
            }
            rate_at_slo = lo;
        }
    }
    out.set("max_rate_at_slo", rate_at_slo, "1/s",
            "jobs per virtual second with p99 <= " + std::to_string(kSloP99 * 1e3) +
                " ms and none rejected");
    out.fingerprint["max_rate_at_slo"] = rate_at_slo;
}

} // namespace kbench
