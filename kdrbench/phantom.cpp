/// phantom_cg_256: timing mode with no data (materialize = false): 5-point
/// 2-D Poisson with 2^26 unknowns on a simulated lassen(64) — 256 pieces, one
/// per GPU — running untraced CG, so every launch pays full dependence
/// analysis. This is bench_scaling's strong-scaling path. After a warm-up, a
/// fixed budget of steps is timed. Closed loop. There is no data, so the
/// seed changes nothing in this workload.

#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/solver_registry.hpp"
#include "core/solvers.hpp"
#include "layers.hpp"
#include "probe_solver.hpp"
#include "stencil/stencil.hpp"

namespace kbench {
namespace {

using kdr::gidx;

constexpr int kNodes = 64;
constexpr kdr::Color kPieces = 4 * kNodes; // one piece per GPU
constexpr int kLog2Unknowns = 26;
constexpr int kWarmupSteps = 10;
constexpr int kBudgetSteps = 100;      // the step budget solve_s reports
constexpr double kNominalStepS = 0.03;   // one step on a 4-core Xeon VM
constexpr int kStepsPerSetup = 50;       // timed steps between two set-up samples
constexpr int kTracedSteps = 1000;       // traced: enough steps for a p99 with 10 beyond
constexpr int kCounterSteps = 400;       // untraced steps the traced run reads counters over

struct Unit {
    std::unique_ptr<kdr::rt::Runtime> runtime;
    std::unique_ptr<kdr::core::Planner<double>> planner;
    std::unique_ptr<kdr::core::Solver<double>> solver;
    gidx n = 0;
    double setup_s = 0.0;
    double proj_hits = 0.0, proj_misses = 0.0;
};

void setup_unit(Unit& u, Tracer& tracer) {
    using namespace kdr;
    const Clock::time_point t0 = Clock::now();
    KBENCH_SPAN(tracer, "setup");
    u.runtime = std::make_unique<rt::Runtime>(
        sim::MachineDesc::lassen(kNodes),
        rt::RuntimeOptions{.materialize = false, .trace_fast_path = false});
    rt::Runtime& rt = *u.runtime;
    const Window setup_window(rt);
    const stencil::Spec spec = stencil::Spec::cube(stencil::Kind::D2P5, gidx{1} << kLog2Unknowns);
    u.n = spec.unknowns();
    const IndexSpace D = IndexSpace::create(u.n, "D");
    const IndexSpace R = IndexSpace::create(u.n, "R");
    const rt::RegionId xr = rt.create_region(D, "x");
    const rt::RegionId br = rt.create_region(R, "b");
    const rt::FieldId xf = rt.add_field<double>(xr, "v");
    const rt::FieldId bf = rt.add_field<double>(br, "v");

    stencil::CoPartition cp;
    {
        KBENCH_SPAN(tracer, "stencil.co_partition");
        cp = stencil::co_partition(spec, D, R, kPieces);
    }
    {
        KBENCH_SPAN(tracer, "core.add_vectors");
        core::PlannerOptions popts;
        popts.trace_solver_loops = false;
        u.planner = std::make_unique<core::Planner<double>>(rt, popts);
        u.planner->add_sol_vector(xr, xf, Partition::equal(D, kPieces));
        u.planner->add_rhs_vector(br, bf, cp.rows);
    }
    // Phantom operator: no matrix, only the per-piece kernel space, halo and
    // nonzero counts the CSR cost model charges.
    core::OperatorPlan plan;
    {
        KBENCH_SPAN(tracer, "sparse.phantom_plan");
        gidx total_k = 0;
        for (const gidx v : cp.nnz) total_k += v;
        const IndexSpace K = IndexSpace::create(total_k, "K");
        std::vector<IntervalSet> kpieces;
        gidx cursor = 0;
        for (const gidx take : cp.nnz) {
            kpieces.emplace_back(cursor, cursor + take);
            cursor += take;
        }
        plan.kernel_pieces = Partition(K, std::move(kpieces));
        plan.domain_needs = cp.halo;
        plan.row_pieces = cp.rows;
        plan.nnz = cp.nnz;
        plan.symmetric = true;
    }
    {
        KBENCH_SPAN(tracer, "core.add_operator");
        u.planner->add_operator(nullptr, 0, 0, std::move(plan));
    }
    {
        KBENCH_SPAN(tracer, "core.make_solver");
        u.solver = core::make_solver<double>("cg", *u.planner, core::SolverParams{});
    }
    u.proj_hits = setup_window.projection_hits();
    u.proj_misses = setup_window.projection_misses();
    u.setup_s = seconds_since(t0);
}

struct Budget {
    double host_s = 0.0;
    double virtual_us_per_it = 0.0;
    std::vector<double> step_s; ///< host seconds of every timed step

    /// Host seconds of kBudgetSteps steps at the pace of the fastest timed
    /// step.
    [[nodiscard]] double quiet_budget_s() const {
        return quiet(step_s) * static_cast<double>(kBudgetSteps);
    }
};

/// Warm up, then time `steps` steps. The window's counters cover exactly the
/// timed steps. `between` (if set) runs before every timed step, outside
/// the step timings.
Budget run_budget(Unit& u, int steps, Tracer& tracer, std::unique_ptr<Window>& window,
                  const std::function<void(int step)>& between = {}) {
    ProbeSolver probe(*u.solver, *u.runtime, tracer);
    for (int i = 0; i < kWarmupSteps; ++i) probe.step();
    window = std::make_unique<Window>(*u.runtime);
    const Clock::time_point t0 = Clock::now();
    {
        KBENCH_SPAN(tracer, "core.solve");
        for (int i = 0; i < steps; ++i) {
            if (between) between(i);
            probe.step();
        }
    }
    Budget b;
    b.host_s = seconds_since(t0);
    const std::vector<double>& all = probe.host_step_seconds();
    b.step_s.assign(all.begin() + kWarmupSteps, all.end());
    b.virtual_us_per_it = probe.virtual_us_per_it(static_cast<std::size_t>(kWarmupSteps) - 1);
    return b;
}

void check_budget(const Unit& u, const Budget& b, const Window& w, int steps, Result& out) {
    ++out.attempted;
    const double syncs_per_it = w.counter("global_syncs") / steps;
    bool ok = true;
    if (u.solver->status() != kdr::core::SolveStatus::running) {
        out.fail("solver left the running state during the step budget");
        ok = false;
    }
    if (syncs_per_it != 2.0) {
        out.fail("global syncs per iteration " + std::to_string(syncs_per_it) + " != 2");
        ok = false;
    }
    if (!ok) ++out.failed;
    std::cout << "  unit: setup " << u.setup_s << " s, " << steps << " steps in " << b.host_s
              << " s host, " << b.virtual_us_per_it << " virtual us/it, " << w.tasks()
              << " tasks\n";
    const std::map<std::string, double> fp = {
        {"virtual_us_per_it." + std::to_string(steps) + "_steps", b.virtual_us_per_it},
        {"window_tasks_per_step", w.tasks() / steps},
        {"sim.global_syncs_per_it", syncs_per_it}};
    for (const auto& [k, v] : fp) {
        const auto it = out.fingerprint.find(k);
        if (it != out.fingerprint.end() && it->second != v)
            out.fail(k + " differs between units of one run");
        out.fingerprint[k] = v;
    }
}

} // namespace

void run_phantom_cg_256(const Args& args, Tracer& tracer, Result& out) {
    std::cout << "phantom_cg_256: 2^" << kLog2Unknowns << " unknowns, " << kPieces
              << " pieces on lassen(" << kNodes << "), untraced cg, no data (seed "
              << args.seed << " unused)\n";
    Tracer off(false);
    if (!args.trace) {
        // Set-up samples are taken between the timed steps, so both spread
        // over the whole run and see the same machine load.
        std::vector<double> setups;
        const int steps = units_for(args.seconds, kNominalStepS);
        Unit u;
        setup_unit(u, off);
        setups.push_back(u.setup_s);
        std::unique_ptr<Window> w;
        const Budget b = run_budget(u, steps, off, w, [&](int step) {
            if (step % kStepsPerSetup != kStepsPerSetup - 1) return;
            Unit extra;
            setup_unit(extra, off);
            setups.push_back(extra.setup_s);
        });
        check_budget(u, b, *w, steps, out);
        std::cout << "  timed steps (ms): min " << quiet(b.step_s) * 1e3 << ", p10 "
                  << nearest_rank(b.step_s, 0.10) * 1e3 << ", p50 "
                  << nearest_rank(b.step_s, 0.50) * 1e3 << "\n";
        out.set("setup_s", quiet(setups), "s",
                "fastest of " + std::to_string(setups.size()) + " set-ups");
        out.set("solve_s", b.quiet_budget_s(), "s",
                std::to_string(kBudgetSteps) + "-step budget at the pace of the fastest of " +
                    std::to_string(steps) + " timed steps after " +
                    std::to_string(kWarmupSteps) + " warm-up steps");
        return;
    }

    double traced_s = 0.0;
    {
        Unit u;
        setup_unit(u, tracer);
        std::unique_ptr<Window> w;
        const Budget b = run_budget(u, kTracedSteps, tracer, w);
        check_budget(u, b, *w, kTracedSteps, out);
        traced_s = b.quiet_budget_s();
        std::vector<double> steps_us;
        for (const double d : tracer.durations("core.step")) steps_us.push_back(d * 1e6);
        // Warm-up steps are outside the timed window.
        steps_us.erase(steps_us.begin(), steps_us.begin() + kWarmupSteps);
        if (top_percentile(steps_us.size()) < 99.0)
            out.fail("fewer than 1000 timed steps: no p99 with ten samples beyond it");
        const std::string n_steps = "of " + std::to_string(steps_us.size()) + " steps";
        out.set("core.step_us_p50", nearest_rank(steps_us, 0.50), "us", n_steps);
        out.set("core.step_us_p99", nearest_rank(steps_us, 0.99), "us", n_steps);
        out.set("core.steps", static_cast<double>(kTracedSteps), "count", "timed steps");
        out.set("core.iterations", static_cast<double>(kTracedSteps), "count",
                "timed iterations");
        out.set("virtual_us_per_it", b.virtual_us_per_it, "us", "virtual clock, timed steps");
        out.set("stencil.assemble_s", tracer.self("stencil.co_partition"), "s");
        out.set("core.planner_setup_s",
                tracer.self("core.add_vectors") + tracer.self("core.add_operator"), "s");
        out.set("core.solver_build_s", tracer.self("core.make_solver"), "s");
        out.set("partition.cache_hits", u.proj_hits, "count", "projection cache, set-up");
        out.set("partition.cache_misses", u.proj_misses, "count", "projection cache, set-up");
        {
            KBENCH_SPAN(tracer, "probe.planner_ops");
            probe_planner_ops(*u.planner, tracer, out);
        }
    }

    Unit u;
    setup_unit(u, off);
    std::unique_ptr<Window> w;
    const Budget b = run_budget(u, kCounterSteps, off, w);
    check_budget(u, b, *w, kCounterSteps, out);
    w->report(b.host_s, kCounterSteps, out);
    out.set("obs.span_overhead_frac", traced_s / b.quiet_budget_s() - 1.0, "ratio",
            "traced " + std::to_string(traced_s) + " s vs untraced " +
                std::to_string(b.quiet_budget_s()) + " s per " + std::to_string(kBudgetSteps) +
                "-step budget, both at the quiet pace");
    {
        KBENCH_SPAN(tracer, "probe.launch");
        out.set("runtime.launch_us", probe_launch_us(*u.runtime, u.n, kPieces, tracer), "us",
                "median of 20 rounds x " + std::to_string(kPieces) + " launches");
    }
}

} // namespace kbench
