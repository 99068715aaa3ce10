/// functional_cg_2d: real numerics, run the way examples/quickstart runs —
/// 2-D 5-point Poisson on a 512 x 512 grid (262,144 unknowns), 16 pieces on
/// a simulated lassen(2), described-CSR operator, CG through core::solve to
/// an absolute residual of 1e-6, right-hand side drawn from the workload
/// seed. One caller, closed loop: each unit is set up, solved and checked
/// before the next starts.

#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/solver_registry.hpp"
#include "core/solvers.hpp"
#include "layers.hpp"
#include "probe_solver.hpp"
#include "sparse/described_formats.hpp"
#include "stencil/stencil.hpp"

namespace kbench {
namespace {

using kdr::gidx;

constexpr gidx kSide = 512;
constexpr kdr::Color kPieces = 16;
constexpr double kTol = 1e-6;
constexpr std::size_t kWarmupSteps = 10; // trace record + capture instances
constexpr double kNominalUnitS = 11.0;    // one set-up + solve on a 4-core Xeon VM
constexpr int kSetupsPerUnit = 3;         // set-up samples per solve

/// A 5-point Poisson matrix in CSR arrays, assembled here from the stencil's
/// definition (diagonal 4, -1 per existing neighbour) rather than by the
/// library: the reference the solution is checked against, and the input of
/// the plain CG baseline.
struct PlainCsr {
    gidx n = 0;
    std::vector<gidx> rowptr;
    std::vector<gidx> col;
    std::vector<double> val;

    explicit PlainCsr(gidx side) : n(side * side) {
        rowptr.reserve(static_cast<std::size_t>(n) + 1);
        rowptr.push_back(0);
        for (gidx y = 0; y < side; ++y) {
            for (gidx x = 0; x < side; ++x) {
                const gidx i = y * side + x;
                if (y > 0) push(i - side, -1.0);
                if (x > 0) push(i - 1, -1.0);
                push(i, 4.0);
                if (x + 1 < side) push(i + 1, -1.0);
                if (y + 1 < side) push(i + side, -1.0);
                rowptr.push_back(static_cast<gidx>(col.size()));
            }
        }
    }

    void push(gidx c, double v) {
        col.push_back(c);
        val.push_back(v);
    }

    /// y = A x
    void apply(const double* x, double* y) const {
        for (gidx i = 0; i < n; ++i) {
            double s = 0.0;
            for (gidx k = rowptr[static_cast<std::size_t>(i)];
                 k < rowptr[static_cast<std::size_t>(i) + 1]; ++k)
                s += val[static_cast<std::size_t>(k)] * x[col[static_cast<std::size_t>(k)]];
            y[i] = s;
        }
    }

    [[nodiscard]] std::size_t nnz() const noexcept { return val.size(); }
};

double dot(const std::vector<double>& a, const std::vector<double>& b) {
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
}

/// Textbook CG on the plain CSR arrays, same start (x = 0), same stopping
/// rule (sqrt(r.r) <= tol). Returns the iteration count.
int plain_cg(const PlainCsr& A, const std::vector<double>& b, int max_it) {
    const auto n = static_cast<std::size_t>(A.n);
    std::vector<double> x(n, 0.0), r = b, p = b, q(n);
    double rr = dot(r, r);
    int it = 0;
    while (std::sqrt(rr) > kTol && it < max_it) {
        A.apply(p.data(), q.data());
        const double alpha = rr / dot(p, q);
        for (std::size_t i = 0; i < n; ++i) {
            x[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        const double rr_new = dot(r, r);
        const double beta = rr_new / rr;
        for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
        rr = rr_new;
        ++it;
    }
    return it;
}

/// One set-up + solve of the workload. Owns the runtime and planner so the
/// caller can probe layers after the solve.
struct Unit {
    std::unique_ptr<kdr::rt::Runtime> runtime;
    std::unique_ptr<kdr::core::Planner<double>> planner;
    std::shared_ptr<kdr::sparse::DescribedFormat<double>> op;
    std::unique_ptr<kdr::core::Solver<double>> solver;
    kdr::rt::RegionId xr = 0, br = 0;
    kdr::rt::FieldId xf = 0, bf = 0;
    double setup_s = 0.0;
    double solve_s = 0.0;         ///< wall time of core::solve
    std::vector<double> step_s;   ///< wall time of every step
    double proj_hits = 0.0, proj_misses = 0.0;
    kdr::core::SolveResult result;
    std::size_t steps = 0;
    double virtual_us_per_it = 0.0;
    double solve_virtual_s = 0.0;

    /// Free the solve stack, users before the runtime they reference; the
    /// timings and results stay.
    void release() {
        solver.reset();
        op.reset();
        planner.reset();
        runtime.reset();
    }
};

void setup_unit(Unit& u, const std::vector<double>& rhs, Tracer& tracer) {
    using namespace kdr;
    const Clock::time_point t0 = Clock::now();
    {
        KBENCH_SPAN(tracer, "setup");
        u.runtime = std::make_unique<rt::Runtime>(sim::MachineDesc::lassen(2));
        rt::Runtime& rt = *u.runtime;
        const Window setup_window(rt);
        stencil::Spec spec;
        spec.kind = stencil::Kind::D2P5;
        spec.nx = kSide;
        spec.ny = kSide;
        const gidx n = spec.unknowns();
        const IndexSpace D = IndexSpace::create(n, "domain");
        const IndexSpace R = IndexSpace::create(n, "range");
        u.xr = rt.create_region(D, "x");
        u.br = rt.create_region(R, "b");
        u.xf = rt.add_field<double>(u.xr, "values");
        u.bf = rt.add_field<double>(u.br, "values");
        {
            auto bd = rt.field_data<double>(u.br, u.bf);
            std::copy(rhs.begin(), rhs.end(), bd.begin());
        }
        std::vector<Triplet<double>> triplets;
        {
            KBENCH_SPAN(tracer, "stencil.laplacian_triplets");
            triplets = stencil::laplacian_triplets(spec);
        }
        {
            KBENCH_SPAN(tracer, "core.add_vectors");
            u.planner = std::make_unique<core::Planner<double>>(rt);
            u.planner->add_sol_vector(u.xr, u.xf, Partition::equal(D, kPieces));
            u.planner->add_rhs_vector(u.br, u.bf, Partition::equal(R, kPieces));
        }
        {
            KBENCH_SPAN(tracer, "sparse.make_described");
            u.op = sparse::make_described<double>("csr", D, R, std::move(triplets));
        }
        {
            KBENCH_SPAN(tracer, "core.add_operator");
            u.planner->add_operator(u.op, 0, 0);
        }
        {
            KBENCH_SPAN(tracer, "core.make_solver");
            u.solver = core::make_solver<double>("cg", *u.planner, core::SolverParams{});
        }
        u.proj_hits = setup_window.projection_hits();
        u.proj_misses = setup_window.projection_misses();
    }
    u.setup_s = seconds_since(t0);
}

void solve_unit(Unit& u, Tracer& tracer, std::unique_ptr<Window>* solve_window) {
    using namespace kdr;
    if (solve_window != nullptr) *solve_window = std::make_unique<Window>(*u.runtime);
    ProbeSolver probe(*u.solver, *u.runtime, tracer);
    const double vt0 = u.runtime->current_time();
    const Clock::time_point t1 = Clock::now();
    {
        KBENCH_SPAN(tracer, "core.solve");
        u.result = core::solve(probe, kTol, 10 * static_cast<int>(kSide * kSide));
    }
    u.solve_s = seconds_since(t1);
    u.solve_virtual_s = u.runtime->current_time() - vt0;
    u.steps = probe.steps();
    u.step_s = probe.host_step_seconds();
    u.virtual_us_per_it = probe.virtual_us_per_it(kWarmupSteps);
}

/// Checks a finished unit; returns true when it passed.
bool check_unit(Unit& u, const PlainCsr& A, const std::vector<double>& rhs, Result& out) {
    bool ok = true;
    if (u.result.status != kdr::core::SolveStatus::converged) {
        out.fail("solve ended " + std::string(kdr::core::to_string(u.result.status)) +
                 " after " + std::to_string(u.result.iterations) + " iterations");
        ok = false;
    }
    auto xd = u.runtime->field_data<double>(u.xr, u.xf);
    std::vector<double> ax(static_cast<std::size_t>(A.n));
    A.apply(xd.data(), ax.data());
    double err = 0.0;
    for (std::size_t i = 0; i < ax.size(); ++i) err = std::max(err, std::abs(ax[i] - rhs[i]));
    // The solver's stopping rule bounds the recursively updated residual's
    // 2-norm by tol; the true residual may drift from it by rounding only.
    if (!(err <= 10.0 * kTol)) {
        out.fail("max |b - Ax| = " + std::to_string(err) + " exceeds 10 x tol");
        ok = false;
    }
    std::cout << "  unit: setup " << u.setup_s << " s, solve " << u.solve_s << " s, "
              << u.result.iterations << " iterations, residual " << u.result.residual
              << ", max |b - Ax| " << err << " (independent CSR), virtual "
              << u.solve_virtual_s * 1e3 << " ms\n";
    return ok;
}

/// Time to solution at the quiet pace of a set of solves of the same
/// system: core::solve's own work outside step() (median over solves)
/// plus every step at the pace of the fastest of all their steps.
double quiet_solve_s(const std::vector<const Unit*>& units) {
    std::vector<double> steps, outside;
    for (const Unit* u : units) {
        steps.insert(steps.end(), u->step_s.begin(), u->step_s.end());
        double stepping = 0.0;
        for (const double s : u->step_s) stepping += s;
        outside.push_back(u->solve_s - stepping);
    }
    return median(outside) + static_cast<double>(units.front()->step_s.size()) * quiet(steps);
}

} // namespace

void run_functional_cg_2d(const Args& args, Tracer& tracer, Result& out) {
    const gidx n = kSide * kSide;
    const std::vector<double> rhs = kdr::stencil::random_rhs(n, args.seed);
    const PlainCsr A(kSide);
    std::cout << "functional_cg_2d: " << kSide << "^2 = " << n << " unknowns, " << A.nnz()
              << " nonzeros, " << kPieces << " pieces on lassen(2), cg to " << kTol
              << ", rhs seed " << args.seed << "\n";

    Tracer off(false);
    const auto record = [&](Unit& u) {
        ++out.attempted;
        if (!check_unit(u, A, rhs, out)) ++out.failed;
        // Virtual-clock outputs and iteration counts are deterministic: every
        // unit of the same inputs must agree exactly.
        const std::map<std::string, double> fp = {
            {"core.iterations", u.result.iterations},
            {"core.residual", u.result.residual},
            {"sim.solve_virtual_s", u.solve_virtual_s},
            {"virtual_us_per_it", u.virtual_us_per_it}};
        for (const auto& [k, v] : fp) {
            const auto it = out.fingerprint.find(k);
            if (it != out.fingerprint.end() && it->second != v)
                out.fail(k + " differs between units of one run");
            out.fingerprint[k] = v;
        }
    };

    if (!args.trace) {
        const int units = units_for(args.seconds, kNominalUnitS);
        std::vector<double> setups;
        std::vector<const Unit*> solved;
        std::vector<Unit> keep(static_cast<std::size_t>(units));
        for (Unit& u : keep) {
            for (int k = 0; k < kSetupsPerUnit; ++k) {
                u.release();
                setup_unit(u, rhs, off);
                setups.push_back(u.setup_s);
            }
            solve_unit(u, off, nullptr);
            record(u);
            solved.push_back(&u);
            u.release();
        }
        out.set("setup_s", quiet(setups), "s",
                "fastest of " + std::to_string(setups.size()) + " set-ups");
        out.set("solve_s", quiet_solve_s(solved), "s",
                "time to solution at the pace of the fastest of the " +
                    std::to_string(keep[0].step_s.size()) + " steps of " +
                    std::to_string(units) + " solves");
        return;
    }

    // Traced run: one traced unit (spans around every layer call and every
    // step), then one untraced unit in the same process for the runtime
    // counters, the bare-launch probe and the tracing overhead, then the
    // reference measurements.
    Unit traced;
    setup_unit(traced, rhs, tracer);
    solve_unit(traced, tracer, nullptr);
    record(traced);
    {
        KBENCH_SPAN(tracer, "probe.planner_ops");
        probe_planner_ops(*traced.planner, tracer, out);
    }
    std::vector<double> steps_us;
    for (const double d : tracer.durations("core.step")) steps_us.push_back(d * 1e6);
    if (top_percentile(steps_us.size()) < 99.0)
        out.fail("fewer than 1000 steps: no p99 with ten samples beyond it");
    const std::string n_steps = "of " + std::to_string(steps_us.size()) + " steps";
    out.set("core.step_us_p50", nearest_rank(steps_us, 0.50), "us", n_steps);
    out.set("core.step_us_p99", nearest_rank(steps_us, 0.99), "us", n_steps);
    out.set("core.steps", static_cast<double>(traced.steps), "count");
    out.set("core.iterations", traced.result.iterations, "count");
    out.set("virtual_us_per_it", traced.virtual_us_per_it, "us",
            "virtual clock, steps " + std::to_string(kWarmupSteps + 1) + ".." +
                std::to_string(traced.steps));
    out.set("stencil.assemble_s", tracer.self("stencil.laplacian_triplets"), "s");
    out.set("sparse.build_s", tracer.self("sparse.make_described"), "s",
            "make_described incl. structural validation");
    out.set("core.planner_setup_s",
            tracer.self("core.add_vectors") + tracer.self("core.add_operator"), "s");
    out.set("core.solver_build_s", tracer.self("core.make_solver"), "s");
    out.set("partition.cache_hits", traced.proj_hits, "count", "projection cache, set-up");
    out.set("partition.cache_misses", traced.proj_misses, "count", "projection cache, set-up");
    const double traced_solve_s = quiet_solve_s({&traced});
    traced.release();

    Unit plain;
    std::unique_ptr<Window> window;
    setup_unit(plain, rhs, off);
    solve_unit(plain, off, &window);
    record(plain);
    window->report(plain.solve_s, plain.result.iterations, out);
    const double plain_solve_s = quiet_solve_s({&plain});
    out.set("obs.span_overhead_frac", traced_solve_s / plain_solve_s - 1.0, "ratio",
            "traced " + std::to_string(traced_solve_s) + " s vs untraced " +
                std::to_string(plain_solve_s) + " s, both at the quiet pace");
    {
        KBENCH_SPAN(tracer, "probe.launch");
        out.set("runtime.launch_us", probe_launch_us(*plain.runtime, n, kPieces, tracer), "us",
                "median of 20 rounds x " + std::to_string(kPieces) + " launches");
    }

    // Kernel references. The computed bytes of one SpMV come from the
    // operator's own cost model; the copy loop streams the same number of
    // bytes, so both run at the same working-set size.
    const kdr::SpmvCostModel cm = plain.op->spmv_cost_model();
    const auto nnz = static_cast<double>(plain.op->stored_count());
    const double spmv_bytes = nnz * (cm.matrix_bytes_per_entry + cm.gather_bytes_per_entry) +
                              static_cast<double>(n) * cm.bytes_per_row;
    constexpr int kReps = 30;
    std::vector<double> spmv_s, copy_s;
    {
        std::vector<double> y(static_cast<std::size_t>(n), 0.0);
        for (int i = 0; i < kReps; ++i) {
            KBENCH_SPAN(tracer, "sparse.spmv");
            const Clock::time_point t0 = Clock::now();
            plain.op->multiply_add(rhs, y);
            spmv_s.push_back(seconds_since(t0));
        }
        if (!std::isfinite(y[0])) out.fail("reference SpMV produced a non-finite value");
    }
    {
        const auto half = static_cast<std::size_t>(spmv_bytes / 2.0);
        std::vector<char> src(half, 1), dst(half, 0);
        for (int i = 0; i < kReps; ++i) {
            KBENCH_SPAN(tracer, "mem.copy");
            src[static_cast<std::size_t>(i) % half] = static_cast<char>(i);
            const Clock::time_point t0 = Clock::now();
            std::memcpy(dst.data(), src.data(), half);
            copy_s.push_back(seconds_since(t0));
        }
        if (dst[1] != 1) out.fail("copy loop did not copy");
    }
    const double spmv = median(spmv_s);
    const double copy_gbps = spmv_bytes / median(copy_s) / 1e9;
    const double spmv_gbps = spmv_bytes / spmv / 1e9;
    const std::string footprint =
        std::to_string(spmv_bytes / (1024.0 * 1024.0)) +
        " MiB working set (compare with the host's last-level cache)";
    out.set("sparse.spmv_us", spmv * 1e6, "us", "median of " + std::to_string(kReps));
    out.set("sparse.spmv_mnnz_per_s", nnz / spmv / 1e6, "Mnnz/s",
            std::to_string(static_cast<long long>(nnz)) + " nonzeros");
    out.set("sparse.spmv_gbps_computed", spmv_gbps, "GB/s",
            "computed bytes from the SpmvCostModel, " + footprint);
    out.set("mem.copy_gbps", copy_gbps, "GB/s", "memcpy of a " + footprint);
    out.set("sparse.spmv_roofline_frac", spmv_gbps / copy_gbps, "ratio",
            "spmv_gbps_computed / mem.copy_gbps");
    {
        KBENCH_SPAN(tracer, "plain.cg");
        const Clock::time_point t0 = Clock::now();
        const int its = plain_cg(A, rhs, 10 * static_cast<int>(n));
        out.set("plain.cg_s", seconds_since(t0), "s",
                std::to_string(its) + " iterations, single-threaded CG on plain CSR arrays");
    }
}

} // namespace kbench
