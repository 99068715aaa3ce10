#pragma once

/// \file layers.hpp
/// Per-layer readings shared by the workloads: deltas of the runtime's own
/// counters and the simulator's busy timelines over a measured window, a bare
/// launch probe, and planner-op timings inside a replayed trace. Every ratio
/// is printed together with its base.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/planner.hpp"
#include "partition/projection.hpp"
#include "runtime/runtime.hpp"

namespace kbench {

/// Counter and busy-timeline baselines at the start of a measured window.
class Window {
public:
    explicit Window(kdr::rt::Runtime& rt)
        : rt_(rt), snap_(rt.metrics().snapshot()), tasks_(rt.tasks_launched()),
          t0_(rt.current_time()), busy_(busy_now()), proj_(kdr::projection_cache_stats()) {}

    [[nodiscard]] double counter(const std::string& name) const {
        return rt_.metrics().counter_total_since(name, snap_);
    }
    [[nodiscard]] double tasks() const {
        return static_cast<double>(rt_.tasks_launched() - tasks_);
    }
    [[nodiscard]] double virtual_seconds() const { return rt_.current_time() - t0_; }
    [[nodiscard]] double projection_hits() const {
        return static_cast<double>(kdr::projection_cache_stats().hits - proj_.hits);
    }
    [[nodiscard]] double projection_misses() const {
        return static_cast<double>(kdr::projection_cache_stats().misses - proj_.misses);
    }

    /// Runtime and simulator layer metrics over the window. `host_s` is the
    /// host time the window took untraced; `iterations` the solver iterations
    /// it advanced.
    void report(double host_s, double iterations, Result& out) const {
        const kdr::sim::MachineDesc& m = rt_.machine();
        const double tasks = this->tasks();
        const double replayed = counter("trace_replayed_tasks");
        const double skipped = counter("trace_depanalysis_skipped");
        const double syncs = counter("global_syncs");
        const double vt = virtual_seconds();
        const Busy now = busy_now();
        const double gpus = static_cast<double>(m.nodes) * m.gpus_per_node;
        const double nodes = static_cast<double>(m.nodes);
        const auto frac = [vt](double busy, double lanes) {
            return vt > 0.0 ? busy / (lanes * vt) : 0.0;
        };
        const std::string per_task = "of " + std::to_string(static_cast<long long>(tasks)) +
                                     " tasks";
        out.set("runtime.tasks", tasks, "count", "tasks launched in the window");
        out.set("runtime.host_us_per_task", tasks > 0 ? host_s / tasks * 1e6 : 0.0, "us",
                "untraced host seconds / tasks, " + per_task);
        out.set("runtime.replayed_frac", tasks > 0 ? replayed / tasks : 0.0, "ratio",
                "trace_replayed_tasks " + std::to_string(static_cast<long long>(replayed)) +
                    " " + per_task);
        out.set("runtime.analysis_skipped", skipped, "count",
                "trace_depanalysis_skipped, the replayed tasks that skipped analysis");
        out.set("runtime.transfers", counter("transfer_count"), "count", "transfer_count");
        out.set("runtime.transfer_mb", counter("transfer_bytes") / 1e6, "MB",
                "transfer_bytes / 1e6");
        out.set("runtime.exchange_plans_built", counter("exchange_plans_built"), "count",
                "exchange_plans_built");
        out.set("sim.global_syncs_per_it", iterations > 0 ? syncs / iterations : 0.0,
                "count",
                "global_syncs " + std::to_string(static_cast<long long>(syncs)) + " / " +
                    std::to_string(static_cast<long long>(iterations)) + " iterations");
        const std::string base = "of " + std::to_string(vt * 1e6) + " virtual us";
        out.set("sim.gpu_busy_frac", frac(now.gpu - busy_.gpu, gpus), "ratio",
                "GPU busy / (" + std::to_string(static_cast<int>(gpus)) + " GPUs " + base +
                    ")");
        out.set("sim.nic_busy_frac", frac(now.nic - busy_.nic, 2.0 * nodes), "ratio",
                "NIC send+recv busy / (2 x " + std::to_string(m.nodes) + " nodes " + base +
                    ")");
        out.set("sim.analysis_busy_frac", frac(now.analysis - busy_.analysis, nodes), "ratio",
                "analysis pipeline busy / (" + std::to_string(m.nodes) + " nodes " + base +
                    ")");
        out.fingerprint["runtime.tasks"] = tasks;
        out.fingerprint["runtime.transfers"] = counter("transfer_count");
        out.fingerprint["runtime.transfer_bytes"] = counter("transfer_bytes");
        out.fingerprint["sim.global_syncs"] = syncs;
        out.fingerprint["sim.virtual_s"] = vt;
    }

private:
    struct Busy {
        double gpu = 0.0;
        double nic = 0.0;
        double analysis = 0.0;
    };

    [[nodiscard]] Busy busy_now() const {
        const kdr::sim::MachineDesc& m = rt_.machine();
        kdr::sim::SimCluster& c = rt_.cluster();
        Busy b;
        for (int n = 0; n < m.nodes; ++n) {
            for (int g = 0; g < m.gpus_per_node; ++g)
                b.gpu += c.proc_busy({n, kdr::sim::ProcKind::GPU, g});
            b.nic += c.nic_send_busy(n) + c.nic_recv_busy(n);
            b.analysis += c.analysis_busy(n);
        }
        return b;
    }

    kdr::rt::Runtime& rt_;
    kdr::obs::RegistrySnapshot snap_;
    std::uint64_t tasks_;
    double t0_;
    Busy busy_;
    kdr::ProjectionCacheStats proj_;
};

/// Bare, untraced Runtime::launch cost: one bodiless task per piece of a
/// probe region the size of the workload's vectors, each with one
/// read-write requirement on its piece. Median host microseconds per launch
/// over `rounds` rounds.
inline double probe_launch_us(kdr::rt::Runtime& rt, kdr::gidx n, kdr::Color pieces,
                              Tracer& tracer, int rounds = 20) {
    const kdr::IndexSpace space = kdr::IndexSpace::create(n, "probe");
    const kdr::rt::RegionId r = rt.create_region(space, "launch_probe");
    const kdr::rt::FieldId f = rt.add_field<double>(r, "v");
    const kdr::Partition part = kdr::Partition::equal(space, pieces);
    std::vector<double> per_launch;
    for (int round = 0; round < rounds; ++round) {
        const Clock::time_point t0 = Clock::now();
        for (kdr::Color c = 0; c < pieces; ++c) {
            KBENCH_SPAN(tracer, "runtime.launch");
            kdr::rt::TaskLaunch t;
            t.name = "launch_probe";
            t.color = c;
            t.cost = {0.0, 8.0 * static_cast<double>(part.piece(c).volume())};
            t.requirements = {{r, f, kdr::rt::Privilege::ReadWrite, part.piece(c)}};
            rt.launch(std::move(t));
        }
        per_launch.push_back(seconds_since(t0) / static_cast<double>(pieces) * 1e6);
    }
    return median(per_launch);
}

/// Median host microseconds of the planner ops a CG step is made of, each
/// timed alone inside a begin_trace/end_trace instance on the workload's own
/// planner. The first two instances record and capture the trace; only the
/// later (replayed) instances are timed.
inline void probe_planner_ops(kdr::core::Planner<double>& planner, Tracer& tracer,
                              Result& out, int instances = 12) {
    using P = kdr::core::Planner<double>;
    kdr::rt::Runtime& rt = planner.runtime();
    const kdr::core::VecId p = planner.allocate_workspace_vector();
    const kdr::core::VecId q = planner.allocate_workspace_vector();
    const kdr::core::VecId r = planner.allocate_workspace_vector();
    planner.copy(p, P::RHS);
    planner.copy(r, P::RHS);
    const kdr::core::Scalar alpha = kdr::core::make_scalar(1e-9);
    std::vector<double> t_matmul, t_dot, t_axpy_dot, t_xpay_norm2;
    const auto timed = [](std::vector<double>& sink, bool keep, auto&& op) {
        const Clock::time_point t0 = Clock::now();
        op();
        if (keep) sink.push_back(seconds_since(t0) * 1e6);
    };
    constexpr std::uint64_t kTraceId = 0x6b6472; // application-chosen id below 2^32
    for (int i = 0; i < instances; ++i) {
        const bool keep = i >= 2;
        rt.begin_trace(kTraceId);
        timed(t_matmul, keep, [&] {
            KBENCH_SPAN(tracer, "core.planner.matmul");
            planner.matmul(q, p);
        });
        timed(t_dot, keep, [&] {
            KBENCH_SPAN(tracer, "core.planner.dot");
            (void)planner.dot(p, q);
        });
        timed(t_axpy_dot, keep, [&] {
            KBENCH_SPAN(tracer, "core.planner.axpy_dot");
            (void)planner.axpy_dot(r, alpha, q, r);
        });
        timed(t_xpay_norm2, keep, [&] {
            KBENCH_SPAN(tracer, "core.planner.xpay_norm2");
            (void)planner.xpay_norm2(p, alpha, r);
        });
        rt.end_trace();
    }
    const std::string note = "median of " + std::to_string(instances - 2) +
                             " replayed trace instances";
    out.set("core.planner.matmul_us", median(t_matmul), "us", note);
    out.set("core.planner.dot_us", median(t_dot), "us", note);
    out.set("core.planner.axpy_dot_us", median(t_axpy_dot), "us", note);
    out.set("core.planner.xpay_norm2_us", median(t_xpay_norm2), "us", note);
}

} // namespace kbench
