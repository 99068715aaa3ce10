#pragma once

/// \file probe_solver.hpp
/// A pass-through solver that records, for every step() of the wrapped
/// solver, its host duration, the virtual clock after the step and (in a
/// traced run) a `core.step` span. It changes nothing about what the solver
/// does. The host durations feed the end-to-end solve time, the virtual
/// readings the steady-window time per iteration.

#include <vector>

#include "bench.hpp"
#include "core/solvers.hpp"

namespace kbench {

class ProbeSolver final : public kdr::core::Solver<double> {
public:
    ProbeSolver(kdr::core::Solver<double>& inner, kdr::rt::Runtime& rt, Tracer& tracer)
        : inner_(inner), rt_(rt), tracer_(tracer) {}

    void step() override {
        const Clock::time_point t0 = Clock::now();
        {
            KBENCH_SPAN(tracer_, "core.step");
            inner_.step();
        }
        host_step_s_.push_back(seconds_since(t0));
        virtual_after_step_.push_back(rt_.current_time());
    }
    void finalize() override { inner_.finalize(); }
    [[nodiscard]] kdr::core::Scalar get_convergence_measure() const override {
        return inner_.get_convergence_measure();
    }
    [[nodiscard]] kdr::core::SolveStatus status() const noexcept override {
        return inner_.status();
    }
    [[nodiscard]] const char* name() const override { return inner_.name(); }
    [[nodiscard]] int iterations_per_step() const noexcept override {
        return inner_.iterations_per_step();
    }

    [[nodiscard]] std::size_t steps() const noexcept { return virtual_after_step_.size(); }
    [[nodiscard]] const std::vector<double>& host_step_seconds() const noexcept {
        return host_step_s_;
    }

    /// Virtual microseconds per iteration from the end of step `warmup` to
    /// the last step: the trace record and capture instances fall before the
    /// window, so it covers the steady (replayed) regime only.
    [[nodiscard]] double virtual_us_per_it(std::size_t warmup) const {
        const std::size_t n = virtual_after_step_.size();
        if (n <= warmup + 1) return 0.0;
        const double its = static_cast<double>((n - 1 - warmup) * static_cast<std::size_t>(
                                                                     iterations_per_step()));
        return (virtual_after_step_[n - 1] - virtual_after_step_[warmup]) / its * 1e6;
    }

private:
    kdr::core::Solver<double>& inner_;
    kdr::rt::Runtime& rt_;
    Tracer& tracer_;
    std::vector<double> host_step_s_;
    std::vector<double> virtual_after_step_;
};

} // namespace kbench
