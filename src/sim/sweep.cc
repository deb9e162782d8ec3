#include "sim/sweep.hh"

#include <optional>
#include <utility>

namespace nanobus {

exec::ReportFaultProbe<SweepReport>
thermalFaultProbe()
{
    return [](const SweepReport &report) -> std::optional<Error> {
        if (report.instruction_faults.empty() &&
            report.data_faults.empty())
            return std::nullopt;
        const ThermalFault &fault = report.instruction_faults.empty()
                                        ? report.data_faults.front()
                                        : report.instruction_faults
                                              .front();
        return Error{ErrorCode::ThermalRunaway,
                     fault.message.empty()
                         ? std::string(
                               thermalFaultKindName(fault.kind))
                         : fault.message};
    };
}

exec::SupervisedJob
supervisedTraceSweepJob(std::string label, std::string trace_path,
                        const TechnologyNode &tech,
                        BusSimConfig config,
                        RobustSweepOptions sweep_options)
{
    return exec::SupervisedJob{
        std::move(label),
        [trace_path = std::move(trace_path), &tech, config,
         sweep_options = std::move(sweep_options)](
            exec::JobContext &context) -> Result<SweepReport> {
            if (!context.pulse()) {
                return Result<SweepReport>::failure(
                    ErrorCode::BudgetExhausted,
                    "attempt aborted before the shard body ran");
            }
            // Every attempt builds its reader and simulators from
            // scratch inside the sweep, so a retry starts pristine.
            Result<SweepReport> result = tryRobustTraceSweep(
                trace_path, tech, config, nullptr, sweep_options);
            (void)context.pulse();
            return result;
        }};
}

} // namespace nanobus
