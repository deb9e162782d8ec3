/**
 * @file
 * Simulation instantiation of the supervised execution layer.
 *
 * exec/supervisor.hh is generic over the report payload so the
 * execution runtime never includes simulation headers
 * (docs/STATIC_ANALYSIS.md, layering DAG). This header sits above
 * both layers and binds them together:
 *
 *  - the `exec::Supervisor` aliases, instantiated with SweepReport;
 *  - supervisedTraceSweepJob, the job builder that wraps one robust
 *    trace sweep as a shard;
 *  - thermalFaultProbe(), the report-rejection hook that restores
 *    the old `fault_on_thermal` behaviour: a contained ThermalFault
 *    inside an otherwise-successful report fails the shard with
 *    ErrorCode::ThermalRunaway.
 */

#ifndef NANOBUS_SIM_SWEEP_HH
#define NANOBUS_SIM_SWEEP_HH

#include <string>

#include "exec/supervisor.hh"
#include "sim/experiment.hh"

namespace nanobus {

namespace exec {

/** The simulation sweep vocabulary, bound to SweepReport. */
using SupervisedJob = BasicSupervisedJob<SweepReport>;
using SupervisedReport = BasicSupervisedReport<SweepReport>;
using Supervisor = BasicSupervisor<SweepReport>;

} // namespace exec

/**
 * Report-rejection probe that fails a shard whose report contains a
 * ThermalFault (ErrorCode::ThermalRunaway, first fault's message).
 * Install into Supervisor::Options::fault_probe to treat
 * contained thermal anomalies as shard failures rather than degraded
 * fidelity.
 */
exec::ReportFaultProbe<SweepReport> thermalFaultProbe();

/**
 * Supervised shard builder: one tryRobustTraceSweep cell, pulsing
 * around the sweep. Per-attempt isolation comes free — the body
 * constructs its reader and simulators from scratch on every
 * attempt. The sweep's own nested parallelism degrades to serial by
 * policy; whether a contained ThermalFault fails the shard is the
 * supervisor's Options::fault_probe decision.
 */
exec::SupervisedJob supervisedTraceSweepJob(
    std::string label, std::string trace_path,
    const TechnologyNode &tech, BusSimConfig config,
    RobustSweepOptions sweep_options = RobustSweepOptions());

} // namespace nanobus

#endif // NANOBUS_SIM_SWEEP_HH
