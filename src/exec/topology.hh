/**
 * @file
 * NUMA topology probe and deterministic worker-placement policy for
 * the exec runtime.
 *
 * On multi-socket hosts the sharded sweeps and the batched pipeline
 * hit a throughput cliff when BEM row blocks and trace batches
 * migrate across memory nodes. This header provides the three
 * ingredients that keep data local without touching the determinism
 * contract:
 *
 *  - *A portable probe.* Topology::system() parses
 *    /sys/devices/system/node on Linux (nodes, cpus per node) and
 *    degrades to a single synthetic node everywhere else — or when
 *    the sysfs tree is absent, unreadable, or degenerate. Memory-only
 *    nodes (no cpus) are skipped, so every reported node has a
 *    non-empty cpu set.
 *  - *A placement policy.* PinPolicy selects how pool workers map to
 *    cpus: None (no pinning — the default, and the only behaviour
 *    before this layer existed), Compact (fill node 0's cpus before
 *    spilling to node 1 — minimizes cross-node traffic for pools
 *    smaller than a socket), Scatter (round-robin across nodes —
 *    maximizes aggregate memory bandwidth). The policy is selected
 *    with the NANOBUS_PINNING environment variable.
 *  - *A portability shim.* pinThreadToCpu() wraps
 *    pthread_setaffinity_np behind a feature test; on platforms
 *    without it every policy degrades to None without error.
 *
 * Determinism: pinning changes *where* a task runs, never *what* it
 * computes or in which order results combine. Chunk boundaries and
 * ordered combination stay a pure function of (n, grain)
 * (exec/parallel.hh); the worker→cpu map itself is a pure function
 * of (topology, policy, slot, pool size), so placement is
 * reproducible run over run on the same host.
 */

#ifndef NANOBUS_EXEC_TOPOLOGY_HH
#define NANOBUS_EXEC_TOPOLOGY_HH

#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace nanobus {
namespace exec {

/** Worker-placement policy for ThreadPool. */
enum class PinPolicy {
    /** No affinity calls at all (historical behaviour). */
    None,
    /** Fill node 0's cpus first, then node 1's, ... */
    Compact,
    /** Round-robin workers across nodes. */
    Scatter,
};

/** Policy name: "none", "compact", or "scatter". */
const char *pinPolicyName(PinPolicy policy);

/** Parse a policy name; nullopt when unrecognized. */
std::optional<PinPolicy> parsePinPolicy(const std::string &name);

/**
 * Policy selected by the NANOBUS_PINNING environment variable
 * ("none" / "compact" / "scatter"); None when unset. An unrecognized
 * value warns once and selects None — mirroring how NANOBUS_THREADS
 * treats garbage.
 */
PinPolicy pinPolicyFromEnv();

/** One NUMA node with at least one cpu. */
struct NumaNode
{
    /** Kernel node id (not necessarily dense). */
    unsigned id = 0;
    /** Online cpus of this node, ascending. Never empty. */
    std::vector<unsigned> cpus;
};

/**
 * The host's cpu/node layout. Immutable once built; nodes are sorted
 * by id and every node has a non-empty cpu set (memory-only nodes
 * are dropped by the probe).
 */
class Topology
{
  public:
    /** Synthetic single-node topology with cpus 0..cpus-1 (at least
     *  one). The non-Linux and probe-failure fallback. */
    static Topology singleNode(unsigned cpus);

    /** Build from explicit per-node cpu lists (tests, simulations of
     *  multi-socket hosts). Empty lists are dropped; an all-empty
     *  input degrades to singleNode(hardware_concurrency). */
    static Topology
    fromNodeCpuLists(const std::vector<std::vector<unsigned>> &lists);

    /** Probe the host: /sys/devices/system/node on Linux, a single
     *  synthetic node elsewhere or on any parse failure. */
    static Topology probe();

    /** Cached probe() of this host (probed once, thread-safe). */
    static const Topology &system();

    const std::vector<NumaNode> &nodes() const { return nodes_; }
    size_t nodeCount() const { return nodes_.size(); }
    bool multiNode() const { return nodes_.size() > 1; }

    /** Total cpus across all nodes (>= 1). */
    size_t totalCpus() const;

    /**
     * The cpu that pool slot `slot` of a pool of `pool_size` total
     * threads should pin to under `policy`, or nullopt for None.
     * Slot 0 is the participating caller and is never pinned (the
     * application owns that thread's affinity), so ThreadPool passes
     * slot = worker index + 1. Pure function of its arguments:
     *
     *  - Compact walks the node-major cpu list (node 0's cpus, then
     *    node 1's, ...), wrapping when the pool outgrows the host.
     *  - Scatter assigns slot s to node (s % nodeCount) and takes
     *    that node's (s / nodeCount)-th cpu, wrapping per node.
     */
    std::optional<unsigned> cpuForSlot(PinPolicy policy, unsigned slot,
                                       unsigned pool_size) const;

    /** Index into nodes() of the node owning `cpu`; nullopt when
     *  the cpu is not in the map. An index, not a kernel id: node
     *  ids need not be dense, indices are. */
    std::optional<unsigned> nodeOfCpu(unsigned cpu) const;

  private:
    std::vector<NumaNode> nodes_;
};

/**
 * Parse a kernel cpulist string ("0-3,8,10-11") into an ascending
 * cpu vector. Whitespace and a trailing newline are tolerated;
 * malformed input yields an empty vector (never a partial parse).
 */
std::vector<unsigned> parseCpuList(const std::string &list);

/** True when this build can pin threads at all (Linux + pthreads). */
bool affinityPinningSupported();

/**
 * Pin `handle` to exactly `cpu`. Returns false when unsupported on
 * this platform or when the kernel refuses (offline cpu, cgroup
 * cpuset restriction, unprivileged sandbox) — callers degrade to
 * unpinned execution, they do not fail.
 *
 * This wrapper is the single sanctioned affinity call site:
 * tools/nbcheck's `raw-affinity` rule keeps pthread_setaffinity_np and
 * sched_setaffinity out of every directory but src/exec/.
 */
bool pinThreadToCpu(std::thread::native_handle_type handle,
                    unsigned cpu);

} // namespace exec
} // namespace nanobus

#endif // NANOBUS_EXEC_TOPOLOGY_HH
