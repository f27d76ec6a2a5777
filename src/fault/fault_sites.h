#ifndef CLOUDVIEWS_FAULT_FAULT_SITES_H_
#define CLOUDVIEWS_FAULT_FAULT_SITES_H_

namespace cloudviews {
namespace fault {
namespace sites {

// Central registry of every fault-injection site threaded through the
// engine. A site names one place where production infrastructure can fail:
// the spool's write path, the seal handshake, container preemption, view
// storage reads, cluster nodes, and repository I/O.
//
// Rules (enforced by tools/lint.py, rule `fault-site`):
//   - every fault::Inject(...) call site must name one of these constants
//     (never a string literal), so the set below is the complete failure
//     surface of the engine;
//   - each constant is injected at exactly one call site (a duplicate means
//     copy-paste drift; an uninjected constant is a dead site).
//
// Naming follows the metrics convention: `subsystem.object.event`.

// A spool fails while appending a row to its side table (disk-full /
// write-error mid-materialization). The spool aborts cleanly: partial
// output is dropped, the signature is never sealed, rows keep flowing.
inline constexpr char kSpoolWrite[] = "exec.spool.write";

// The seal handshake itself fails after a fully written spool (the job
// manager cannot publish the view). The materializing entry is withdrawn
// and the creation lock released.
inline constexpr char kSpoolSeal[] = "exec.spool.seal";

// Reading a materialized view returns corrupt bytes (bit rot / truncated
// file). Validation quarantines the view and the reader falls back to the
// base-scan plan.
inline constexpr char kViewRead[] = "storage.view.read";

// A cluster node dies before the job's containers start; the simulator
// retries placement with exponential backoff and charges re-executed work.
inline constexpr char kNodeFail[] = "cluster.node.fail";

// A straggler node stretches the job's critical path without failing it.
inline constexpr char kNodeStraggler[] = "cluster.node.straggler";

// Workload-repository snapshot reads fail transiently (remote store
// timeout); bounded retries before surfacing the error.
inline constexpr char kRepoRead[] = "core.repository.read";

// Workload-repository snapshot writes fail transiently.
inline constexpr char kRepoWrite[] = "core.repository.write";

// A shared-subexpression producer pipeline dies mid-stream (container
// eviction of the elected producer). The stream is aborted; every
// subscriber detaches and re-executes its fallback plan independently.
inline constexpr char kSharingProducerAbort[] = "sharing.producer_abort";

// A subscriber times out waiting for the producer's next batch (producer
// stalled or descheduled). The subscriber detaches and re-executes its
// fallback plan, skipping rows already consumed from the stream.
inline constexpr char kSharingSubscriberTimeout[] = "sharing.subscriber_timeout";

}  // namespace sites

// Every registered site, for tooling (lint cross-checks this list against
// the constants above and the Inject call sites) and for programmatic
// sweeps over the whole failure surface.
inline constexpr const char* kAllSites[] = {
    sites::kSpoolWrite,    sites::kSpoolSeal,     sites::kViewRead,
    sites::kNodeFail,      sites::kNodeStraggler, sites::kRepoRead,
    sites::kRepoWrite,     sites::kSharingProducerAbort,
    sites::kSharingSubscriberTimeout,
};

}  // namespace fault
}  // namespace cloudviews

#endif  // CLOUDVIEWS_FAULT_FAULT_SITES_H_
