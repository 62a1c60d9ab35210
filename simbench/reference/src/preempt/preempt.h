/**
 * @file
 * Preemption + checkpoint/restore policy and state.
 *
 * PR 6 made failures first-class but recovery stayed coarse: only
 * *queued* work could move between replicas, so the autoscaler had to
 * wait out the longest running batch and a crash forfeited in-flight
 * compute. This subsystem makes a running batch a first-class, *costed*
 * save/restore object (sesc's checkpoint-stream idiom):
 *
 *  - PreemptionConfig — the policy knobs. Engine-level: deadline-rescue
 *    preemption of a running lower-class batch when an Interactive
 *    arrival's EDF deadline is at risk, with anti-thrash hysteresis
 *    (min-run quantum, max preemptions per group). Cluster-level:
 *    live migration of checkpointed in-flight groups between capable
 *    replicas (quiesce without draining, crash recovery that resumes
 *    from the last checkpoint, in-flight stealing).
 *  - CheckpointImage — one paused group: its expert, the un-completed
 *    requests, the execution time still owed, and the state size the
 *    CheckpointModel priced.
 *
 * Everything is integer virtual-time arithmetic; with the feature off
 * (the default) no code path changes and every digest stays
 * byte-identical to PR 6.
 */

#ifndef COSERVE_PREEMPT_PREEMPT_H
#define COSERVE_PREEMPT_PREEMPT_H

#include <cstdint>
#include <vector>

#include "hw/device.h"
#include "model/expert.h"
#include "util/time.h"
#include "workload/request.h"

namespace coserve {

/**
 * Preemption / checkpoint / migration policy. Lives in
 * ClusterConfig::preemption (validated by ClusterConfig::validate and
 * copied into every replica's EngineConfig) and in EngineConfig for
 * single-engine runs.
 */
struct PreemptionConfig
{
    /**
     * Master switch for deadline-rescue preemption: an Interactive
     * arrival whose predicted completion misses its deadline may pause
     * a running lower-class batch at its next step boundary,
     * checkpoint it, run in the freed slot, and restore the group
     * afterwards. Off by default — legacy runs are byte-identical.
     */
    bool enabled = false;

    /**
     * Anti-thrash hysteresis: a batch must have run at least this long
     * by the time the pause takes effect, so back-to-back Interactive
     * arrivals cannot starve a Batch group with checkpoint churn.
     */
    Time minRunQuantum = milliseconds(40);

    /**
     * Anti-thrash hysteresis: a group already preempted this many
     * times finishes undisturbed.
     */
    int maxPreemptionsPerGroup = 2;

    /**
     * Cluster-level: move *checkpointed in-flight* groups between
     * capable replicas (checkpoint + transfer bytes + restore) in the
     * steal path, on autoscaler quiesce, and on crash evacuation.
     * Requires enabled.
     */
    bool migration = false;

    /**
     * Migration break-even guard: an in-flight group with less than
     * this much execution time remaining finishes where it runs — the
     * checkpoint + transfer + restore would cost more than it saves.
     */
    Time migrationMinRemaining = milliseconds(100);
};

/**
 * One checkpointed (paused) in-flight group: everything needed to
 * resume the batch on this executor or a capable sibling replica. The
 * group's compute progress is carried as *time still owed* — the batch
 * completes after exactly `remaining` more execution once restored, so
 * no compute is forfeited and no partial per-request completions need
 * accounting.
 */
struct CheckpointImage
{
    /** Expert the batch executes (restore reloads it when evicted). */
    ExpertId expert = kNoExpert;
    /** Processor kind the batch ran on (restore matches it). */
    ProcKind kind = ProcKind::GPU;
    /** The un-completed requests of the group. */
    std::vector<Request> requests;
    /** Execution time still owed when resumed. */
    Time remaining = 0;
    /** Full (unpaused) batch latency; per-request execution metric. */
    Time fullLatency = 0;
    /** Checkpoint state size (CheckpointModel::stateBytes). */
    std::int64_t bytes = 0;
    /** Times this group has been preempted (hysteresis counter). */
    int preemptions = 0;
};

/**
 * One engine-local preemption decision, buffered by the ServingEngine
 * during online runs and drained by the cluster coordinator into its
 * DecisionTrace (replay/decision_log.h) — replica-local pauses and
 * restores are part of the replayable schedule too. Single-engine runs
 * keep counters only and never buffer these.
 */
struct PreemptEvent
{
    Time time = 0;
    enum class What : std::uint8_t
    {
        /** Deadline-rescue pause: group checkpointed, parked locally. */
        Preempt,
        /** Group checkpointed into the migration outbox. */
        Checkpoint,
        /** A checkpointed group resumed execution. */
        Restore,
    } what = What::Preempt;
    /** Executor index within the replica. */
    int executor = 0;
    /** Requests in the affected group. */
    std::uint64_t count = 0;
};

} // namespace coserve

#endif // COSERVE_PREEMPT_PREEMPT_H
