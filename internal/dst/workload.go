package dst

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/durable"
	"repro/internal/guardian"
	"repro/internal/vtime"
)

// Node names shared by both workloads: one server node the schedule may
// crash, one client node that never crashes (so client sessions — the
// paper's "user" side — survive to observe outcomes).
const (
	serverNode  = "server"
	clientsNode = "clients"
)

// workload is one application under test. An instance is built per run
// and owns its ledgers; the run engine calls setup once, client
// concurrently per session, and check after the world quiesces.
type workload interface {
	// crashNodes are the nodes the schedule generator may crash.
	crashNodes() []string
	// allNodes are the partition-eligible nodes.
	allNodes() []string
	// killNodes are the nodes eligible for permanent kills (Profile.Kills)
	// and isolation windows (Profile.Isolations); empty for workloads that
	// cannot survive permanent node loss.
	killNodes() []string
	// setup registers definitions and bootstraps the server guardian.
	setup(w *guardian.World) error
	// client runs session i to completion, drawing every decision from
	// crng.
	client(i int, crng *rand.Rand)
	// check audits the final state; crashed tells it whether the schedule
	// contained crash events (some invariants are volatile-state-based and
	// only sound crash-free).
	check(w *guardian.World, rep *Report, crashed bool)
}

// storeWrapper is implemented by workloads that need to interpose on each
// node's durable store (the replica workload wraps member stores in a
// replica.Store). The run engine composes it under any storage-fault
// wrapper: sim disk → fault wrapper → workload wrapper.
type storeWrapper interface {
	wrapStore(node string, inner durable.Store) (durable.Store, error)
}

// pace spreads a client's operations across roughly three quarters of the
// profile horizon. Without it the whole workload drains in the first few
// hundred virtual milliseconds and the fault windows — placed between 10 %
// and 65 % of the horizon — fire into an idle network, testing nothing.
// The gap is drawn from the client's own stream, so it stays a
// deterministic function of the seed.
func pace(pr *guardian.Process, crng *rand.Rand, opts Options) {
	mean := opts.Profile.Horizon * 3 / 4 / time.Duration(opts.OpsPerClient+2)
	if mean <= 0 {
		return
	}
	pr.Pause(time.Duration(float64(mean) * (0.5 + crng.Float64())))
}

// waitUntil polls cond every 5ms of virtual time until it holds or limit
// has passed, and reports whether it held. Audits use it to give recovery,
// elections and handoffs time to finish before they look.
func waitUntil(clock vtime.Clock, limit time.Duration, cond func() bool) bool {
	for waited := time.Duration(0); waited < limit; waited += 5 * time.Millisecond {
		if cond() {
			return true
		}
		clock.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// branchArgs builds the bank branch bootstrap arguments implied by the
// run options: "raw" to disable dedup (the seeded bug), and a checkpoint
// interval when the run exercises checkpointing. Shared by every bank
// workload so the branch under test is configured identically whether it
// is bootstrapped directly, by a replica takeover, or per shard.
func branchArgs(opts Options) []any {
	var args []any
	if opts.Bug == BugDisableDedup {
		args = append(args, "raw")
	}
	if opts.CheckpointEvery > 0 {
		args = append(args, int64(opts.CheckpointEvery))
	}
	return args
}

func newWorkload(opts Options) (workload, error) {
	switch opts.Workload {
	case "bank":
		if opts.Ring != nil {
			if opts.Bug != "" {
				return nil, fmt.Errorf("dst: bug %q is single-node-only", opts.Bug)
			}
			if opts.ReplicationFaults || opts.Topology != nil {
				return nil, fmt.Errorf("dst: Ring is exclusive with Topology and ReplicationFaults")
			}
			return newRingWorkload(opts)
		}
		if opts.Topology != nil {
			if opts.Bug != "" {
				return nil, fmt.Errorf("dst: bug %q is single-node-only", opts.Bug)
			}
			if opts.ReplicationFaults {
				return nil, fmt.Errorf("dst: Topology and ReplicationFaults are exclusive (a topology replicates via ReplFactor)")
			}
			return newShardedWorkload(opts)
		}
		if opts.ReplicationFaults {
			if opts.Bug != "" {
				return nil, fmt.Errorf("dst: bug %q is single-node-only", opts.Bug)
			}
			return newBankReplicaWorkload(opts), nil
		}
		return newBankWorkload(opts), nil
	case "airline":
		if opts.Bug != "" {
			return nil, fmt.Errorf("dst: bug %q is bank-only", opts.Bug)
		}
		if opts.ReplicationFaults || opts.Topology != nil || opts.Ring != nil {
			return nil, fmt.Errorf("dst: replication faults, topologies, and rings are bank-only")
		}
		return newAirlineWorkload(opts), nil
	default:
		return nil, fmt.Errorf("dst: unknown workload %q", opts.Workload)
	}
}
