// Package simtest model-checks the replication stack under injected network
// faults. Each Schedule builds a primary and a secondary node joined only
// through an in-memory netsim.Sim, churns inserts/updates/deletes on the
// primary while the network misbehaves (partitions, reordering, duplication,
// corruption, mid-frame connection cuts), then heals the network and holds
// both nodes to the shared acked-write history (package histcheck, DESIGN.md
// §14): no lost, diverged or resurrected record on either
// node, an applied sequence number that never regresses, and a clean
// integrity scrub (VerifyAll) on both sides.
//
// Both the operation schedule and the network's fault rolls derive from one
// seed, so a failing seed re-runs the same schedule. (Goroutine interleaving
// still varies between runs; the seed pins *what* the schedule and network
// do, which in practice reproduces failures.)
package simtest

import (
	"fmt"
	"math/rand"
	"time"

	"dbdedup/internal/histcheck"
	"dbdedup/internal/netsim"
	"dbdedup/internal/node"
	"dbdedup/internal/repl"
)

// Classes are the fault classes a schedule can run under.
var Classes = []string{
	"partition", // full two-way outages while churn continues
	"oneway",    // half-open outages: one direction delivers, the other starves
	"reorder",   // frames overtake each other
	"duplicate", // frames delivered twice
	"corrupt",   // payload bytes flipped in flight
	"drop",      // frames silently lost mid-stream
	"cut",       // connections severed mid-frame
	"mixed",     // a little of everything at once
}

// Schedule is one seed-pinned fault-injection run.
type Schedule struct {
	Seed  int64
	Class string
	Ops   int // churn operations against the primary
}

// Result reports what a converged schedule observed, so callers can assert a
// class actually exercised its fault path.
type Result struct {
	Resyncs            uint64 // full snapshot transfers
	Reconnects         int64
	CorruptFrames      int64
	FrameSeqViolations int64
	IdleTimeouts       int64
	BaseFetches        uint64
	Keys               int // records live in the history at convergence
	AppliedSeq         uint64
	Counters           netsim.Counters
	TraceDigest        uint64 // histcheck.Churn.TraceDigest of the primary-side ops
}

// profileFor returns the randomized fault mix for a class; partition classes
// return nil (outages are driven by the op loop instead).
func profileFor(class string) *netsim.Profile {
	switch class {
	case "reorder":
		return &netsim.Profile{Reorder: 0.15, DelayMax: 2 * time.Millisecond}
	case "duplicate":
		return &netsim.Profile{Duplicate: 0.20}
	case "corrupt":
		return &netsim.Profile{Corrupt: 0.05}
	case "drop":
		return &netsim.Profile{Drop: 0.05}
	case "cut":
		return &netsim.Profile{Cut: 0.02}
	case "mixed":
		return &netsim.Profile{Drop: 0.02, Corrupt: 0.02, Duplicate: 0.05,
			Reorder: 0.05, Cut: 0.01, DelayMax: time.Millisecond}
	default:
		return nil
	}
}

// Run executes one schedule to convergence. A non-nil error is an invariant
// violation (or a setup failure); the message names the offending record.
func Run(sch Schedule) (Result, error) {
	var res Result
	sim := netsim.NewSim(sch.Seed)
	rng := rand.New(rand.NewSource(sch.Seed))

	// A small oplog window forces long outages to resync via snapshot.
	nopts := node.Options{SyncEncode: true, DisableAutoFlush: true, OplogCapacity: 64}
	nopts.Engine.GovernorWindow = 1 << 30
	prim, err := node.Open(nopts)
	if err != nil {
		return res, err
	}
	defer prim.Close()
	sec, err := node.Open(nopts)
	if err != nil {
		return res, err
	}
	defer sec.Close()

	p, err := repl.ListenAndServeWithOptions(prim, "primary", repl.PrimaryOptions{
		Network:           sim,
		HeartbeatInterval: 10 * time.Millisecond,
		WriteTimeout:      100 * time.Millisecond,
	})
	if err != nil {
		return res, err
	}
	defer p.Close()

	s, err := repl.ConnectWithOptions(sec, p.Addr(), 0, 0, repl.Options{
		ApplyWorkers:     2,
		ApplyQueue:       64,
		FetchTimeout:     250 * time.Millisecond,
		FetchRetries:     40,
		Network:          sim,
		MaxReconnects:    100000,
		ReconnectBackoff: 2 * time.Millisecond,
		MaxBackoff:       25 * time.Millisecond,
		DialTimeout:      250 * time.Millisecond,
		IdleTimeout:      75 * time.Millisecond,
	})
	if err != nil {
		return res, err
	}
	defer s.Close()

	// The applied low-water mark must never regress. (Within one primary
	// epoch even snapshot rebases only move it forward.)
	stopMon := histcheck.Watch("appliedSeq", []string{"the secondary"}, func(int) uint64 { return s.AppliedSeq() })
	defer stopMon()

	// Faults start only once the session is up: the run exercises recovery,
	// not initial-connection refusal.
	sim.SetProfile(profileFor(sch.Class))

	// Churn against the primary directly: no op can fail, so any error is
	// fatal and the op trace is a pure function of the seed.
	hist := histcheck.New(histcheck.FloorAtAck)
	churn := histcheck.NewChurn(hist, rng, []string{"alpha", "beta", "gamma"},
		histcheck.Mix{Insert: 0.55, Update: 0.80, Delete: 1, BaseSize: 1024},
		func(error) histcheck.Outcome { return histcheck.Fatal })
	primView := histcheck.NodeView{Node: prim}
	partitionLeft, windows := 0, 0
	for op := 0; op < sch.Ops; op++ {
		if sch.Class == "partition" || sch.Class == "oneway" {
			// Random outage windows, plus a guaranteed one a third of the
			// way in so every schedule exercises at least one.
			if partitionLeft == 0 && (rng.Intn(18) == 0 || (windows == 0 && op == sch.Ops/3)) {
				mode := netsim.PartitionBoth
				if sch.Class == "oneway" {
					// Alternate directions, starting with the one the
					// stack can detect (primary→secondary starves, so the
					// write timeout and idle timeout fire). A to-server
					// half-open outage is deliberately silent mid-stream:
					// the batch flow is one-directional, so it only bites
					// fetch traffic — worth running, not worth asserting
					// reconnects on.
					if windows%2 == 0 {
						mode = netsim.PartitionToClient
					} else {
						mode = netsim.PartitionToServer
					}
				}
				sim.SetPartition(mode)
				windows++
				partitionLeft = 30 + rng.Intn(40)
			}
			if partitionLeft > 0 {
				partitionLeft--
				if partitionLeft == 0 {
					sim.SetPartition(netsim.PartitionNone)
				}
				// Outages must span real time so the idle/write timeouts
				// actually trip while the primary keeps accepting writes.
				time.Sleep(2 * time.Millisecond)
			}
		}
		if err := churn.Step(primView); err != nil {
			return res, err
		}
		if rng.Intn(4) == 0 {
			time.Sleep(time.Duration(rng.Intn(400)) * time.Microsecond)
		}
	}

	// Heal and converge.
	sim.Heal()
	prim.Barrier()
	if err := s.WaitForSeq(prim.Oplog().LastSeq(), 30*time.Second); err != nil {
		return res, fmt.Errorf("convergence: %w", err)
	}
	if err := stopMon(); err != nil {
		return res, err
	}

	// State equality in both directions and the scrub, on both nodes.
	for i, n := range []*node.Node{prim, sec} {
		name := []string{"primary", "secondary"}[i]
		if err := histcheck.Err(name, hist.Check(histcheck.NodeView{Node: n})); err != nil {
			return res, err
		}
		if rep := n.VerifyAll(); !rep.Ok() {
			return res, fmt.Errorf("%s verify: %v", name, rep.Errors)
		}
	}
	res.Keys, _ = hist.Count()
	res.TraceDigest = churn.TraceDigest()

	res.Resyncs, _ = s.Resyncs()
	rm := s.Metrics()
	res.Reconnects = rm.Reconnects.Total()
	res.CorruptFrames = rm.CorruptFrames.Total()
	res.FrameSeqViolations = rm.FrameSeqViolations.Total()
	res.IdleTimeouts = rm.IdleTimeouts.Total()
	res.BaseFetches = s.BaseFetches()
	res.AppliedSeq = s.AppliedSeq()
	res.Counters = sim.Counters()
	return res, nil
}
