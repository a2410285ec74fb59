package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"dbdedup/internal/core"
	"dbdedup/internal/workload"
)

// GovernorRow describes one database's fate under the dedup governor.
type GovernorRow struct {
	Database string
	// Dedupable describes the injected workload.
	Dedupable bool
	// Disabled is the governor's verdict after the run.
	Disabled bool
	// IndexMemoryBytes after the run (0 once a partition is freed).
	IndexMemoryBytes int64
	// Inserts processed.
	Inserts uint64
}

// GovernorResult holds the experiment outcome.
type GovernorResult struct {
	Scale Scale
	// Window is the governor observation window used.
	Window int
	Rows   []GovernorRow
}

// RunGovernor demonstrates §3.4.1: two databases share one node — a
// versioned-document database that dedups well and a database of
// incompressible blobs that cannot. After the observation window the
// governor must disable dedup for (only) the latter and free its index
// partition, while the former keeps full dedup service.
func RunGovernor(sc Scale) (*GovernorResult, error) {
	const window = 300
	n, err := nodeForConfig(core.Config{
		GovernorWindow: window,
	}, false, false)
	if err != nil {
		return nil, err
	}
	defer n.Close()

	// Interleave the two databases like a shared cluster would see.
	tr := workload.New(workload.Config{Kind: workload.Wikipedia, Seed: sc.Seed, InsertBytes: sc.InsertBytes})
	rng := rand.New(rand.NewSource(sc.Seed ^ 0x6e6f697365))
	blobCount := 0
	var wikiInserts uint64
	for {
		op, ok := tr.Next()
		if !ok {
			break
		}
		if op.Kind != workload.OpInsert {
			continue
		}
		if err := n.Insert(op.DB, op.Key, op.Payload); err != nil {
			return nil, err
		}
		wikiInserts++
		// Several incompressible blobs per wiki insert so the blob
		// database crosses the governor window at experiment scale.
		for b := 0; b < 3; b++ {
			blob := make([]byte, 512+rng.Intn(2048))
			rng.Read(blob)
			if err := n.Insert("blobs", fmt.Sprintf("b%07d", blobCount), blob); err != nil {
				return nil, err
			}
			blobCount++
		}
		if blobCount%64 < 3 {
			n.FlushWritebacks(-1)
		}
	}
	n.FlushWritebacks(-1)

	res := &GovernorResult{Scale: sc, Window: window}
	for _, ds := range n.DBStats() {
		res.Rows = append(res.Rows, GovernorRow{
			Database:         ds.Name,
			Dedupable:        ds.Name != "blobs",
			Disabled:         ds.Disabled,
			IndexMemoryBytes: ds.IndexMemoryBytes,
			Inserts:          map[bool]uint64{true: wikiInserts, false: uint64(blobCount)}[ds.Name != "blobs"],
		})
	}
	return res, nil
}

// String renders the outcome.
func (r *GovernorResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Dedup governor (§3.4.1) — verdicts after a %d-insert window\n\n", r.Window)
	var rows [][]string
	for _, row := range r.Rows {
		verdict := "dedup active"
		if row.Disabled {
			verdict = "dedup disabled, index partition freed"
		}
		kind := "versioned documents"
		if !row.Dedupable {
			kind = "incompressible blobs"
		}
		rows = append(rows, []string{
			row.Database, kind, fmt.Sprintf("%d", row.Inserts),
			verdict, fmtBytes(row.IndexMemoryBytes),
		})
	}
	sb.WriteString(table([]string{"database", "content", "inserts", "governor verdict", "index memory"}, rows))
	return sb.String()
}
