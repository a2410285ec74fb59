package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"

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

// GovernorFamilyRow is one database of a dataset family under the default
// governor schedule.
type GovernorFamilyRow struct {
	Family   string
	Seed     int64
	Inserts  int
	Disabled bool
	// LowestWindowRatio is the lowest ratio of a window the governor judged.
	LowestWindowRatio float64
}

// GovernorResult holds the experiment outcome.
type GovernorResult struct {
	Scale Scale
	// Window is the first governor window of the two-database run.
	Window int
	Rows   []GovernorRow
	// Families are the four dataset families at seeds 1–3 under the
	// default schedule, each long enough for three verdicts.
	Families []GovernorFamilyRow
}

// governorFamilyInserts is each family row's length: the default schedule
// judges a database after inserts 2 048, 6 144 and 14 336.
const governorFamilyInserts = 16384

// governorFamilyRecordBytes leaves a family's largest records out of its
// stream, as the benchmark's load generator does.
const governorFamilyRecordBytes = 16 << 10

// RunGovernor demonstrates §3.4.1: two databases share one node — a
// versioned-document database that dedups well and a database of
// incompressible blobs that cannot. After its first window the governor
// must disable dedup for (only) the latter and free its index partition,
// while the former keeps full dedup service. The family rows show that no
// dataset family comes near the threshold under the default schedule.
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
	if res.Families, err = runGovernorFamilies(); err != nil {
		return nil, err
	}
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

// runGovernorFamilies runs every family at seeds 1–3, one row per core at a
// time: the rows are independent and each is a single-threaded encode loop.
func runGovernorFamilies() ([]GovernorFamilyRow, error) {
	rows := make([]GovernorFamilyRow, 3*len(workload.Kinds))
	errs := make([]error, len(rows))
	cores := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range rows {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cores <- struct{}{}
			defer func() { <-cores }()
			kind, seed := workload.Kinds[i%len(workload.Kinds)], int64(1+i/len(workload.Kinds))
			rows[i], errs[i] = runGovernorFamily(kind, seed)
		}(i)
	}
	wg.Wait()
	return rows, errors.Join(errs...)
}

// runGovernorFamily feeds one family's insert stream through an engine in the
// daemon's configuration with the default governor schedule.
func runGovernorFamily(kind workload.Kind, seed int64) (GovernorFamilyRow, error) {
	contents := make(mapFetcher)
	e := core.NewEngine(core.Config{}, contents)
	defer e.Close()
	tr := workload.New(workload.Config{Kind: kind, Seed: seed, InsertBytes: 1 << 50})
	for id := uint64(1); id <= governorFamilyInserts; {
		op, ok := tr.Next()
		if !ok {
			return GovernorFamilyRow{}, fmt.Errorf("governor: %v trace ended", kind)
		}
		if op.Kind != workload.OpInsert || len(op.Payload) > governorFamilyRecordBytes {
			continue
		}
		contents[id] = op.Payload
		if _, err := e.Encode(op.DB, id, op.Payload); err != nil {
			return GovernorFamilyRow{}, err
		}
		id++
	}
	ds := e.DBStats()[0]
	return GovernorFamilyRow{Family: kind.String(), Seed: seed, Inserts: governorFamilyInserts,
		Disabled: ds.Disabled, LowestWindowRatio: ds.LowestWindowRatio}, nil
}

// mapFetcher serves an engine's source misses from every payload it was given.
type mapFetcher map[uint64][]byte

func (m mapFetcher) FetchDecoded(id uint64) ([]byte, error) {
	if c, ok := m[id]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("governor: no record %d", id)
}

// String renders the outcome.
func (r *GovernorResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Dedup governor (§3.4.1) — a %d-insert first window, each later one twice as long\n\n", r.Window)
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
	fmt.Fprintf(&sb, "\nDataset families under the default schedule (%d-insert first window, doubling)\n\n", core.DefaultGovernorWindow)
	rows = rows[:0]
	for _, f := range r.Families {
		verdict := "dedup active"
		if f.Disabled {
			verdict = "dedup disabled"
		}
		rows = append(rows, []string{f.Family, fmt.Sprint(f.Seed), fmt.Sprint(f.Inserts),
			verdict, fmt.Sprintf("%.2fx", f.LowestWindowRatio)})
	}
	sb.WriteString(table([]string{"family", "seed", "inserts", "governor verdict", "lowest window ratio"}, rows))
	return sb.String()
}
