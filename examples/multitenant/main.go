// Multitenant: one node hosting several databases with very different
// dedup characteristics — the scenario the paper's dedup governor (§3.4.1)
// and size filter (§3.4.2) exist for. A wiki-style database dedups
// superbly; a metrics database of random binary blobs cannot dedup at all.
// The governor notices, switches dedup off for the blobs (freeing their
// index partition), and the wiki keeps full service. The example also runs
// the online integrity scrub.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"dbdedup"
)

func main() {
	store, err := dbdedup.Open(dbdedup.Options{
		SyncEncode:  true,
		ManualFlush: true,
		// Small observation window so the demo decides quickly; the
		// production default is a first window of 2048 inserts.
		GovernorWindow: 400,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	rng := rand.New(rand.NewSource(1))

	// Tenant 1: versioned articles (high redundancy).
	article := makeArticle(rng)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("a1/rev/%04d", i)
		if err := store.Insert("wiki", key, article); err != nil {
			log.Fatal(err)
		}
		article = reviseArticle(rng, article)

		// Tenant 2: opaque sensor snapshots (no redundancy).
		blob := make([]byte, 1024+rng.Intn(1024))
		rng.Read(blob)
		if err := store.Insert("metrics", fmt.Sprintf("snap/%06d", i), blob); err != nil {
			log.Fatal(err)
		}
		if store.PendingWritebacks() > 128 {
			store.FlushWritebacks(-1)
		}
	}
	store.FlushWritebacks(-1)

	fmt.Println("per-database dedup state:")
	for _, d := range store.DBStats() {
		verdict := "active"
		if d.GovernorDisabled {
			verdict = "DISABLED by governor (index freed)"
		}
		fmt.Printf("  %-8s dedup %-34s window ratio %.2fx, index %d B, chains %d\n",
			d.Name, verdict, d.WindowRatio, d.IndexMemoryBytes, d.Chains)
	}

	st := store.Stats()
	fmt.Printf("\noverall: %.1f MiB raw -> %.1f MiB stored (%.1fx)\n",
		float64(st.RawBytes)/(1<<20), float64(st.StoredBytes)/(1<<20),
		st.StorageCompressionRatio())

	rep := store.Verify()
	fmt.Println("\nintegrity scrub:", rep)
}

func makeArticle(rng *rand.Rand) []byte {
	var out []byte
	for i := 0; i < 120; i++ {
		out = append(out, fmt.Sprintf("Section %d covers measurement %d and its caveats. ", i, rng.Intn(10000))...)
	}
	return out
}

func reviseArticle(rng *rand.Rand, a []byte) []byte {
	out := append([]byte(nil), a...)
	pos := rng.Intn(len(out) - 60)
	copy(out[pos:], fmt.Sprintf("Revised finding %d noted here.", rng.Intn(1000)))
	return append(out, fmt.Sprintf("Addendum %d. ", rng.Intn(1000))...)
}
