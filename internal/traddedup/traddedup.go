// Package traddedup implements the traditional chunk-based exact
// deduplication baseline ("trad-dedup" in the paper's experiments).
//
// Records are split into content-defined chunks (Rabin fingerprinting); each
// chunk is identified by its SHA-1 digest; a global index maps every unique
// digest to its stored chunk. An incoming chunk whose digest is already
// indexed is replaced by a reference. Correctness depends on the
// collision-resistance of the digest, which is why the index must store full
// 20-byte hashes — the root of trad-dedup's memory problem at small chunk
// sizes (Figs. 1, 10): entries cost 24 bytes (20-byte digest + 4-byte
// pointer) and there is one per unique chunk, so halving the chunk size
// roughly doubles index memory.
package traddedup

import (
	"crypto/sha1"
	"errors"

	"dbdedup/internal/chunker"
)

// IndexEntryBytes is the design size of one index entry: a 20-byte SHA-1
// digest plus a 4-byte chunk pointer.
const IndexEntryBytes = sha1.Size + 4

// RefBytes is the per-chunk reference cost charged to a record's recipe
// (a pointer into the chunk store).
const RefBytes = 4

// Config controls chunking.
type Config struct {
	// ChunkAvgSize is the target average chunk size (power of two).
	// The paper evaluates 4 KiB (the conventional choice) and 64 B.
	// Chunks are bounded by the chunker's defaults, avg/4 and avg*4.
	ChunkAvgSize int
}

// ChunkID identifies a stored unique chunk.
type ChunkID uint32

// Recipe lists the chunks that reassemble one record.
type Recipe []ChunkID

// Stats is the deduplicator's accounting.
type Stats struct {
	// IngestedBytes is the total raw bytes presented to Ingest.
	IngestedBytes int64
	// StoredBytes is unique chunk bytes plus recipe references — the
	// post-dedup footprint.
	StoredBytes int64
	// IndexMemoryBytes is unique chunks times IndexEntryBytes.
	IndexMemoryBytes int64
	// TotalChunks / DupChunks count chunk-level outcomes.
	TotalChunks, DupChunks int64
}

// Deduper is a chunk-based exact deduplicator. Not safe for concurrent use.
type Deduper struct {
	chunker chunker.Chunker
	scratch []chunker.Chunk // reused across Ingest calls
	index   map[[sha1.Size]byte]ChunkID
	chunks  [][]byte // ChunkID -> bytes
	stats   Stats
}

// New returns a Deduper with the given chunking configuration.
func New(cfg Config) *Deduper {
	if cfg.ChunkAvgSize == 0 {
		cfg.ChunkAvgSize = 4096
	}
	return &Deduper{
		// The baseline is the paper's: Rabin chunking, whatever the
		// service itself chunks with.
		chunker: chunker.New(chunker.Config{
			Algorithm: chunker.Rabin,
			AvgSize:   cfg.ChunkAvgSize,
		}),
		index: make(map[[sha1.Size]byte]ChunkID),
	}
}

// Ingest deduplicates one record, storing its unique chunks and returning
// the recipe that reassembles it.
func (d *Deduper) Ingest(record []byte) Recipe {
	d.stats.IngestedBytes += int64(len(record))
	var recipe Recipe
	d.scratch = d.chunker.Chunks(record, d.scratch[:0])
	for _, c := range d.scratch {
		chunk := record[c.Offset : c.Offset+c.Length]
		d.stats.TotalChunks++
		sum := sha1.Sum(chunk)
		id, ok := d.index[sum]
		if !ok {
			id = ChunkID(len(d.chunks))
			d.chunks = append(d.chunks, append([]byte(nil), chunk...))
			d.index[sum] = id
			d.stats.StoredBytes += int64(len(chunk))
			d.stats.IndexMemoryBytes += IndexEntryBytes
		} else {
			d.stats.DupChunks++
		}
		d.stats.StoredBytes += RefBytes
		recipe = append(recipe, id)
	}
	return recipe
}

// Reassemble reconstructs a record from its recipe.
func (d *Deduper) Reassemble(r Recipe) ([]byte, error) {
	var out []byte
	for _, id := range r {
		if int(id) >= len(d.chunks) {
			return nil, errors.New("traddedup: recipe references unknown chunk")
		}
		out = append(out, d.chunks[id]...)
	}
	return out, nil
}

// Stats returns the accounting snapshot.
func (d *Deduper) Stats() Stats { return d.stats }

// CompressionRatio returns ingested/stored.
func (d *Deduper) CompressionRatio() float64 {
	if d.stats.StoredBytes == 0 {
		return 0
	}
	return float64(d.stats.IngestedBytes) / float64(d.stats.StoredBytes)
}
