package faultfs

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
)

// ErrInjected marks an operation failed by a scripted fault. The store sees
// an ordinary I/O error; tests can errors.Is for it.
var ErrInjected = errors.New("faultfs: injected fault")

// ErrCrashed is returned by every state-mutating operation after a crash
// point fired: the simulated process is dead and nothing it does after the
// crash may reach disk. Reads and Close still work — the harness abandons
// the store and must be able to release descriptors.
var ErrCrashed = errors.New("faultfs: crashed")

// Op classifies the operations faults can attach to. Counting is per class:
// the Nth write is independent of how many reads preceded it, which keeps
// write/sync fault schedules deterministic even when concurrent readers
// (whose read counts are timing-dependent) share the filesystem.
type Op uint8

const (
	OpOpen Op = iota
	OpRead
	OpWrite
	OpSync
	OpTruncate
	OpRemove
	// NumOps sizes per-class counters.
	NumOps
)

func (op Op) String() string {
	switch op {
	case OpOpen:
		return "open"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpTruncate:
		return "truncate"
	case OpRemove:
		return "remove"
	}
	return fmt.Sprintf("op(%d)", op)
}

// mutates reports whether op changes on-disk state (and so must be refused
// once crashed).
func mutates(op Op) bool {
	switch op {
	case OpWrite, OpSync, OpTruncate, OpRemove, OpOpen:
		return true
	}
	return false
}

// Kind is what happens when a rule fires.
type Kind uint8

const (
	// KindErr fails the operation with ErrInjected and no side effects
	// (a write that never reached the device, a failed fsync, a failed
	// unlink).
	KindErr Kind = iota
	// KindShort performs a torn write: a strict prefix of the buffer
	// reaches the file, then the operation fails. Only meaningful on
	// OpWrite.
	KindShort
	// KindFlip silently corrupts a read: the read succeeds with one
	// seed-chosen bit flipped. Only meaningful on OpRead.
	KindFlip
	// KindCrash tears the operation (writes keep a seed-chosen prefix,
	// possibly the whole buffer; other ops do nothing) and freezes the
	// filesystem: every later mutating operation returns ErrCrashed.
	// The process-crash model: completed writes survive, everything
	// after the crash point never happens. Loss of *completed but
	// unsynced* writes is modeled by placing KindShort/KindCrash on the
	// write itself rather than by rolling back at sync time.
	KindCrash
)

func (k Kind) String() string {
	switch k {
	case KindErr:
		return "err"
	case KindShort:
		return "short"
	case KindFlip:
		return "flip"
	case KindCrash:
		return "crash"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Rule is one scripted fault: fire Kind on the Nth operation of class Op
// (1-based, counted per class across the whole Injector). Path, when
// non-empty, additionally requires the target path to contain it —
// non-matching operations still advance the count, so schedules stay
// comparable with and without the filter.
type Rule struct {
	Op   Op
	Nth  uint64
	Kind Kind
	Path string
	// Keep is the byte count a torn write preserves (KindShort/KindCrash
	// on OpWrite). Negative selects a seed-pinned random prefix.
	Keep int
}

// Convenience constructors for the common matrix rules.

// CrashAtWrite crashes at the nth write, keeping a seed-chosen prefix.
func CrashAtWrite(nth uint64) Rule { return Rule{Op: OpWrite, Nth: nth, Kind: KindCrash, Keep: -1} }

// CrashAtSync crashes at the nth sync (the block was written, never synced).
func CrashAtSync(nth uint64) Rule { return Rule{Op: OpSync, Nth: nth, Kind: KindCrash} }

// CrashAtOpen crashes at the nth file open (e.g. mid segment roll).
func CrashAtOpen(nth uint64) Rule { return Rule{Op: OpOpen, Nth: nth, Kind: KindCrash} }

// CrashAtRemove crashes at the nth unlink (e.g. mid compaction retirement).
func CrashAtRemove(nth uint64) Rule { return Rule{Op: OpRemove, Nth: nth, Kind: KindCrash} }

// FailWrite fails the nth write outright (nothing reaches the file).
func FailWrite(nth uint64) Rule { return Rule{Op: OpWrite, Nth: nth, Kind: KindErr} }

// ShortWrite tears the nth write and fails it, leaving a seed-chosen prefix.
func ShortWrite(nth uint64) Rule { return Rule{Op: OpWrite, Nth: nth, Kind: KindShort, Keep: -1} }

// FailSync fails the nth fsync without syncing.
func FailSync(nth uint64) Rule { return Rule{Op: OpSync, Nth: nth, Kind: KindErr} }

// FlipRead silently flips one bit in the nth read's result.
func FlipRead(nth uint64) Rule { return Rule{Op: OpRead, Nth: nth, Kind: KindFlip} }

// Injector wraps an FS with a deterministic fault schedule. All decisions
// that involve randomness (torn-write prefix lengths, bit-flip positions)
// come from the seed, so a failing matrix point replays exactly from
// (seed, rules).
type Injector struct {
	inner FS

	mu      sync.Mutex
	rng     *rand.Rand
	counts  [NumOps]uint64
	rules   []Rule
	crashed bool
	events  []string
}

// NewInjector wraps inner with the given fault schedule.
func NewInjector(inner FS, seed int64, rules ...Rule) *Injector {
	return &Injector{inner: inner, rng: rand.New(rand.NewSource(seed)), rules: rules}
}

// Count returns how many operations of class op have been issued.
func (in *Injector) Count(op Op) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[op]
}

// Counts returns all per-class operation counts (a census pass runs the
// workload with no rules and reads these to enumerate the fault matrix).
func (in *Injector) Counts() [NumOps]uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts
}

// Crashed reports whether a crash point has fired.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// Events returns the log of fired faults, for failure messages.
func (in *Injector) Events() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.events...)
}

// step counts one operation and returns the matching rule, if any. It
// returns ErrCrashed for mutating operations after a crash point.
func (in *Injector) step(op Op, path string) (*Rule, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed && mutates(op) {
		return nil, ErrCrashed
	}
	in.counts[op]++
	n := in.counts[op]
	for i := range in.rules {
		r := &in.rules[i]
		if r.Op == op && r.Nth == n && (r.Path == "" || strings.Contains(path, r.Path)) {
			return r, nil
		}
	}
	return nil, nil
}

func (in *Injector) fired(format string, args ...any) {
	in.mu.Lock()
	in.events = append(in.events, fmt.Sprintf(format, args...))
	in.mu.Unlock()
}

// Crash freezes the filesystem now, as a KindCrash rule does when its
// operation comes up: every later mutating operation returns ErrCrashed. A
// rule fires at an operation count fixed when the Injector was made; this is
// for a process that dies at a moment the harness picks.
func (in *Injector) Crash() {
	in.mu.Lock()
	in.crashed = true
	in.mu.Unlock()
}

// intn draws a seed-pinned random int in [0, n).
func (in *Injector) intn(n int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	if n <= 0 {
		return 0
	}
	return in.rng.Intn(n)
}

// ---- FS implementation ----

func (in *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	r, err := in.step(OpOpen, name)
	if err != nil {
		return nil, err
	}
	if r != nil {
		switch r.Kind {
		case KindCrash:
			in.Crash()
			in.fired("open#%d %s: crash", in.Count(OpOpen), name)
			return nil, ErrCrashed
		default:
			in.fired("open#%d %s: err", in.Count(OpOpen), name)
			return nil, fmt.Errorf("open %s: %w", name, ErrInjected)
		}
	}
	f, err := in.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f, name: name}, nil
}

func (in *Injector) Remove(name string) error {
	r, err := in.step(OpRemove, name)
	if err != nil {
		return err
	}
	if r != nil {
		switch r.Kind {
		case KindCrash:
			in.Crash()
			in.fired("remove#%d %s: crash", in.Count(OpRemove), name)
			return ErrCrashed
		default:
			in.fired("remove#%d %s: err", in.Count(OpRemove), name)
			return fmt.Errorf("remove %s: %w", name, ErrInjected)
		}
	}
	return in.inner.Remove(name)
}

func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	in.mu.Lock()
	crashed := in.crashed
	in.mu.Unlock()
	if crashed {
		return ErrCrashed
	}
	return in.inner.MkdirAll(path, perm)
}

func (in *Injector) Glob(pattern string) ([]string, error) {
	return in.inner.Glob(pattern)
}

func (in *Injector) Truncate(name string, size int64) error {
	r, err := in.step(OpTruncate, name)
	if err != nil {
		return err
	}
	if r != nil {
		switch r.Kind {
		case KindCrash:
			in.Crash()
			in.fired("truncate#%d %s: crash", in.Count(OpTruncate), name)
			return ErrCrashed
		default:
			in.fired("truncate#%d %s: err", in.Count(OpTruncate), name)
			return fmt.Errorf("truncate %s: %w", name, ErrInjected)
		}
	}
	return in.inner.Truncate(name, size)
}

// ---- File implementation ----

type injFile struct {
	in   *Injector
	f    File
	name string
}

func (jf *injFile) ReadAt(p []byte, off int64) (int, error) {
	r, err := jf.in.step(OpRead, jf.name)
	if err != nil {
		return 0, err
	}
	if r != nil {
		switch r.Kind {
		case KindFlip:
			n, err := jf.f.ReadAt(p, off)
			if err == nil && n > 0 {
				bit := jf.in.intn(n * 8)
				p[bit/8] ^= 1 << (bit % 8)
				jf.in.fired("read#%d %s off=%d len=%d: flip bit %d",
					jf.in.Count(OpRead), jf.name, off, len(p), bit)
			}
			return n, err
		case KindCrash:
			jf.in.Crash()
			jf.in.fired("read#%d %s off=%d: crash", jf.in.Count(OpRead), jf.name, off)
			return 0, ErrCrashed
		default:
			jf.in.fired("read#%d %s off=%d: err", jf.in.Count(OpRead), jf.name, off)
			return 0, fmt.Errorf("read %s: %w", jf.name, ErrInjected)
		}
	}
	return jf.f.ReadAt(p, off)
}

func (jf *injFile) WriteAt(p []byte, off int64) (int, error) {
	r, err := jf.in.step(OpWrite, jf.name)
	if err != nil {
		return 0, err
	}
	if r != nil {
		switch r.Kind {
		case KindShort, KindCrash:
			keep := r.Keep
			if keep < 0 {
				// A crash may complete the write (keep == len(p)) —
				// crash-after-write is a distinct recovery case; a
				// plain short write is always a strict tear.
				bound := len(p)
				if r.Kind == KindCrash {
					bound++
				}
				keep = jf.in.intn(bound)
			}
			if keep > len(p) {
				keep = len(p)
			}
			if keep > 0 {
				if _, werr := jf.f.WriteAt(p[:keep], off); werr != nil {
					keep = 0
				}
			}
			if r.Kind == KindCrash {
				jf.in.Crash()
				jf.in.fired("write#%d %s off=%d len=%d: crash kept=%d",
					jf.in.Count(OpWrite), jf.name, off, len(p), keep)
				return keep, ErrCrashed
			}
			jf.in.fired("write#%d %s off=%d len=%d: short kept=%d",
				jf.in.Count(OpWrite), jf.name, off, len(p), keep)
			return keep, fmt.Errorf("write %s: %w", jf.name, ErrInjected)
		default:
			jf.in.fired("write#%d %s off=%d len=%d: err",
				jf.in.Count(OpWrite), jf.name, off, len(p))
			return 0, fmt.Errorf("write %s: %w", jf.name, ErrInjected)
		}
	}
	return jf.f.WriteAt(p, off)
}

func (jf *injFile) Sync() error {
	r, err := jf.in.step(OpSync, jf.name)
	if err != nil {
		return err
	}
	if r != nil {
		switch r.Kind {
		case KindCrash:
			jf.in.Crash()
			jf.in.fired("sync#%d %s: crash", jf.in.Count(OpSync), jf.name)
			return ErrCrashed
		default:
			jf.in.fired("sync#%d %s: err", jf.in.Count(OpSync), jf.name)
			return fmt.Errorf("sync %s: %w", jf.name, ErrInjected)
		}
	}
	return jf.f.Sync()
}

func (jf *injFile) Truncate(size int64) error {
	r, err := jf.in.step(OpTruncate, jf.name)
	if err != nil {
		return err
	}
	if r != nil {
		if r.Kind == KindCrash {
			jf.in.Crash()
			jf.in.fired("truncate#%d %s: crash", jf.in.Count(OpTruncate), jf.name)
			return ErrCrashed
		}
		jf.in.fired("truncate#%d %s: err", jf.in.Count(OpTruncate), jf.name)
		return fmt.Errorf("truncate %s: %w", jf.name, ErrInjected)
	}
	return jf.f.Truncate(size)
}

// Close always succeeds down to the inner file: the harness must be able to
// release descriptors of an abandoned (crashed) store.
func (jf *injFile) Close() error { return jf.f.Close() }

func (jf *injFile) Stat() (os.FileInfo, error) { return jf.f.Stat() }

func (jf *injFile) Name() string { return jf.name }
