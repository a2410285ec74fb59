// Package faultfs is the storage layer's deterministic fault-injection
// seam. The docstore (and through it the node's segment and compaction
// machinery) performs every file operation through the FS interface; in
// production that is the thin os-backed implementation below, and in crash
// tests it is an Injector (inject.go) wrapping it — a VFS that fails, tears,
// corrupts, or "crashes" at scripted points so recovery code can be driven
// through every failure the paper's substrate must survive.
//
// The interface is deliberately exactly the set of operations the store
// uses: open, positional read/write, sync, truncate, unlink, plus the two
// directory operations Open needs (MkdirAll, Glob). Keeping it minimal keeps
// the fault matrix enumerable — every durability-relevant syscall the engine
// issues is one of these.
package faultfs

import (
	"io"
	"os"
	"path/filepath"
)

// FS is the filesystem surface the storage engine runs on.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Remove unlinks name (segment retirement).
	Remove(name string) error
	// MkdirAll creates the storage directory.
	MkdirAll(path string, perm os.FileMode) error
	// Glob lists paths matching pattern (segment discovery on open).
	Glob(pattern string) ([]string, error)
	// Truncate resizes name (exposed for crash tests that tear tails;
	// the store itself recovers by overwriting, not truncating).
	Truncate(name string, size int64) error
}

// File is one open segment file.
type File interface {
	io.ReaderAt
	io.WriterAt
	// Sync flushes written bytes to stable storage.
	Sync() error
	// Close releases the descriptor.
	Close() error
	// Stat reports the file's current size on open.
	Stat() (os.FileInfo, error)
	// Name returns the path the file was opened with.
	Name() string
	// Truncate resizes the file.
	Truncate(size int64) error
}

// OS is the direct os-backed filesystem.
type OS struct{}

// DefaultFS is what a nil Options.FS resolves to.
var DefaultFS FS = OS{}

func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) Remove(name string) error                     { return os.Remove(name) }
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (OS) Glob(pattern string) ([]string, error)        { return filepath.Glob(pattern) }
func (OS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
