package faultfs

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// MemFS is a purely in-memory FS implementation: the device under every
// store opened without a directory, and the second filesystem of the recovery
// test matrix. The same store/replay code paths run against it as against the
// os-backed FS, but tests can tear and corrupt "file" contents directly via
// Bytes/SetBytes without touching disk, and fuzz targets can reopen stores
// over arbitrary segment bytes cheaply.
//
// All methods are safe for concurrent use. Open handles share the backing
// node, so two opens of the same path observe each other's writes — matching
// the os semantics the store relies on.
type MemFS struct {
	mu    sync.Mutex
	nodes map[string]*memNode
	dirs  map[string]bool
}

type memNode struct {
	mu   sync.RWMutex
	data []byte
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{nodes: make(map[string]*memNode), dirs: make(map[string]bool)}
}

// Bytes returns a copy of the named file's contents, or nil if absent.
func (m *MemFS) Bytes(name string) []byte {
	m.mu.Lock()
	n := m.nodes[name]
	m.mu.Unlock()
	if n == nil {
		return nil
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return append([]byte(nil), n.data...)
}

// SetBytes replaces the named file's contents, creating it if absent. Tests
// use it to plant torn or corrupted segment images before a reopen.
func (m *MemFS) SetBytes(name string, data []byte) {
	m.mu.Lock()
	n := m.nodes[name]
	if n == nil {
		n = &memNode{}
		m.nodes[name] = n
	}
	m.mu.Unlock()
	n.mu.Lock()
	n.data = append([]byte(nil), data...)
	n.mu.Unlock()
}

func (m *MemFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
		}
		n = &memNode{}
		m.nodes[name] = n
	} else if flag&os.O_TRUNC != 0 {
		n.mu.Lock()
		n.data = n.data[:0]
		n.mu.Unlock()
	}
	return &memFile{name: name, node: n}, nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.nodes[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(m.nodes, name)
	return nil
}

func (m *MemFS) MkdirAll(path string, perm os.FileMode) error {
	m.mu.Lock()
	m.dirs[path] = true
	m.mu.Unlock()
	return nil
}

func (m *MemFS) Glob(pattern string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for name := range m.nodes {
		ok, err := filepath.Match(pattern, name)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	n, ok := m.nodes[name]
	m.mu.Unlock()
	if !ok {
		return &os.PathError{Op: "truncate", Path: name, Err: os.ErrNotExist}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.truncateLocked(size)
}

func (n *memNode) truncateLocked(size int64) error {
	if size < 0 {
		return fmt.Errorf("truncate: negative size %d", size)
	}
	if int64(len(n.data)) > size {
		n.data = n.data[:size]
	} else {
		n.data = append(n.data, make([]byte, size-int64(len(n.data)))...)
	}
	return nil
}

type memFile struct {
	name string
	node *memNode
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	if off >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	if end := off + int64(len(p)); end > int64(len(f.node.data)) {
		f.node.data = append(f.node.data, make([]byte, end-int64(len(f.node.data)))...)
	}
	return copy(f.node.data[off:], p), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }
func (f *memFile) Name() string { return f.name }

func (f *memFile) Truncate(size int64) error {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	return f.node.truncateLocked(size)
}

func (f *memFile) Stat() (os.FileInfo, error) {
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	return memInfo{name: filepath.Base(f.name), size: int64(len(f.node.data))}, nil
}

type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) Mode() os.FileMode  { return 0o644 }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() any           { return nil }

var _ FS = (*MemFS)(nil)
