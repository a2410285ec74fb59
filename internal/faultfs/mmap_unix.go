//go:build unix && !nommap

package faultfs

import "syscall"

// Mmap maps the file's first length bytes read-only. The mapping is
// MAP_SHARED, so bytes written through WriteAt before the map call are
// visible; callers only ever map sealed (never-rewritten) prefixes, so
// coherence with later writes is irrelevant by construction.
func (f *osFile) Mmap(length int64) (Mapping, error) {
	if length <= 0 || length != int64(int(length)) {
		return nil, ErrMmapUnsupported
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(length),
		syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, err
	}
	return &osMapping{data: data}, nil
}

type osMapping struct {
	data []byte
}

func (m *osMapping) Bytes() []byte { return m.data }

func (m *osMapping) Close() error {
	if m.data == nil {
		return nil
	}
	data := m.data
	m.data = nil
	return syscall.Munmap(data)
}
