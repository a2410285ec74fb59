//go:build !unix || nommap

package faultfs

// Mmap is unavailable on this platform (or compiled out by the nommap tag,
// which is how CI runs the storage tests on this file from a unix host);
// callers fall back to ReadAt.
func (f *osFile) Mmap(length int64) (Mapping, error) {
	return nil, ErrMmapUnsupported
}
