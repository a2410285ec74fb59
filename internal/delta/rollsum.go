package delta

// The encoders' window checksum is a rolling Adler-style checksum, the same
// family xDelta and gzip use for weak block fingerprints (rsync's
// formulation: two 16-bit running sums s1 and s2, no prime modulus). Sliding
// the window one byte, out leaving and in entering, is
//
//	s1 += in - out
//	s2 += s1 - windowSize*out
//
// which the encoders' loops do inline on local sums.

// windowSums computes the two running sums of a full window.
func windowSums(window []byte) (s1, s2 uint32) {
	for _, b := range window {
		s1 += uint32(b)
		s2 += s1
	}
	return s1, s2
}

// mixSums returns the 32-bit checksum of a window from its running sums. The
// raw s2 is what anchor selection tests — its low bits are cheap and
// content-defined — and this full mix is only computed at anchors, where
// index quality matters.
func mixSums(s1, s2 uint32) uint32 {
	// Mix the two halves so the low bits depend on the whole state: s1
	// alone has poor low-bit entropy.
	v := s2<<16 | s1&0xffff
	v ^= v >> 15
	v *= 0x2c1b3c6d
	v ^= v >> 12
	return v
}
