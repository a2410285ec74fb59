package tiered

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseSize parses a human memory-budget string: a plain integer is bytes,
// and the usual binary suffixes (KB/KiB, MB/MiB, GB/GiB — all 1024-based,
// case-insensitive) scale it. It backs the -index-memory-budget flag, so
// "64KiB", "24MB" and "1048576" are all valid. A negative size, or one that
// does not fit in an int64, is an error.
func ParseSize(s string) (int64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("tiered: empty size")
	}
	mult := int64(1)
	upper := strings.ToUpper(t)
	for _, suf := range []struct {
		text string
		mult int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30},
		{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30},
		{"B", 1},
	} {
		if strings.HasSuffix(upper, suf.text) {
			mult = suf.mult
			t = strings.TrimSpace(t[:len(t)-len(suf.text)])
			break
		}
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("tiered: bad size %q: %w", s, err)
	}
	if n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("tiered: size %q out of range", s)
	}
	return n * mult, nil
}
