package main

import (
	"flag"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestFlagsMatchREADME keeps README.md's list of dedupstorm's flags ("
// `dedupstorm` takes N flags: …") equal to the flags the binary registers, as
// cmd/dbdedupd's TestFlagTableMatchesREADME does for the daemon.
func TestFlagsMatchREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("`dedupstorm` takes (\\d+) flags: ([^.]*)\\.").FindSubmatch(readme)
	if m == nil {
		t.Fatal("README.md has no \"`dedupstorm` takes N flags: ….\" sentence")
	}
	var documented []string
	for _, f := range regexp.MustCompile("`-([a-z-]+)`").FindAllSubmatch(m[2], -1) {
		documented = append(documented, string(f[1]))
	}
	var registered []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") { // the test binary's own
			registered = append(registered, f.Name)
		}
	})
	sort.Strings(documented)
	sort.Strings(registered)
	if strings.Join(documented, " ") != strings.Join(registered, " ") || string(m[1]) != strconv.Itoa(len(registered)) {
		t.Errorf("README.md says %s flags and lists %d, dedupstorm registers %d:\n  README:     %v\n  dedupstorm: %v",
			m[1], len(documented), len(registered), documented, registered)
	}
}
