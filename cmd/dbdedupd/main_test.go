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

// TestFlagTableMatchesREADME keeps README.md's census of dbdedupd's flags
// ("Who sets each, in this repository") equal to the flags the binary
// registers, so neither can gain or lose one without the other.
func TestFlagTableMatchesREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "| flag | default | set by |")
	if !ok {
		t.Fatal("README.md has no `| flag | default | set by |` table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	var documented []string
	for _, m := range regexp.MustCompile("(?m)^\\| `-([a-z-]+)` \\|").FindAllStringSubmatch(table, -1) {
		documented = append(documented, m[1])
	}
	var registered []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") { // the test binary's own
			registered = append(registered, f.Name)
		}
	})
	sort.Strings(documented)
	sort.Strings(registered)
	if strings.Join(documented, " ") != strings.Join(registered, " ") {
		t.Errorf("README.md documents %d flags, dbdedupd registers %d:\n  README:   %v\n  dbdedupd: %v",
			len(documented), len(registered), documented, registered)
	}
	count := regexp.MustCompile("`dbdedupd` takes (\\d+) flags").FindStringSubmatch(string(readme))
	if count == nil || count[1] != strconv.Itoa(len(registered)) {
		t.Errorf("README.md's sentence above the table says %q, dbdedupd registers %d flags", count, len(registered))
	}
}
