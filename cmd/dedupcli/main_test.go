package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestFlagsMatchREADME keeps README.md's sentence "`dedupcli` takes one flag,
// `-addr`" equal to the flags the binary registers, as cmd/dbdedupd's
// TestFlagTableMatchesREADME does for the daemon: a second way to name the
// server cannot come back in one of them alone.
func TestFlagsMatchREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("`dedupcli` takes one flag, `-([a-z-]+)`").FindSubmatch(readme)
	if m == nil {
		t.Fatal("README.md has no \"`dedupcli` takes one flag, `-…`\" sentence")
	}
	var registered []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") { // the test binary's own
			registered = append(registered, f.Name)
		}
	})
	if len(registered) != 1 || registered[0] != string(m[1]) {
		t.Errorf("README.md documents -%s, dedupcli registers %v", m[1], registered)
	}
}
