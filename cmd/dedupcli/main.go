// Command dedupcli is a client for dbdedupd members.
//
//	dedupcli -addr 127.0.0.1:7070 insert wiki article/1 "first revision"
//	dedupcli -addr 127.0.0.1:7070 get wiki article/1
//	dedupcli -addr 127.0.0.1:7070 update wiki article/1 "second revision"
//	dedupcli -addr 127.0.0.1:7070 delete wiki article/1
//	dedupcli -addr 127.0.0.1:7070 stats
//
// -addr names one member or several. Either way the tool holds the one
// routing client: it learns the ring from the first member that answers
// (a standalone daemon is the ring of itself), sends each operation to the
// owning member (following redirects and rebalance windows), fans the admin
// verbs out to every member, and has the ring/rebalance control verbs:
//
//	dedupcli -addr host1:7070,host2:7070 insert wiki article/1 "first revision"
//	dedupcli -addr host1:7070,host2:7070 ring
//	dedupcli -addr host1:7070,host2:7070 rebalance host1:7070,host2:7070,host3:7070
//
// Payloads may also be piped on stdin by passing "-" as the payload.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dbdedup/internal/apiserver"
	"dbdedup/internal/cluster"
	"dbdedup/internal/metrics"
)

// member is one admin-verb target: a direct connection labelled with the
// member address (so fanned-out output stays attributable).
type member struct {
	name string
	c    *apiserver.Client
}

// The command line: one flag. README.md says so, and
// TestFlagsMatchREADME keeps the two equal.
var addr = flag.String("addr", "127.0.0.1:7070", "member API address, or a comma-separated list of them")

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dedupcli [-addr host:port[,host:port...]] <insert|get|update|delete|stats|dbs|verify|ring|rebalance> [args]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	cmd := args[0]

	seeds := cluster.SplitAddrs(*addr)
	cc, err := cluster.DialCluster(seeds, cluster.ClientOptions{})
	if err != nil {
		fail("connecting: %v", err)
	}
	defer cc.Close()
	var members []member
	for _, m := range cc.Members() {
		conn, err := cc.Member(m)
		if err != nil {
			fail("connecting to member %s: %v", m, err)
		}
		members = append(members, member{name: m, c: conn})
	}

	switch cmd {
	case "verify":
		bad := false
		for _, m := range members {
			rep, err := m.c.Verify()
			if err != nil {
				fail("verify %s: %v", m.name, err)
			}
			if len(members) > 1 {
				fmt.Printf("== %s ==\n", m.name)
			}
			fmt.Println(rep)
			for _, e := range rep.Errors {
				fmt.Printf("  error: %s\n", e)
			}
			if !rep.Ok() {
				bad = true
			}
		}
		if bad {
			os.Exit(1)
		}
	case "dbs":
		for _, m := range members {
			dbs, err := m.c.DBStats()
			if err != nil {
				fail("dbs %s: %v", m.name, err)
			}
			if len(members) > 1 {
				fmt.Printf("== %s ==\n", m.name)
			}
			if len(dbs) == 0 {
				fmt.Println("no databases (or dedup disabled)")
				continue
			}
			for _, d := range dbs {
				status := "active"
				if d.Disabled {
					status = "disabled by governor"
				}
				fmt.Printf("%s: %s; window %d inserts, ratio %.2fx; index %s; %d chains\n",
					d.Name, status, d.WindowInserts, d.WindowRatio(),
					metrics.FormatBytes(d.IndexMemoryBytes), d.Chains)
			}
		}
	case "stats":
		for _, m := range members {
			st, err := m.c.Stats()
			if err != nil {
				fail("stats %s: %v", m.name, err)
			}
			if len(members) > 1 {
				fmt.Printf("== %s ==\n", m.name)
			}
			fmt.Printf("inserts:            %d\n", st.Inserts)
			fmt.Printf("reads:              %d\n", st.Reads)
			fmt.Printf("updates:            %d\n", st.Updates)
			fmt.Printf("deletes:            %d\n", st.Deletes)
			fmt.Printf("raw bytes:          %s\n", metrics.FormatBytes(st.RawInsertBytes))
			fmt.Printf("stored bytes:       %s\n", metrics.FormatBytes(st.Store.LogicalBytes))
			fmt.Printf("oplog bytes:        %s\n", metrics.FormatBytes(st.OplogBytes))
			fmt.Printf("storage ratio:      %.2fx\n", metrics.Ratio(st.RawInsertBytes, st.Store.LogicalBytes))
			fmt.Printf("network ratio:      %.2fx\n", metrics.Ratio(st.RawInsertBytes, st.OplogBytes))
			fmt.Printf("dedup hits:         %d\n", st.Engine.Deduped)
			fmt.Printf("index memory:       %s\n", metrics.FormatBytes(st.Engine.IndexMemoryBytes))
			fmt.Printf("writebacks applied: %d (skipped %d, dropped %d, pending %d)\n",
				st.WritebacksApplied, st.WritebacksSkipped, st.WritebacksDropped, st.WritebacksPending)
		}
	case "ring":
		for _, m := range members {
			body, err := m.c.RingJSON()
			if err != nil {
				fail("ring %s: %v", m.name, err)
			}
			st, err := cluster.ParseRingStatus(body)
			if err != nil {
				fail("ring %s: %v", m.name, err)
			}
			fmt.Printf("%s: epoch %d, members %s", m.name, st.Ring.Epoch,
				strings.Join(st.Ring.Members, ","))
			if st.Pending != nil {
				fmt.Printf(" (rebalance to epoch %d, members %s, in progress)",
					st.Pending.Epoch, strings.Join(st.Pending.Members, ","))
			}
			fmt.Println()
		}
	case "rebalance":
		if len(args) != 2 {
			fail("usage: dedupcli -addr ... rebalance <addr,addr,...>")
		}
		target := cluster.SplitAddrs(args[1])
		ring, err := cluster.Rebalance(seeds, target, nil)
		if err != nil {
			fail("rebalance: %v", err)
		}
		fmt.Printf("committed ring epoch %d, members %s\n", ring.Epoch,
			strings.Join(ring.Members, ","))
	case "insert", "update":
		if len(args) != 4 {
			fail("usage: dedupcli %s <db> <key> <payload|->", cmd)
		}
		payload := []byte(args[3])
		if args[3] == "-" {
			var err error
			payload, err = io.ReadAll(os.Stdin)
			if err != nil {
				fail("reading stdin: %v", err)
			}
		}
		var err error
		if cmd == "insert" {
			err = cc.Insert(args[1], args[2], payload)
		} else {
			err = cc.Update(args[1], args[2], payload)
		}
		if err != nil {
			fail("%s: %v", cmd, err)
		}
	case "get":
		if len(args) != 3 {
			fail("usage: dedupcli get <db> <key>")
		}
		content, err := cc.Get(args[1], args[2])
		if err != nil {
			fail("get: %v", err)
		}
		os.Stdout.Write(content)
	case "delete":
		if len(args) != 3 {
			fail("usage: dedupcli delete <db> <key>")
		}
		if err := cc.Delete(args[1], args[2]); err != nil {
			fail("delete: %v", err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
