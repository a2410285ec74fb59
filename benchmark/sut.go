package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dbdedup/internal/apiserver"
	"dbdedup/internal/chain"
	"dbdedup/internal/core"
	"dbdedup/internal/node"
	"dbdedup/internal/repl"
)

// nodeOptions is the fixed system under test: the paper's headline
// configuration as dbdedupd runs it with -compress. Every zero field keeps
// the program's default (gear/rabin choice, K=8, governor, size filter,
// cuckoo index, 32 MiB source cache, 8 MiB write-back cache, 2 MiB block
// cache, admission off, SyncWrites off).
func nodeOptions(dir string, syncEncode bool) node.Options {
	return node.Options{
		Dir:              dir,
		BlockCompression: true,
		SyncEncode:       syncEncode,
		Engine: core.Config{
			ChunkAvgSize: 64,
			Scheme:       chain.Hop,
			HopDistance:  16,
		},
		Compaction: node.CompactionOptions{Enabled: true},
	}
}

// sut is one running system under test: a primary behind its client API,
// optionally replicating to a secondary over loopback TCP.
type sut struct {
	dir     string
	primary *node.Node
	api     *apiserver.Server
	clients []*apiserver.Client

	replSrv   *repl.Primary
	secondary *node.Node
	follower  *repl.Secondary
	closed    bool
}

// workDir creates a fresh data directory under root.
func workDir(root, name string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, name+"-")
}

// openSUT starts the system in a fresh directory under root with conns
// client connections.
func openSUT(root string, conns int, replicated bool) (*sut, error) {
	dir, err := workDir(root, "sut")
	if err != nil {
		return nil, err
	}
	s := &sut{dir: dir}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	if s.primary, err = node.Open(nodeOptions(filepath.Join(dir, "primary"), false)); err != nil {
		return nil, fmt.Errorf("opening primary: %w", err)
	}
	if s.api, err = apiserver.ListenAndServe(s.primary, "127.0.0.1:0"); err != nil {
		return nil, err
	}
	if replicated {
		if s.replSrv, err = repl.ListenAndServe(s.primary, "127.0.0.1:0"); err != nil {
			return nil, err
		}
		if s.secondary, err = node.Open(nodeOptions(filepath.Join(dir, "secondary"), false)); err != nil {
			return nil, fmt.Errorf("opening secondary: %w", err)
		}
		if s.follower, err = repl.Connect(s.secondary, s.replSrv.Addr(), 0); err != nil {
			return nil, err
		}
	}
	for i := 0; i < conns; i++ {
		c, err := apiserver.Dial(s.api.Addr())
		if err != nil {
			return nil, err
		}
		c.SetTimeout(30 * time.Second)
		s.clients = append(s.clients, c)
	}
	ok = true
	return s, nil
}

// close stops everything the sut started and removes its directory. A second
// call does nothing.
func (s *sut) close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, c := range s.clients {
		c.Close()
	}
	if s.follower != nil {
		s.follower.Close()
	}
	if s.replSrv != nil {
		s.replSrv.Close()
	}
	if s.api != nil {
		s.api.Close()
	}
	if s.secondary != nil {
		s.secondary.Close()
	}
	if s.primary != nil {
		s.primary.Close()
	}
	os.RemoveAll(s.dir)
}
