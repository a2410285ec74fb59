package netsim

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"
)

// Mesh is a simulated multi-host network: one named Sim per host, with dials
// routed to the right host by address prefix. Each host's Sim keeps its own
// seed-pinned fault state, so a cluster test can partition or degrade one
// member's connectivity — a *partial* cluster partition — while the rest of
// the mesh stays healthy.
//
// A host's Sim models the network path *to* that host: every connection
// dialled to host H (from clients or from other members) runs through H's
// Sim, so partitioning H starves all of H's inbound traffic and the replies
// on those same connections, exactly like yanking its uplink.
type Mesh struct {
	mu   sync.Mutex
	sims map[string]*Sim
	down map[string]bool // hosts whose listeners refuse dials (peer death)
}

// NewMesh builds a mesh of the named hosts. Each host's Sim derives its
// fault rolls from seed+index, so one mesh seed pins the whole cluster's
// network behaviour.
func NewMesh(seed int64, hosts ...string) *Mesh {
	m := &Mesh{sims: make(map[string]*Sim, len(hosts)), down: make(map[string]bool)}
	for i, h := range hosts {
		m.sims[h] = NewNamedSim(seed+int64(i), h)
	}
	return m
}

// Sim returns host's Sim for fault scripting (partition, profile, counters).
func (m *Mesh) Sim(host string) *Sim {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sims[host]
}

// SetDown marks a host dead (true) or alive (false): dials to a dead host
// fail immediately with connection-refused, modelling a crashed process
// rather than a silent partition. Existing connections are unaffected; kill
// those by closing the host's listeners/servers.
func (m *Mesh) SetDown(host string, down bool) {
	m.mu.Lock()
	m.down[host] = down
	m.mu.Unlock()
}

// Heal restores every host's network to clean delivery.
func (m *Mesh) Heal() {
	m.mu.Lock()
	sims := make([]*Sim, 0, len(m.sims))
	for _, s := range m.sims {
		sims = append(sims, s)
	}
	for h := range m.down {
		delete(m.down, h)
	}
	m.mu.Unlock()
	for _, s := range sims {
		s.Heal()
	}
}

// Host returns the Network a process running on the named host uses: it
// listens on the host's own Sim and dials anywhere in the mesh.
func (m *Mesh) Host(name string) Network {
	return meshHost{m: m, name: name}
}

// DialTimeout routes a dial to the owning host's Sim by address prefix
// ("<host>:<n>").
func (m *Mesh) DialTimeout(addr string, timeout time.Duration) (net.Conn, error) {
	host := addr
	if i := strings.LastIndex(addr, ":"); i >= 0 {
		host = addr[:i]
	}
	m.mu.Lock()
	sim := m.sims[host]
	dead := m.down[host]
	m.mu.Unlock()
	if sim == nil {
		return nil, fmt.Errorf("netsim: dial %s: no such host in mesh", addr)
	}
	if dead {
		return nil, fmt.Errorf("netsim: dial %s: connection refused (host down)", addr)
	}
	return sim.DialTimeout(addr, timeout)
}

type meshHost struct {
	m    *Mesh
	name string
}

// Listen implements Network on the host's own Sim.
func (h meshHost) Listen(addr string) (net.Listener, error) {
	h.m.mu.Lock()
	sim := h.m.sims[h.name]
	h.m.mu.Unlock()
	if sim == nil {
		return nil, fmt.Errorf("netsim: listen: no such host %q in mesh", h.name)
	}
	return sim.Listen(addr)
}

// DialTimeout implements Network through the mesh's routing.
func (h meshHost) DialTimeout(addr string, timeout time.Duration) (net.Conn, error) {
	return h.m.DialTimeout(addr, timeout)
}

// Timing implements Network: a host's clocks are its Sim's.
func (meshHost) Timing() Timing { return simTiming }
