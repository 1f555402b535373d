package model

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// LinkConfig carries the physical attributes used when adding a full-duplex
// link to a network; both directions get the same attributes.
type LinkConfig struct {
	// Bandwidth is the link speed in bits per second.
	Bandwidth int64
	// PropDelay is the one-way propagation delay.
	PropDelay time.Duration
	// TimeUnit is the scheduling granularity on the link. If zero,
	// DefaultTimeUnit is used.
	TimeUnit time.Duration
}

// DefaultTimeUnit is the scheduling granularity used when a LinkConfig does
// not specify one. One microsecond matches the precision of commodity
// 802.1Qbv gate control hardware.
const DefaultTimeUnit = time.Microsecond

// Network is a directed graph of switches and devices connected by
// full-duplex links (each physical link contributes two directed edges).
//
// Query methods (ShortestPath, Neighbors, ...) are safe for concurrent
// use once construction is done; mutation (AddDevice/AddSwitch/AddLink)
// must not race with queries. The memo below exists because the
// experiment pipeline resolves the same scenario's routes once per
// method cell — and, with experiment cells fanned out over a worker pool,
// from several readers at once.
type Network struct {
	nodes map[NodeID]*Node
	links map[LinkID]*Link
	adj   map[NodeID][]NodeID

	// mu guards the two memo maps; every topology mutation drops both.
	mu        sync.Mutex
	sortedAdj map[NodeID][]NodeID      // Neighbors, sorted once per node
	routes    map[[2]NodeID]routeEntry // memoized ShortestPath results
}

// routeEntry is one memoized ShortestPath outcome (path or error).
type routeEntry struct {
	path []LinkID
	err  error
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{
		nodes: make(map[NodeID]*Node),
		links: make(map[LinkID]*Link),
		adj:   make(map[NodeID][]NodeID),
	}
}

// AddDevice adds an end device node.
func (n *Network) AddDevice(id NodeID) error { return n.addNode(id, NodeDevice) }

// AddSwitch adds a switch node.
func (n *Network) AddSwitch(id NodeID) error { return n.addNode(id, NodeSwitch) }

func (n *Network) addNode(id NodeID, kind NodeKind) error {
	if id == "" {
		return fmt.Errorf("%w: empty node id", ErrInvalidConfig)
	}
	if _, ok := n.nodes[id]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateNode, id)
	}
	n.nodes[id] = &Node{ID: id, Kind: kind}
	n.invalidateCaches()
	return nil
}

// invalidateCaches drops the memoized adjacency and routing state; every
// topology mutation calls it.
func (n *Network) invalidateCaches() {
	n.mu.Lock()
	n.sortedAdj = nil
	n.routes = nil
	n.mu.Unlock()
}

// AddLink adds a full-duplex link between a and b: two directed edges with
// identical attributes.
func (n *Network) AddLink(a, b NodeID, cfg LinkConfig) error {
	if cfg.TimeUnit == 0 {
		cfg.TimeUnit = DefaultTimeUnit
	}
	for _, id := range []NodeID{a, b} {
		if _, ok := n.nodes[id]; !ok {
			return fmt.Errorf("%w: %q", ErrUnknownNode, id)
		}
	}
	for _, dir := range []LinkID{{From: a, To: b}, {From: b, To: a}} {
		l := &Link{
			From:      dir.From,
			To:        dir.To,
			Bandwidth: cfg.Bandwidth,
			PropDelay: cfg.PropDelay,
			TimeUnit:  cfg.TimeUnit,
		}
		if err := l.validate(); err != nil {
			return err
		}
		if _, ok := n.links[dir]; ok {
			return fmt.Errorf("%w: %s", ErrDuplicateLink, dir)
		}
		n.links[dir] = l
		n.adj[dir.From] = append(n.adj[dir.From], dir.To)
	}
	n.invalidateCaches()
	return nil
}

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) (*Node, bool) {
	node, ok := n.nodes[id]
	return node, ok
}

// Link returns the directed link from one node to another.
func (n *Network) Link(from, to NodeID) (*Link, bool) {
	l, ok := n.links[LinkID{From: from, To: to}]
	return l, ok
}

// LinkByID returns the directed link with the given ID.
func (n *Network) LinkByID(id LinkID) (*Link, bool) {
	l, ok := n.links[id]
	return l, ok
}

// Nodes returns all nodes sorted by ID for deterministic iteration.
func (n *Network) Nodes() []*Node {
	out := make([]*Node, 0, len(n.nodes))
	for _, node := range n.nodes {
		out = append(out, node)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Links returns all directed links sorted by ID for deterministic iteration.
func (n *Network) Links() []*Link {
	out := make([]*Link, 0, len(n.links))
	for _, l := range n.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Neighbors returns the nodes reachable over one directed link from id,
// sorted for deterministic iteration. The caller may mutate the result.
func (n *Network) Neighbors(id NodeID) []NodeID {
	s := n.neighborsSorted(id)
	out := make([]NodeID, len(s))
	copy(out, s)
	return out
}

// neighborsSorted returns the cached sorted adjacency list for id. Every
// BFS used to copy and re-sort the list per visited node; memoizing it
// makes repeated path queries allocation-free on the adjacency side.
// Callers must not mutate the result.
func (n *Network) neighborsSorted(id NodeID) []NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	if s, ok := n.sortedAdj[id]; ok {
		return s
	}
	s := make([]NodeID, len(n.adj[id]))
	copy(s, n.adj[id])
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n.sortedAdj == nil {
		n.sortedAdj = make(map[NodeID][]NodeID)
	}
	n.sortedAdj[id] = s
	return s
}

// NumNodes returns the number of nodes.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumLinks returns the number of directed links.
func (n *Network) NumLinks() int { return len(n.links) }

// ShortestPath returns the minimum-hop directed path from src to dst as a
// sequence of link IDs. Ties are broken deterministically by node ID.
// Results are memoized per (src, dst) until the topology changes; the
// caller may mutate the returned slice.
func (n *Network) ShortestPath(src, dst NodeID) ([]LinkID, error) {
	key := [2]NodeID{src, dst}
	n.mu.Lock()
	e, ok := n.routes[key]
	n.mu.Unlock()
	if !ok {
		// Searched outside the lock (the BFS takes it per visited node);
		// two racing misses compute the same deterministic path.
		e.path, e.err = n.shortestPathUncached(src, dst)
		n.mu.Lock()
		if n.routes == nil {
			n.routes = make(map[[2]NodeID]routeEntry)
		}
		n.routes[key] = e
		n.mu.Unlock()
	}
	if e.err != nil {
		return nil, e.err
	}
	out := make([]LinkID, len(e.path))
	copy(out, e.path)
	return out, nil
}

func (n *Network) shortestPathUncached(src, dst NodeID) ([]LinkID, error) {
	if _, ok := n.nodes[src]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, src)
	}
	if _, ok := n.nodes[dst]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, dst)
	}
	if src == dst {
		return nil, fmt.Errorf("%w: source equals destination %q", ErrNoRoute, src)
	}
	prev := map[NodeID]NodeID{src: src}
	queue := []NodeID{src}
	for len(queue) > 0 && prev[dst] == "" {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range n.neighborsSorted(cur) {
			if _, seen := prev[next]; seen {
				continue
			}
			prev[next] = cur
			queue = append(queue, next)
		}
	}
	if _, ok := prev[dst]; !ok {
		return nil, fmt.Errorf("%w: %q -> %q", ErrNoRoute, src, dst)
	}
	var rev []LinkID
	for cur := dst; cur != src; cur = prev[cur] {
		rev = append(rev, LinkID{From: prev[cur], To: cur})
	}
	path := make([]LinkID, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return path, nil
}

// DisjointPaths returns two directed paths from src to dst whose
// bridge-to-bridge portions share no link (802.1CB seamless redundancy
// needs link-disjoint member paths; the end stations' single attachment
// links are necessarily common, with replication at the first bridge and
// elimination at the last). The first is the shortest path; the second is
// the shortest path avoiding the first's intermediate links. ErrNoRoute is
// returned when no second disjoint path exists.
func (n *Network) DisjointPaths(src, dst NodeID) ([]LinkID, []LinkID, error) {
	first, err := n.ShortestPath(src, dst)
	if err != nil {
		return nil, nil, err
	}
	banned := make(map[LinkID]bool, len(first))
	for i, l := range first {
		fromDev := false
		if node, ok := n.Node(l.From); ok && node.IsDevice() {
			fromDev = true
		}
		toDev := false
		if node, ok := n.Node(l.To); ok && node.IsDevice() {
			toDev = true
		}
		if (i == 0 && fromDev) || (i == len(first)-1 && toDev) {
			continue // unavoidable end-station attachment
		}
		banned[l] = true
	}
	// BFS avoiding the banned links.
	prev := map[NodeID]NodeID{src: src}
	queue := []NodeID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range n.neighborsSorted(cur) {
			if banned[LinkID{From: cur, To: next}] {
				continue
			}
			if _, seen := prev[next]; seen {
				continue
			}
			prev[next] = cur
			queue = append(queue, next)
		}
	}
	if _, ok := prev[dst]; !ok {
		return nil, nil, fmt.Errorf("%w: no second disjoint path %q -> %q", ErrNoRoute, src, dst)
	}
	var rev []LinkID
	for cur := dst; cur != src; cur = prev[cur] {
		rev = append(rev, LinkID{From: prev[cur], To: cur})
	}
	second := make([]LinkID, len(rev))
	for i := range rev {
		second[i] = rev[len(rev)-1-i]
	}
	return first, second, nil
}

// AlternatePaths returns up to k distinct directed paths from src to dst,
// shortest first: the shortest path, then the shortest detours found by
// removing one of its links at a time (a single-deviation slice of Yen's
// algorithm — enough for joint routing-and-scheduling retries).
func (n *Network) AlternatePaths(src, dst NodeID, k int) ([][]LinkID, error) {
	best, err := n.ShortestPath(src, dst)
	if err != nil {
		return nil, err
	}
	out := [][]LinkID{best}
	seen := map[string]bool{pathKey(best): true}
	for _, removed := range best {
		if len(out) >= k {
			break
		}
		alt, err := n.shortestPathAvoiding(src, dst, map[LinkID]bool{removed: true})
		if err != nil {
			continue
		}
		if key := pathKey(alt); !seen[key] {
			seen[key] = true
			out = append(out, alt)
		}
	}
	sort.SliceStable(out[1:], func(i, j int) bool { return len(out[i+1]) < len(out[j+1]) })
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

func pathKey(path []LinkID) string {
	key := ""
	for _, l := range path {
		key += l.String() + "|"
	}
	return key
}

// shortestPathAvoiding is ShortestPath with a set of banned directed links.
func (n *Network) shortestPathAvoiding(src, dst NodeID, banned map[LinkID]bool) ([]LinkID, error) {
	prev := map[NodeID]NodeID{src: src}
	queue := []NodeID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range n.neighborsSorted(cur) {
			if banned[LinkID{From: cur, To: next}] {
				continue
			}
			if _, ok := prev[next]; ok {
				continue
			}
			prev[next] = cur
			queue = append(queue, next)
		}
	}
	if _, ok := prev[dst]; !ok {
		return nil, fmt.Errorf("%w: %q -> %q (with bans)", ErrNoRoute, src, dst)
	}
	var rev []LinkID
	for cur := dst; cur != src; cur = prev[cur] {
		rev = append(rev, LinkID{From: prev[cur], To: cur})
	}
	path := make([]LinkID, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return path, nil
}

// WithoutLinks returns a copy of the network lacking the given directed
// links (pass both directions to remove a physical link). The copy shares no
// mutable state with the original. Validate is intentionally not called: a
// failure can partition the network, and the caller decides how to degrade.
func (n *Network) WithoutLinks(ids ...LinkID) *Network {
	banned := make(map[LinkID]bool, len(ids))
	for _, id := range ids {
		banned[id] = true
	}
	out := NewNetwork()
	for id, node := range n.nodes {
		out.nodes[id] = &Node{ID: node.ID, Kind: node.Kind}
	}
	// Iterate links deterministically so adjacency order is reproducible.
	for _, l := range n.Links() {
		id := l.ID()
		if banned[id] {
			continue
		}
		cp := *l
		out.links[id] = &cp
		out.adj[id.From] = append(out.adj[id.From], id.To)
	}
	return out
}

// LargestComponent returns a copy of the network reduced to its largest
// connected component (ties broken towards the component holding the
// lexicographically smallest node). After link failures partition a network,
// the CNC keeps planning for the majority partition; stranded nodes and
// their links disappear from the copy.
func (n *Network) LargestComponent() *Network {
	comp := make(map[NodeID]int, len(n.nodes))
	var sizes []int
	var smallest []NodeID
	for _, node := range n.Nodes() { // sorted: deterministic component ids
		if _, seen := comp[node.ID]; seen {
			continue
		}
		id := len(sizes)
		size := 0
		queue := []NodeID{node.ID}
		comp[node.ID] = id
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			size++
			for _, next := range n.adj[cur] {
				if _, seen := comp[next]; !seen {
					comp[next] = id
					queue = append(queue, next)
				}
			}
		}
		sizes = append(sizes, size)
		smallest = append(smallest, node.ID)
	}
	best := 0
	for id := 1; id < len(sizes); id++ {
		if sizes[id] > sizes[best] || (sizes[id] == sizes[best] && smallest[id] < smallest[best]) {
			best = id
		}
	}
	out := NewNetwork()
	for id, node := range n.nodes {
		if comp[id] == best {
			out.nodes[id] = &Node{ID: node.ID, Kind: node.Kind}
		}
	}
	for _, l := range n.Links() {
		id := l.ID()
		if comp[id.From] != best || comp[id.To] != best {
			continue
		}
		cp := *l
		out.links[id] = &cp
		out.adj[id.From] = append(out.adj[id.From], id.To)
	}
	return out
}

// Validate checks structural invariants: every link endpoint exists, devices
// have exactly one attached full-duplex link (single NIC), and the graph is
// connected when non-empty.
func (n *Network) Validate() error {
	for id, l := range n.links {
		if _, ok := n.nodes[id.From]; !ok {
			return fmt.Errorf("link %s: %w: %q", id, ErrUnknownNode, id.From)
		}
		if _, ok := n.nodes[id.To]; !ok {
			return fmt.Errorf("link %s: %w: %q", id, ErrUnknownNode, id.To)
		}
		if err := l.validate(); err != nil {
			return err
		}
	}
	for id, node := range n.nodes {
		if node.IsDevice() && len(n.adj[id]) > 1 {
			return fmt.Errorf("device %q: %w: %d attached links, want at most 1",
				id, ErrInvalidConfig, len(n.adj[id]))
		}
	}
	if len(n.nodes) > 1 {
		start := n.Nodes()[0].ID
		seen := map[NodeID]bool{start: true}
		queue := []NodeID{start}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, next := range n.adj[cur] {
				if !seen[next] {
					seen[next] = true
					queue = append(queue, next)
				}
			}
		}
		if len(seen) != len(n.nodes) {
			return fmt.Errorf("%w: network is not connected (%d of %d nodes reachable)",
				ErrInvalidConfig, len(seen), len(n.nodes))
		}
	}
	return nil
}
