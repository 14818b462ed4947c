package noise

import (
	"slices"
	"sync"

	"mklite/internal/sim"
)

// tableCache holds the Ψ grids and the tables of one law of core-1
// sources: a grid per step some table was built on, and a table per window
// some profile tabulated. Both are pure functions of the law and their
// step or window, so whichever profile fills an entry first, its content is
// the same. A profile gets a cache from Warm, or from a Store, and its
// views (CloneTables) share it the way they share the tables, so a node
// image and its views fit each step and build each window's table once;
// WithSource, WithoutTicks and fresh profiles start their own, since their
// sources differ. Views tabulate concurrently (a facility's node-count
// views), so the lists are locked and each entry is filled once, outside
// the lock.
type tableCache struct {
	// law is the key a Store finds the cache by; nil for a profile's own.
	law    []law
	mu     sync.Mutex
	grids  []*grid
	tables map[sim.Duration]*tableCell
}

// tableCell is one window's table, built once.
type tableCell struct {
	once sync.Once
	t    denseTable
}

// law is what of a source its detour law, and so Ψ and every table,
// depends on.
type law struct {
	period, mean, tailScale, tailCap sim.Duration
	cv, tailProb, tailAlpha          float64
}

// laws returns the laws of the profile's core-1 sources, in profile order.
func (p *Profile) laws() []law {
	var ls []law
	for i := range p.Sources {
		if s := &p.Sources[i]; s.drawsOnAppCore() {
			ls = append(ls, law{period: s.Period, mean: s.Mean, tailScale: s.TailScale, tailCap: s.TailCap,
				cv: s.CV, tailProb: s.TailProb, tailAlpha: s.TailAlpha})
		}
	}
	return ls
}

// Store shares Ψ grids and tables between the profiles warmed in it that
// have the same core-1 sources (by Period, Mean, CV, TailProb, TailScale,
// TailAlpha and TailCap, in profile order), beyond the views of one
// profile: the node images of one experiment call, whichever kernel
// booted them. It shares the log-normal quantile tables of every source
// warmed in it by (Mean, CV) the same way. Every entry is a pure function
// of its key, so the order in which profiles fill a store cannot reach a
// table. A store keeps everything built in it until it is dropped, so it
// lives as long as one call (a cluster.Images store holds it). It is safe
// for concurrent use.
type Store struct {
	mu     sync.Mutex
	caches []*tableCache
	lnTabs map[lnKey][]float64
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{lnTabs: map[lnKey][]float64{}} }

// Warm is p.Warm with p's table cache taken from the store, the cache of
// p's law, made on first use, and each quantile table the store already
// holds for a source's (Mean, CV) taken from it. A nil store warms p with
// caches of its own.
func (s *Store) Warm(p *Profile) {
	if s == nil {
		p.Warm()
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.cache == nil {
		ls := p.laws()
		i := slices.IndexFunc(s.caches, func(c *tableCache) bool { return slices.Equal(c.law, ls) })
		if i < 0 {
			i = len(s.caches)
			s.caches = append(s.caches, &tableCache{law: ls})
		}
		p.cache = s.caches[i]
	}
	p.warm(s.lnTabs)
}

// tableCache returns the profile's cache, making one of its own if it was
// never warmed.
func (p *Profile) tableCache() *tableCache {
	if p.cache == nil {
		p.cache = new(tableCache)
	}
	return p.cache
}

// gridAt returns the profile's grid at step h, fitting it on first use.
func (p *Profile) gridAt(h float64) *grid {
	c := p.tableCache()
	c.mu.Lock()
	i := slices.IndexFunc(c.grids, func(g *grid) bool { return g.h == h })
	if i < 0 {
		i = len(c.grids)
		c.grids = append(c.grids, &grid{h: h})
	}
	g := c.grids[i]
	c.mu.Unlock()
	g.once.Do(func() { g.fit(p) })
	return g
}

// tableAt returns the profile's table at window, building it on first use.
func (p *Profile) tableAt(window sim.Duration) *denseTable {
	c := p.tableCache()
	c.mu.Lock()
	cell := c.tables[window]
	if cell == nil {
		if c.tables == nil {
			c.tables = map[sim.Duration]*tableCell{}
		}
		cell = &tableCell{t: denseTable{window: window}}
		c.tables[window] = cell
	}
	c.mu.Unlock()
	cell.once.Do(func() { cell.t.build(p) })
	return &cell.t
}
