package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
)

// CountersSchema versions the counter file format and the key namespace.
// Bump when a key is renamed or its meaning changes; mkobs diff refuses to
// compare files with different schemas.
const CountersSchema = "mklite-counters/v1"

// Counters is the aggregating backend: monotonic mechanism counts keyed by
// dotted names ("heap.grows", "syscall.brk", "mem.fault.4KiB",
// "offload.rtt_ns"). Exports are always sorted by key so counter output is
// byte-stable. Not safe for concurrent use: one Counters per run, merged
// after the par fan-out joins.
//
// Storage is two-tier: the interned hot names (trace.Key) live in a dense
// slice indexed directly — no hashing on the emission path — while dynamic
// names fall back to a map. Add routes a string that names a Key to the
// dense slot, so the two APIs can never split one counter in two; the
// touched bitmap preserves the map semantics that an Add-ed counter exists
// (and exports) even at value zero.
type Counters struct {
	m       map[string]int64
	keys    [numKeys]int64
	touched [numKeys]bool
	// peak and peakNames mark the counters Max has raised, which Replay
	// raises rather than adds.
	peak      [numKeys]bool
	peakNames map[string]bool
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{m: map[string]int64{}}
}

// AddKey accumulates delta into an interned counter: one array index, no
// string hashing. The hot emission sites (heap engine, fault path, step
// loop) use this form.
func (c *Counters) AddKey(k Key, delta int64) {
	c.keys[k] += delta
	c.touched[k] = true
}

// MaxKey raises an interned counter to v if v exceeds the current value.
func (c *Counters) MaxKey(k Key, v int64) {
	if v > c.keys[k] {
		c.keys[k] = v
		c.touched[k] = true
		c.peak[k] = true
	}
}

// Add accumulates delta into the named counter.
func (c *Counters) Add(name string, delta int64) {
	if k, ok := keyByName[name]; ok {
		c.AddKey(k, delta)
		return
	}
	c.m[name] += delta
}

// Max raises the named counter to v if v exceeds the current value. Used for
// peak-style counters ("heap.peak_bytes") that are maxima, not sums.
func (c *Counters) Max(name string, v int64) {
	if k, ok := keyByName[name]; ok {
		c.MaxKey(k, v)
		return
	}
	if v > c.m[name] {
		c.m[name] = v
		if c.peakNames == nil {
			c.peakNames = map[string]bool{}
		}
		c.peakNames[name] = true
	}
}

// Get returns the named counter (0 when absent).
func (c *Counters) Get(name string) int64 {
	if k, ok := keyByName[name]; ok {
		return c.keys[k]
	}
	return c.m[name]
}

// GetKey returns an interned counter's value.
func (c *Counters) GetKey(k Key) int64 { return c.keys[k] }

// Len returns the number of distinct counters.
func (c *Counters) Len() int {
	n := len(c.m)
	for _, t := range c.touched {
		if t {
			n++
		}
	}
	return n
}

// Names returns the counter names sorted.
func (c *Counters) Names() []string {
	names := make([]string, 0, c.Len())
	for k, t := range c.touched {
		if t {
			names = append(names, keyNames[k])
		}
	}
	names = append(names, slices.Sorted(maps.Keys(c.m))...)
	slices.Sort(names)
	return names
}

// Each calls fn for every counter without building an intermediate map:
// the dense tier in interning order, then the dynamic tier sorted by name.
// The order is deterministic, so Each is safe to fold into keyed artifacts
// (the fleet scheduler's job/<id>/<name> counter view builds this way —
// per-job Map copies were measurable at facility scale).
func (c *Counters) Each(fn func(name string, v int64)) {
	for k, t := range c.touched {
		if t {
			fn(keyNames[k], c.keys[k])
		}
	}
	for _, k := range slices.Sorted(maps.Keys(c.m)) {
		fn(k, c.m[k])
	}
}

// Map returns a copy of the counters (dense and dynamic tiers united).
func (c *Counters) Map() map[string]int64 {
	if c.Len() == 0 {
		return nil
	}
	out := make(map[string]int64, c.Len())
	maps.Copy(out, c.m)
	for k, t := range c.touched {
		if t {
			out[keyNames[k]] = c.keys[k]
		}
	}
	return out
}

// Merge adds every counter of o into c. Merging is commutative for Add-style
// counters; callers that mix in Max-style counters should merge in a fixed
// (index) order anyway, which par's ordered results provide for free.
func (c *Counters) Merge(o *Counters) { c.MergeScaled(o, 1) }

// MergeScaled adds n times every counter of o into c, the same as n calls
// to Merge in one pass.
func (c *Counters) MergeScaled(o *Counters, n int64) {
	if o == nil {
		return
	}
	for k, t := range o.touched {
		if t {
			c.keys[k] += n * o.keys[k]
			c.touched[k] = true
		}
	}
	for _, k := range slices.Sorted(maps.Keys(o.m)) {
		c.m[k] += n * o.m[k]
	}
}

// Replay applies to c what n repetitions (n >= 1) of the emissions
// recorded in o would have done: each Add-style counter adds n times its
// value, and each peak counter (one that Max raised in o) rises to its
// value, which n repetitions reach as one does. A recorded stretch of
// emissions — node setup, one step of a heap phase — can so be played into
// any number of runs' counters without replaying the model that emitted
// it. A counter must be either Add-style or peak in o, not both.
func (c *Counters) Replay(o *Counters, n int64) {
	for k, t := range o.touched {
		switch {
		case !t:
		case o.peak[k]:
			c.MaxKey(Key(k), o.keys[k])
		default:
			c.keys[k] += n * o.keys[k]
			c.touched[k] = true
		}
	}
	for _, name := range slices.Sorted(maps.Keys(o.m)) {
		if o.peakNames[name] {
			c.Max(name, o.m[name])
		} else {
			c.m[name] += n * o.m[name]
		}
	}
}

// MergeMap adds a plain counter map (e.g. a facade Result.Counters) into c.
func (c *Counters) MergeMap(m map[string]int64) {
	for _, k := range slices.Sorted(maps.Keys(m)) {
		c.Add(k, m[k])
	}
}

// counterFile is the on-disk shape of a counter dump.
type counterFile struct {
	Schema   string           `json:"schema"`
	Counters map[string]int64 `json:"counters"`
}

// WriteJSON writes the schema-versioned counter dump. encoding/json sorts
// map keys, so the bytes are deterministic.
func (c *Counters) WriteJSON(w io.Writer) error {
	m := c.Map()
	if m == nil {
		m = map[string]int64{} // keep `"counters": {}` for an empty set
	}
	out, err := json.MarshalIndent(counterFile{Schema: CountersSchema, Counters: m}, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
}

// ReadCounters parses a dump produced by WriteJSON, checking the schema and
// that the counters object is present (WriteJSON writes `{}` for an empty
// set), so a truncated or foreign file is an error, not an empty map.
func ReadCounters(data []byte) (map[string]int64, error) {
	var f counterFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("trace: parsing counter file: %w", err)
	}
	if f.Schema != CountersSchema {
		return nil, fmt.Errorf("trace: counter schema %q, want %q", f.Schema, CountersSchema)
	}
	if f.Counters == nil {
		return nil, fmt.Errorf("trace: counter file has no counters object")
	}
	return f.Counters, nil
}

// CounterDiff is one row of a counter comparison.
type CounterDiff struct {
	Name     string
	Old, New int64
}

// Delta returns New - Old.
func (d CounterDiff) Delta() int64 { return d.New - d.Old }

// DiffCounters returns the rows whose values differ between old and new,
// sorted by name. Keys present on only one side diff against zero.
func DiffCounters(oldC, newC map[string]int64) []CounterDiff {
	keys := map[string]struct{}{}
	for _, k := range slices.Sorted(maps.Keys(oldC)) {
		keys[k] = struct{}{}
	}
	for _, k := range slices.Sorted(maps.Keys(newC)) {
		keys[k] = struct{}{}
	}
	var rows []CounterDiff
	for _, k := range slices.Sorted(maps.Keys(keys)) {
		if oldC[k] != newC[k] {
			rows = append(rows, CounterDiff{Name: k, Old: oldC[k], New: newC[k]})
		}
	}
	return rows
}

// FormatCounters renders a counter map as aligned "name value" lines sorted
// by name — the human-readable summary the -counters flags print.
func FormatCounters(m map[string]int64) string {
	var b strings.Builder
	width := 0
	names := slices.Sorted(maps.Keys(m))
	for _, k := range names {
		if len(k) > width {
			width = len(k)
		}
	}
	for _, k := range names {
		fmt.Fprintf(&b, "%-*s %d\n", width, k, m[k])
	}
	return b.String()
}
