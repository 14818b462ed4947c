package trace

import (
	"bytes"
	"testing"
)

func TestKeyNamesComplete(t *testing.T) {
	seen := map[string]Key{}
	for k := Key(0); k < numKeys; k++ {
		name := k.String()
		if name == "" || name == "trace.Key(invalid)" {
			t.Fatalf("key %d has no name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("keys %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
		if got, ok := keyByName[name]; !ok || got != k {
			t.Fatalf("keyByName[%q] = %v, %v; want %v, true", name, got, ok, k)
		}
	}
	if _, ok := keyByName["no.such.counter"]; ok {
		t.Fatal("keyByName holds a key for an unknown name")
	}
	if Key(-1).String() != "trace.Key(invalid)" {
		t.Fatal("out-of-range Key.String")
	}
}

// TestKeyedAndNamedPathsAgree: the dense AddKey/MaxKey fast path and the
// string Add/Max path must land on the same counter — a string that names a
// Key is routed to the dense slot, never split into a shadow map entry.
func TestKeyedAndNamedPathsAgree(t *testing.T) {
	c := NewCounters()
	c.AddKey(KeyHeapGrows, 2)
	c.Add("heap.grows", 3)
	if got := c.Get("heap.grows"); got != 5 {
		t.Fatalf("heap.grows = %d, want 5", got)
	}
	if got := c.GetKey(KeyHeapGrows); got != 5 {
		t.Fatalf("GetKey(KeyHeapGrows) = %d, want 5", got)
	}
	c.Max("heap.peak_bytes", 10)
	c.MaxKey(KeyHeapPeakBytes, 7)
	if got := c.Get("heap.peak_bytes"); got != 10 {
		t.Fatalf("heap.peak_bytes = %d, want 10", got)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

// TestKeyedExportMatchesNamed: a counter set built through the keyed API and
// one built through the string API must export byte-identical JSON, and the
// dense tier must keep the map tier's existence semantics — Add at zero
// creates an exported entry, Max at zero does not.
func TestKeyedExportMatchesNamed(t *testing.T) {
	keyed := NewCounters()
	keyed.AddKey(KeySyscallBrk, 7526)
	keyed.AddKey(KeyHeapQueries, 0) // exists at zero
	keyed.MaxKey(KeyHeapPeakBytes, 0)
	keyed.Add("noise.src.daemon_ns", 42) // dynamic tier

	named := NewCounters()
	named.Add("syscall.brk", 7526)
	named.Add("heap.queries", 0)
	named.Max("heap.peak_bytes", 0)
	named.Add("noise.src.daemon_ns", 42)

	var a, b bytes.Buffer
	if err := keyed.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := named.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("keyed and named exports differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	m := keyed.Map()
	if _, ok := m["heap.queries"]; !ok {
		t.Fatal("Add at zero must create the counter")
	}
	if _, ok := m["heap.peak_bytes"]; ok {
		t.Fatal("Max at zero must not create the counter")
	}
	want := []string{"heap.queries", "noise.src.daemon_ns", "syscall.brk"}
	names := keyed.Names()
	if len(names) != len(want) {
		t.Fatalf("Names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
}

func TestMergeCrossesTiers(t *testing.T) {
	a := NewCounters()
	a.AddKey(KeyOffloadCalls, 3)
	a.Add("custom.counter", 1)
	b := NewCounters()
	b.AddKey(KeyOffloadCalls, 4)
	b.Add("custom.counter", 2)
	a.Merge(b)
	if got := a.GetKey(KeyOffloadCalls); got != 7 {
		t.Fatalf("merged offload.calls = %d, want 7", got)
	}
	if got := a.Get("custom.counter"); got != 3 {
		t.Fatalf("merged custom.counter = %d, want 3", got)
	}
	// MergeMap routes interned names through the dense tier too.
	a.MergeMap(map[string]int64{"offload.calls": 1, "custom.counter": 1})
	if a.GetKey(KeyOffloadCalls) != 8 || a.Get("custom.counter") != 4 {
		t.Fatalf("MergeMap mismatch: %v", a.Map())
	}
}

func TestSinkCountKeyNilSafe(t *testing.T) {
	var s *Sink
	s.CountKey(KeyHeapGrows, 1) // must not panic
	s.CountMaxKey(KeyHeapPeakBytes, 1)
	s.Observe("x", 1)
	s.ObserveRank("x", 0, 1)
	s.Phase("x", 1)
	s.Gauge("x", 1)
	if s.Observing() || s.Observer() != nil {
		t.Fatal("nil sink claims an observer")
	}
	c := NewCounters()
	ws := NewSink(c, nil)
	ws.CountKey(KeyHeapGrows, 2)
	ws.CountMaxKey(KeyHeapPeakBytes, 9)
	if c.GetKey(KeyHeapGrows) != 2 || c.GetKey(KeyHeapPeakBytes) != 9 {
		t.Fatalf("sink keyed counting lost updates: %v", c.Map())
	}
}
