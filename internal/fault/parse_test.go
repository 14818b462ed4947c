package fault

import (
	"reflect"
	"strings"
	"testing"

	"mklite/internal/sim"
)

// The clause grammar is shared surface: mkrun/mkexperiments -faults and
// mkfleet -interference all go through ParsePlan, so its error paths are the
// user's first line of defence against a silently-wrong fault plan. This
// file pins them exhaustively: malformed clause syntax, out-of-domain
// values (negative probabilities, durations, counts), unknown keys and
// kinds, and duplicate clauses.

func TestParsePlanMalformedClauses(t *testing.T) {
	cases := []struct{ spec, want string }{
		{"offload:prob", "not key=value"},
		{"link:loss 0.1", "not key=value"},
		{":", `unknown fault kind ""`},
		{"straggler factor=2", "unknown fault kind"},
		{"storm:period==1ms", "bad duration"}, // value "=1ms"
	}
	for _, c := range cases {
		if _, err := ParsePlan(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("spec %q: error %v, want %q", c.spec, err, c.want)
		}
	}
}

func TestParsePlanNegativeAndOutOfDomain(t *testing.T) {
	cases := []struct{ spec, want string }{
		// Probabilities outside their domain, both signs.
		{"offload:prob=-0.1", "outside [0, 1]"},
		{"offload:prob=1.01", "outside [0, 1]"},
		{"nodefail:prob=-1", "outside [0, 1]"},
		{"nodefail:prob=1.5", "outside [0, 1]"},
		{"link:loss=-0.5", "outside [0, 1)"},
		{"link:loss=1", "outside [0, 1)"}, // loss=1 would retransmit forever
		// Negative durations and counts.
		{"offload:prob=0.1,stall=-5ms", "negative offload stall"},
		{"offload:prob=0.1,retries=-1", "negative offload retry bound"},
		{"link:loss=0.1,timeout=-1ms", "negative link retransmit timeout"},
		{"link:loss=0.1,bytes=-5", "negative link retransmit payload"},
		{"storm:period=-1ms", "negative period or burst"},
		{"storm:burst=-1us", "negative period or burst"},
		{"storm:cv=-0.5", "negative CV"},
		{"storm:offload=-2", "negative offload factor"},
		{"retry:max=-1", "negative retry bound"},
		{"nodefail:failfirst=-2", "negative node FailFirst"},
		// Straggler domain: factor 0 means unset, else >= 1.
		{"straggler:factor=0.5", "must be 0 (unset) or >= 1"},
		{"straggler:factor=-2", "must be 0 (unset) or >= 1"},
		{"straggler:node=-1,factor=2", "negative node"},
		{"straggler:extra=-5ms", "negative extra detour"},
		{"straggler:factor=2,start=-3", "negative start step"},
		// Non-finite values: NaN fails every range comparison and would
		// otherwise pass as a plan that silently injects nothing.
		{"straggler:node=0,factor=NaN", "non-finite factor"},
		{"straggler:factor=+Inf", "non-finite factor"},
		{"offload:prob=NaN", "outside [0, 1]"},
		{"link:loss=NaN", "outside [0, 1)"},
		{"nodefail:prob=NaN", "outside [0, 1]"},
		{"storm:cv=NaN", "non-finite CV"},
		{"storm:cv=Inf", "non-finite CV"},
		{"storm:offload=NaN", "offload factor NaN"},
		{"storm:offload=+Inf", "offload factor +Inf"},
	}
	for _, c := range cases {
		if _, err := ParsePlan(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("spec %q: error %v, want %q", c.spec, err, c.want)
		}
	}
}

func TestParsePlanUnknownKeysAndKinds(t *testing.T) {
	cases := []struct{ spec, want string }{
		{"offload:prob=0.1,frequency=2", `unknown argument "frequency"`},
		{"link:loss=0.1,mtu=9000", `unknown argument "mtu"`},
		{"retry:max=1,jitter=2", `unknown argument "jitter"`},
		{"degraded:foo=1", `unknown argument "foo"`},
		{"straggler:factor=2,nodes=3", `unknown argument "nodes"`}, // singular "node"
		{"stragler:factor=2", "unknown fault kind"},
		{"interference:prob=0.1", "unknown fault kind"},
	}
	for _, c := range cases {
		if _, err := ParsePlan(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("spec %q: error %v, want %q", c.spec, err, c.want)
		}
	}
}

func TestParsePlanDuplicatesAndBadScalars(t *testing.T) {
	cases := []struct{ spec, want string }{
		{"link:loss=0.1;link:loss=0.2", "duplicate link"},
		{"storm:period=1ms;storm:burst=2ms", "duplicate storm"},
		{"nodefail:prob=0.1;nodefail:prob=0.1", "duplicate nodefail"},
		{"nodefail:prob=maybe", "bad number"},
		{"storm:period=fast", "bad duration"},
		{"link:loss=0.1,bytes=4k", "bad integer"},
		{"offload:prob=0.1,retries=two", "bad integer"},
	}
	for _, c := range cases {
		if _, err := ParsePlan(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("spec %q: error %v, want %q", c.spec, err, c.want)
		}
	}
}

// TestParsePlanAccumulatesStragglers: straggler clauses accumulate while
// every other kind is single-occurrence; whitespace and empty clauses are
// tolerated.
func TestParsePlanAccumulatesStragglers(t *testing.T) {
	p, err := ParsePlan(" straggler:factor=2 ;; straggler:node=1,extra=1ms ; ")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stragglers) != 2 {
		t.Fatalf("got %d stragglers, want 2", len(p.Stragglers))
	}
	if p.Stragglers[0].Factor != 2 || p.Stragglers[1].Extra != sim.Millisecond {
		t.Fatalf("stragglers %+v", p.Stragglers)
	}
}

// FuzzParsePlan: ParsePlan never panics, and every plan it accepts passes
// Validate with every float field finite. The seed corpus lives in
// testdata/fuzz/FuzzParsePlan.
func FuzzParsePlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil || p == nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParsePlan(%q) accepted a plan Validate rejects: %v", spec, err)
		}
		for _, x := range floatFields(reflect.ValueOf(p)) {
			if !finite(x) {
				t.Fatalf("ParsePlan(%q) accepted a non-finite value %g: %+v", spec, x, p)
			}
		}
	})
}

// floatFields returns every float64 reachable from v through pointers,
// slices and struct fields.
func floatFields(v reflect.Value) []float64 {
	var out []float64
	switch v.Kind() {
	case reflect.Float64:
		out = append(out, v.Float())
	case reflect.Pointer:
		if !v.IsNil() {
			out = floatFields(v.Elem())
		}
	case reflect.Slice:
		for i := range v.Len() {
			out = append(out, floatFields(v.Index(i))...)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			out = append(out, floatFields(v.Field(i))...)
		}
	}
	return out
}
