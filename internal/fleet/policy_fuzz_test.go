package fleet

import (
	"slices"
	"strings"
	"testing"

	"mklite/internal/sched"
)

// FuzzParsePolicy: ParsePolicy never panics and never falls back to a
// default. It accepts a name exactly when the part before the first ':' is
// one of PolicyNames() and the part after it, if any, is a policy sched.Parse
// accepts; the result's Name() is the canonical spelling, which parses back
// to the same name. The seed corpus (with and without a :sched suffix) lives
// in testdata/fuzz/FuzzParsePolicy.
func FuzzParsePolicy(f *testing.F) {
	f.Fuzz(func(t *testing.T, name string) {
		pol, err := ParsePolicy(name, 1, 1, nil)
		base, suffix, hasSched := strings.Cut(name, ":")
		want := base
		valid := slices.Contains(PolicyNames(), base)
		if hasSched {
			kind, serr := sched.Parse(suffix)
			valid = valid && serr == nil
			want += ":" + string(kind)
		}
		if err != nil {
			if pol != nil {
				t.Fatalf("ParsePolicy(%q) failed (%v) but returned %q", name, err, pol.Name())
			}
			if valid {
				t.Fatalf("ParsePolicy(%q) rejected a valid name: %v", name, err)
			}
			return
		}
		if !valid {
			t.Fatalf("ParsePolicy(%q) accepted an invalid name as %q", name, pol.Name())
		}
		if pol.Name() != want {
			t.Fatalf("ParsePolicy(%q).Name() = %q, want %q", name, pol.Name(), want)
		}
		again, err := ParsePolicy(pol.Name(), 1, 1, nil)
		if err != nil || again.Name() != pol.Name() {
			t.Fatalf("ParsePolicy(%q) did not round-trip: %v", pol.Name(), err)
		}
	})
}
