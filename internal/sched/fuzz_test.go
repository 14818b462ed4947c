package sched

import (
	"slices"
	"strings"
	"testing"
)

// FuzzParse: Parse never panics, accepts exactly the known policy names
// (case and surrounding space aside), and every policy it returns is one of
// Kinds() and parses back to itself. The seed corpus lives in
// testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		k, err := Parse(s)
		known := slices.Contains(Kinds(), Kind(strings.ToLower(strings.TrimSpace(s))))
		if err != nil {
			if known {
				t.Fatalf("Parse(%q) rejected a known policy: %v", s, err)
			}
			if k != "" {
				t.Fatalf("Parse(%q) failed but returned %q", s, k)
			}
			return
		}
		if !known || !slices.Contains(Kinds(), k) {
			t.Fatalf("Parse(%q) = %q, not one of %v", s, k, Kinds())
		}
		if again, err := Parse(string(k)); err != nil || again != k {
			t.Fatalf("Parse(%q) = %q, %v; want %q back", k, again, err, k)
		}
	})
}
